/**
 * @file
 * Trace tooling (§V): record the full MC access trace of a running
 * workload through the MC tap (MachineConfig::recordTracePath, the
 * replay container hopp-replay reads), read it back with TraceReader,
 * and run the paper's §VI-D style offline analysis (stride census over
 * the page-level read trace).
 */

#include <cstdio>
#include <iterator>
#include <map>
#include <string>

#include "runner/machine.hh"
#include "stats/table.hh"
#include "trace/trace_file.hh"

using namespace hopp;
using namespace hopp::runner;

int
main()
{
    // 1. Record: the MC tap persists every MC access (plus the PTE
    //    events replay needs) while the workload runs. The trace goes
    //    to the working directory and is removed at the end.
    const std::string path = "trace_tools_npb_mg.trc";
    MachineConfig cfg;
    cfg.system = SystemKind::NoPrefetch;
    cfg.localMemRatio = 0.5;
    cfg.recordTracePath = path;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("npb-mg", {}));
    m.run();
    if (!m.traceRecordOk()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::remove(path.c_str());
        return 1;
    }

    // 2. Read back and analyse: page-level stride census of READ misses,
    //    the raw material of the paper's stream-pattern taxonomy.
    trace::TraceReader reader;
    trace::TraceIoStatus st = reader.open(path);
    std::map<std::int64_t, std::uint64_t> stride_census;
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    Ppn last{};
    bool have_last = false;
    trace::ReplayRecord batch[256];
    while (std::size_t n = reader.nextBatch(batch, std::size(batch))) {
        for (std::size_t i = 0; i < n; ++i) {
            const trace::ReplayRecord &rec = batch[i];
            if (rec.kind != trace::ReplayKind::Mc)
                continue;
            ++accesses;
            if (rec.isWrite)
                continue;
            ++reads;
            Ppn ppn = pageOf(rec.pa);
            if (have_last && ppn != last) {
                std::int64_t stride = signedDelta(last, ppn);
                if (stride >= -8 && stride <= 8)
                    ++stride_census[stride];
                else
                    ++stride_census[stride < 0 ? -9 : 9]; // |s| > 8
            }
            last = ppn;
            have_last = true;
        }
    }
    if (st == trace::TraceIoStatus::Ok)
        st = reader.status();
    std::remove(path.c_str());
    if (st != trace::TraceIoStatus::Ok) {
        std::fprintf(stderr, "cannot read %s back: %s\n", path.c_str(),
                     trace::traceIoStatusName(st));
        return 1;
    }
    std::printf("recorded %llu MC accesses (%llu trace records) to %s\n",
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(reader.recordsDecoded()),
                path.c_str());

    stats::Table table("Page-stride census of the NPB-MG read trace");
    table.header({"stride", "count", "share"});
    for (const auto &[stride, count] : stride_census) {
        std::string label = stride == 9    ? "> +8"
                            : stride == -9 ? "< -8"
                                           : std::to_string(stride);
        table.row({label, std::to_string(count),
                   stats::Table::pct(static_cast<double>(count) /
                                         static_cast<double>(reads),
                                     1)});
    }
    table.print();
    std::puts("The mass at small +/- strides with net forward progress"
              " is the ripple signature (paper Fig. 3) that RSP"
              " exploits. Physical-address strides are noisier than"
              " virtual ones — which is exactly why HoPP adds the"
              " reverse page table.");
    return 0;
}

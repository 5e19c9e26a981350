/**
 * @file
 * hopp-run: command-line driver for one-off experiments.
 *
 *   hopp-run [--workload NAME]... [--system NAME] [--ratio F]
 *            [--scale F] [--iterations F] [--depth N] [--tiers MASK]
 *            [--channels N] [--no-interleave] [--batch] [--markov]
 *            [--eviction-advisor] [--seed N] [--dump-hopp] [--list]
 *            [--trace-out FILE] [--trace-jsonl FILE]
 *            [--metrics-out FILE] [--metrics-period NS]
 *            [--stats-json FILE] [--profile-out FILE]
 *            [--blackbox-out FILE] [--inject-corruption N]
 *            [--record-trace FILE] [--mc-stats-json FILE]
 *
 * Examples:
 *   hopp-run --workload npb-mg --system hopp --ratio 0.5 --dump-hopp
 *   hopp-run --workload kmeans-omp --workload quicksort --system hopp
 *   hopp-run --workload kmeans-omp --trace-out run.json  # -> Perfetto
 *   hopp-run --list
 */

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "hopp/hopp_system.hh"
#include "obs/profiler.hh"
#include "obs/trace_writer.hh"
#include "runner/machine.hh"
#include "runner/stats_report.hh"
#include "stats/table.hh"

using namespace hopp;
using namespace hopp::runner;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME     workload to run (repeatable; default"
        " kmeans-omp)\n"
        "  --system NAME       local | no-prefetch | fastswap | leap |"
        " vma | depth-n | hopp | hopp-only (default hopp)\n"
        "  --ratio F           local memory / footprint (default 0.5)\n"
        "  --scale F           footprint scale factor (default 1.0)\n"
        "  --iterations F      iteration scale factor (default 1.0)\n"
        "  --depth N           Depth-N depth (default 32)\n"
        "  --tiers MASK        tier bitmask: 1=SSP 2=LSP 4=RSP 8=Markov"
        " (default 7)\n"
        "  --channels N        memory channels (default 1)\n"
        "  --no-interleave     per-page channel layout\n"
        "  --batch             enable huge-batch prefetching\n"
        "  --markov            shorthand for --tiers 15\n"
        "  --eviction-advisor  enable trace-informed reclaim advice\n"
        "  --no-tlb            disable the host-side software TLB (the"
        " output must not change)\n"
        "  --check N           run the invariant validators every N"
        " events (0 = off)\n"
        "  --seed N            workload seed (default 42)\n"
        "  --dump-hopp         print HoPP component statistics\n"
        "  --stats             print the full component stats dump"
        " (stderr)\n"
        "  --stats-json FILE   write the stats dump as JSON to FILE\n"
        "  --trace-out FILE    record a Chrome trace_event JSON trace"
        " (open in Perfetto)\n"
        "  --trace-jsonl FILE  record the trace as one-event-per-line"
        " JSONL\n"
        "  --metrics-out FILE  write periodic gauge samples as CSV\n"
        "  --metrics-period NS sampling period in simulated ns"
        " (default 100000)\n"
        "  --profile-out FILE  enable the host self-profiler and write"
        " its JSON report (sim output is unaffected)\n"
        "  --blackbox-out FILE dump the black-box event ring as JSONL"
        " after the run\n"
        "  --inject-corruption N  test hook: corrupt LLC accounting"
        " after N events so --check fails and dumps forensics\n"
        "  --record-trace FILE record the MC-side input stream in the"
        " replay format (feed to hopp-replay)\n"
        "  --mc-stats-json FILE  write the MC-side pipeline stats"
        " (the replay fidelity contract document)\n"
        "  --list              list workloads and exit\n",
        argv0);
}

SystemKind
parseSystem(const std::string &name)
{
    for (auto kind : {SystemKind::Local, SystemKind::NoPrefetch,
                      SystemKind::Fastswap, SystemKind::Leap,
                      SystemKind::Vma, SystemKind::DepthN,
                      SystemKind::Hopp, SystemKind::HoppOnly}) {
        if (name == systemName(kind))
            return kind;
    }
    hopp_fatal("unknown system '%s'", name.c_str());
}

void
dumpHopp(core::HoppSystem &h)
{
    using core::Tier;
    auto hpd = h.hpdTotals();
    std::printf("\n-- HoPP internals --\n");
    std::printf("HPD: %llu reads -> %llu hot pages (%.3f%%),"
                " %llu suppressed, %llu evictions\n",
                static_cast<unsigned long long>(hpd.reads),
                static_cast<unsigned long long>(hpd.hotPages),
                100.0 * hpd.hotRatio(),
                static_cast<unsigned long long>(hpd.suppressed),
                static_cast<unsigned long long>(hpd.evictions));
    std::printf("RPT cache: hit rate %.4f (%llu lookups), %llu"
                " updates, %llu invalidates; DRAM RPT %zu entries"
                " (%llu bytes)\n",
                h.rptCache().stats().hitRate(),
                static_cast<unsigned long long>(
                    h.rptCache().stats().lookups),
                static_cast<unsigned long long>(
                    h.rptCache().stats().updates),
                static_cast<unsigned long long>(
                    h.rptCache().stats().invalidates),
                h.rpt().size(),
                static_cast<unsigned long long>(h.rpt().bytes()));
    std::printf("STT: %llu fed, %llu streams seeded, %llu evicted\n",
                static_cast<unsigned long long>(h.stt().stats().fed),
                static_cast<unsigned long long>(
                    h.stt().stats().seeded),
                static_cast<unsigned long long>(
                    h.stt().stats().evicted));
    const char *tier_names[] = {"SSP", "LSP", "RSP", "Markov"};
    for (unsigned t = 0; t < core::tierCount; ++t) {
        const auto &ts = h.exec().tierStats(static_cast<Tier>(t));
        if (ts.requested == 0)
            continue;
        std::printf("%-6s: %llu requested, %llu issued, %llu hits,"
                    " %llu evicted unused (accuracy %.3f)\n",
                    tier_names[t],
                    static_cast<unsigned long long>(ts.requested),
                    static_cast<unsigned long long>(ts.issued),
                    static_cast<unsigned long long>(ts.hits),
                    static_cast<unsigned long long>(ts.evictedUnused),
                    ts.accuracy());
    }
    std::printf("policy: %llu feedbacks (%llu up, %llu down);"
                " exec dedup %llu; ring drops %llu\n",
                static_cast<unsigned long long>(
                    h.policy().stats().feedbacks),
                static_cast<unsigned long long>(
                    h.policy().stats().increases),
                static_cast<unsigned long long>(
                    h.policy().stats().decreases),
                static_cast<unsigned long long>(h.exec().deduped()),
                static_cast<unsigned long long>(h.ring().dropped()));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workload_names;
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    workloads::WorkloadScale scale;
    std::uint64_t seed = 42;
    bool dump_hopp = false;
    bool dump_stats = false;
    std::string trace_out, trace_jsonl, metrics_out, stats_json;
    std::string profile_out, blackbox_out, mc_stats_json;
    Duration metrics_period = 100'000; // 100 us of simulated time

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            usage(argv[0]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workload") {
            workload_names.push_back(need(i));
        } else if (arg == "--system") {
            cfg.system = parseSystem(need(i));
        } else if (arg == "--ratio") {
            cfg.localMemRatio = std::atof(need(i));
        } else if (arg == "--scale") {
            scale.footprint = std::atof(need(i));
        } else if (arg == "--iterations") {
            scale.iterations = std::atof(need(i));
        } else if (arg == "--depth") {
            cfg.depth = static_cast<unsigned>(std::atoi(need(i)));
        } else if (arg == "--tiers") {
            cfg.hopp.tierMask =
                static_cast<unsigned>(std::atoi(need(i)));
        } else if (arg == "--channels") {
            cfg.hopp.channels =
                static_cast<unsigned>(std::atoi(need(i)));
        } else if (arg == "--no-interleave") {
            cfg.hopp.channelInterleaved = false;
        } else if (arg == "--batch") {
            cfg.hopp.batch.enabled = true;
        } else if (arg == "--markov") {
            cfg.hopp.tierMask |= core::tiers::markov;
        } else if (arg == "--eviction-advisor") {
            cfg.hopp.evictionAdvisor = true;
        } else if (arg == "--no-tlb") {
            cfg.tlb = false;
        } else if (arg == "--check") {
            cfg.checkInterval =
                static_cast<std::uint64_t>(std::atoll(need(i)));
        } else if (arg == "--seed") {
            seed = static_cast<std::uint64_t>(std::atoll(need(i)));
        } else if (arg == "--dump-hopp") {
            dump_hopp = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-json") {
            stats_json = need(i);
        } else if (arg == "--trace-out") {
            trace_out = need(i);
        } else if (arg == "--trace-jsonl") {
            trace_jsonl = need(i);
        } else if (arg == "--metrics-out") {
            metrics_out = need(i);
        } else if (arg == "--profile-out") {
            profile_out = need(i);
        } else if (arg == "--blackbox-out") {
            blackbox_out = need(i);
        } else if (arg == "--record-trace") {
            cfg.recordTracePath = need(i);
        } else if (arg == "--mc-stats-json") {
            mc_stats_json = need(i);
        } else if (arg == "--inject-corruption") {
            cfg.corruptAfterEvents =
                static_cast<std::uint64_t>(std::atoll(need(i)));
        } else if (arg == "--metrics-period") {
            metrics_period =
                static_cast<Duration>(std::atoll(need(i)));
        } else if (arg == "--list") {
            for (const auto &n : workloads::allWorkloadNames())
                std::printf("%s\n", n.c_str());
            std::printf("microbench\nlinkedlist\n");
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    // Reject out-of-range values here: past this point they surface as
    // an uncaught exception, a deep assertion or a degenerate run.
    auto reject = [](const char *why) {
        std::fprintf(stderr, "hopp-run: %s\n", why);
        return 2;
    };
    if (!(cfg.localMemRatio > 0.0 && cfg.localMemRatio <= 1.0))
        return reject("--ratio must be in (0, 1]");
    if (!(scale.footprint > 0.0))
        return reject("--scale must be > 0");
    if (!(scale.iterations > 0.0))
        return reject("--iterations must be > 0");
    if (!std::has_single_bit(cfg.hopp.channels))
        return reject("--channels must be a power of two (1, 2, 4, ...)");
    if (workload_names.empty())
        workload_names.push_back("kmeans-omp");
    if (!trace_out.empty() || !trace_jsonl.empty())
        cfg.trace = true;
    if (!metrics_out.empty())
        cfg.metricsPeriod = metrics_period;
    // Host-side only: profiling changes no simulated behaviour, so
    // enabling it must leave every sim artifact byte-identical (the
    // profiler_on_off ctest holds us to that).
    if (!profile_out.empty())
        obs::prof::enable(true);

    Machine machine(cfg);
    for (std::size_t i = 0; i < workload_names.size(); ++i) {
        machine.addWorkload(workloads::makeWorkload(
            workload_names[i], scale, seed + i + 1));
    }
    RunResult r = machine.run();

    stats::Table table("hopp-run results");
    table.header({"app", "completion (ms)", "accesses", "faults"});
    for (const auto &app : r.apps) {
        table.row({app.name,
                   stats::Table::num(
                       toDouble(app.completion) / 1e6, 3),
                   std::to_string(app.accesses), ""});
    }
    table.print();

    std::printf("system=%s ratio=%.2f makespan=%.3f ms\n",
                systemName(cfg.system), cfg.localMemRatio,
                toDouble(r.makespan) / 1e6);
    std::printf("faults: %llu total (%llu cold, %llu remote, %llu"
                " swapcache hits, %llu inflight waits)\n",
                static_cast<unsigned long long>(r.vms.faults()),
                static_cast<unsigned long long>(r.vms.coldFaults),
                static_cast<unsigned long long>(r.vms.remoteFaults),
                static_cast<unsigned long long>(r.vms.swapCacheHits),
                static_cast<unsigned long long>(r.vms.inflightWaits));
    std::printf("prefetch: accuracy %.3f (system %.3f), coverage"
                " %.3f, DRAM-hit coverage %.3f\n",
                r.accuracy, r.systemAccuracy, r.coverage,
                r.dramHitCoverage);
    std::printf("remote: %llu demand reads, %llu prefetch reads,"
                " %llu writebacks\n",
                static_cast<unsigned long long>(r.demandRemote),
                static_cast<unsigned long long>(r.prefetchReads),
                static_cast<unsigned long long>(r.writebacks));

    if (dump_hopp) {
        if (auto *h = machine.hoppSystem())
            dumpHopp(*h);
        else
            std::puts("(no HoPP system in this configuration)");
    }
    if (dump_stats) {
        // stderr, so the table/summary lines above stay grep-stable
        // on stdout and the dump never interleaves with them.
        std::fputs("\n-- component statistics --\n", stderr);
        std::fputs(statsReport(machine).c_str(), stderr);
    }
    bool io_ok = true;
    if (!stats_json.empty())
        io_ok &= obs::writeFile(stats_json, statsJson(machine));
    if (!trace_out.empty()) {
        io_ok &= obs::writeFile(trace_out,
                                obs::toChromeJson(machine.tracer()));
    }
    if (!trace_jsonl.empty()) {
        io_ok &= obs::writeFile(trace_jsonl,
                                obs::toJsonl(machine.tracer()));
    }
    if (!metrics_out.empty()) {
        io_ok &= obs::writeFile(metrics_out,
                                machine.metricsSampler()->toCsv());
    }
    if (!profile_out.empty()) {
        io_ok &= obs::writeFile(profile_out,
                                obs::prof::toJson(obs::prof::collect()));
    }
    if (!blackbox_out.empty())
        io_ok &= machine.dumpForensics(blackbox_out);
    if (!mc_stats_json.empty()) {
        if (auto *h = machine.hoppSystem()) {
            io_ok &= obs::writeFile(
                mc_stats_json, core::mcSideStatsJson(h->pipeline()));
        } else {
            std::fprintf(stderr, "--mc-stats-json needs a hopp/"
                                 "hopp-only system\n");
            io_ok = false;
        }
    }
    if (!cfg.recordTracePath.empty() && !machine.traceRecordOk()) {
        std::fprintf(stderr, "trace recording to '%s' failed\n",
                     cfg.recordTracePath.c_str());
        io_ok = false;
    }
    return io_ok ? 0 : 1;
}

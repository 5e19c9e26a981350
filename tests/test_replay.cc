/**
 * @file
 * Record->replay fidelity tests (DESIGN.md §15): a live run recorded
 * through the MC tap and replayed through ReplayEngine must
 * reproduce the MC-side pipeline statistics byte for byte, for both
 * hopp system flavours; the error statuses of the reader propagate
 * through the engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "runner/machine.hh"
#include "runner/replay_engine.hh"

using namespace hopp;
using namespace hopp::runner;

namespace
{

/** Temp path unique to this process (tests may run in parallel). */
std::string
tmpPath(const char *stem)
{
    return std::string("replay_") + stem + "_" +
           std::to_string(::getpid()) + ".trc";
}

/** Run @p workload live with recording on; return its MC-side doc. */
std::string
recordLive(const std::string &workload, SystemKind sys,
           const std::string &trace_path, core::HoppConfig hopp = {})
{
    MachineConfig cfg;
    cfg.system = sys;
    cfg.hopp = hopp;
    cfg.recordTracePath = trace_path;
    workloads::WorkloadScale scale;
    scale.footprint = 0.1;
    scale.iterations = 0.3;
    Machine machine(cfg);
    machine.addWorkload(workloads::makeWorkload(workload, scale, 43));
    machine.run();
    EXPECT_TRUE(machine.traceRecordOk());
    return core::mcSideStatsJson(machine.hoppSystem()->pipeline());
}

/** A sink that drops every request. */
struct DropSink : core::PrefetchSink
{
    void request(Pid, Vpn, std::uint64_t, core::Tier, Tick) override {}
    unsigned
    requestBatch(Pid, Vpn, unsigned, std::uint64_t, core::Tier,
                 Tick) override
    {
        return 0;
    }
};

/** How a trainer with one tier mask answered the views it saw. */
struct TierCounts
{
    std::uint64_t predictions[core::tierCount] = {};
    std::uint64_t noPattern = 0;
};

/**
 * The tier decisions trainers with @p masks (no Markov tier) make on
 * the hot pages @p trace_path extracts, computed with nothing shared:
 * the trace drives a bare frontend whose event queue never runs, so
 * no drain or trainer does either; the hot pages are popped here in
 * extraction order, and every view goes through a fresh runThreeTier
 * per mask — no STT group, no tier memo.
 */
std::vector<TierCounts>
unsharedTierCounts(const std::string &trace_path,
                   const std::vector<unsigned> &masks)
{
    sim::EventQueue eq;
    mem::Dram dram(/*frames=*/1);
    core::PolicyEngine policy;
    DropSink sink;
    core::HotPagePipeline frontend(eq, dram, policy, sink, {});
    core::Stt stt;
    std::vector<TierCounts> counts(masks.size());
    trace::TraceReader reader;
    EXPECT_EQ(reader.open(trace_path), trace::TraceIoStatus::Ok);
    trace::ReplayRecord block[512];
    std::size_t n;
    while ((n = reader.nextBatch(block, std::size(block))) != 0) {
        for (std::size_t b = 0; b < n; ++b) {
            const trace::ReplayRecord &r = block[b];
            switch (r.kind) {
              case trace::ReplayKind::Mc:
                frontend.onMcAccess(r.pa, r.isWrite, r.tick);
                break;
              case trace::ReplayKind::PteInit:
                frontend.rpt().store(
                    r.ppn, core::RptEntry{r.pid, r.vpn, r.shared,
                                          static_cast<std::uint8_t>(
                                              r.huge ? 1 : 0)});
                break;
              case trace::ReplayKind::PteSet:
                frontend.onPteSet(r.pid, r.vpn, r.ppn, r.shared,
                                  r.huge, r.tick);
                break;
              case trace::ReplayKind::PteClear:
                frontend.onPteClear(r.pid, r.vpn, r.ppn, r.tick);
                break;
            }
            while (auto hp = frontend.ring().pop()) {
                auto view = stt.feed(hp->pid, hp->vpn);
                if (!view)
                    continue;
                for (std::size_t i = 0; i < masks.size(); ++i) {
                    auto p = core::runThreeTier(*view, masks[i]);
                    if (!p)
                        ++counts[i].noPattern;
                    else
                        ++counts[i].predictions[static_cast<unsigned>(
                            p->tier)];
                }
            }
        }
    }
    return counts;
}

/** Replay @p trace_path under @p hopp; return the MC-side doc. */
std::string
replayed(const std::string &trace_path, core::HoppConfig hopp = {})
{
    trace::TraceReader reader;
    EXPECT_EQ(reader.open(trace_path), trace::TraceIoStatus::Ok);
    ReplayConfig cfg;
    cfg.hopp = hopp;
    ReplayEngine engine(cfg);
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    EXPECT_GT(engine.result().records, 0u);
    EXPECT_GT(engine.result().mcAccesses, 0u);
    return engine.mcStatsJson();
}

} // namespace

TEST(Replay, ReproducesLiveMcStatsByteForByte)
{
    std::string path = tmpPath("kmeans");
    std::string live = recordLive("kmeans-omp", SystemKind::Hopp, path);
    EXPECT_EQ(live, replayed(path));
    std::remove(path.c_str());
}

TEST(Replay, ReproducesHoppOnlyWithMarkovAndChannels)
{
    // A second flavour: no fault-driven prefetcher feeding the VMS,
    // Markov tier on, two interleaved channels — the stats must still
    // match, because the pipeline input stream alone determines them.
    core::HoppConfig hopp;
    hopp.tierMask = core::tiers::all | core::tiers::markov;
    hopp.channels = 2;
    std::string path = tmpPath("hopponly");
    std::string live =
        recordLive("microbench", SystemKind::HoppOnly, path, hopp);
    EXPECT_EQ(live, replayed(path, hopp));
    std::remove(path.c_str());
}

TEST(Replay, OracleLedgerIsConsistent)
{
    std::string path = tmpPath("oracle");
    recordLive("kmeans-omp", SystemKind::Hopp, path);

    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    const ReplayResult &r = engine.result();
    // Every request is eventually classified, and nothing else is.
    EXPECT_EQ(r.used + r.late + r.unused, r.requested);
    EXPECT_LE(r.coveredPages, r.demandPages);
    EXPECT_GE(engine.result().records,
              r.mcAccesses + r.pteEvents);
    std::remove(path.c_str());
}

TEST(Replay, FanoutCellsMatchSoloReplays)
{
    // One shared-frontend pass over the trace must give every policy
    // cell the exact stats and oracle ledger a solo replay of that
    // cell produces — the fan-out is an optimization, not a model.
    // The cells cover what the fan-out shares: one tier memo serves
    // masks whose first answering tier differs; one Markov table
    // serves every Markov cell of a MarkovConfig, batching on or off;
    // and configs that differ in table geometry or in minCount get
    // tables of their own. graphx-cc has hot pages that each tier
    // answers first, and repeated irregular transitions the Markov
    // tier learns.
    std::string path = tmpPath("fanout");
    recordLive("graphx-cc", SystemKind::Hopp, path);

    using namespace core::tiers;
    std::vector<ReplayConfig> cells;
    auto add = [&cells](unsigned mask, bool batch = false) {
        ReplayConfig cfg;
        cfg.hopp.tierMask = mask;
        cfg.hopp.batch.enabled = batch;
        cells.push_back(cfg);
    };
    for (unsigned mask : {all, ssp, lsp, rsp, lsp | rsp})
        add(mask);
    const std::size_t first_markov = cells.size();
    add(all | markov);
    add(ssp | markov);
    add(lsp | rsp | markov, /*batch=*/true);
    // A 4-way, 64-set table evicts at this scale, so its predictions
    // differ from the default table's.
    add(all | markov);
    cells.back().hopp.markov.entries = 256;
    cells.back().hopp.markov.ways = 4;
    add(all | markov);
    cells.back().hopp.markov.minCount = 3;

    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine fanout(cells);
    ASSERT_EQ(fanout.run(reader), trace::TraceIoStatus::Ok);
    ASSERT_EQ(fanout.cells(), cells.size());
    // A Markov table that never predicts would leave its sharing
    // untested.
    EXPECT_GT(fanout.pipeline()
                  .trainer(first_markov)
                  .stats()
                  .predictions[static_cast<unsigned>(core::Tier::Mkv)],
              0u);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        trace::TraceReader solo_reader;
        ASSERT_EQ(solo_reader.open(path), trace::TraceIoStatus::Ok);
        ReplayEngine solo(cells[i]);
        ASSERT_EQ(solo.run(solo_reader), trace::TraceIoStatus::Ok);
        EXPECT_EQ(fanout.mcStatsJson(i), solo.mcStatsJson())
            << "cell " << i;
        EXPECT_EQ(fanout.oracleJson(i), solo.oracleJson())
            << "cell " << i;
    }

    // Solo replays share the tier memo's code with the fan-out, so a
    // memo answering from a stale view would match them. Without the
    // Markov tier a trainer's tier counters are its tier decisions
    // alone: check those against the unshared reference too.
    std::vector<unsigned> masks(first_markov);
    for (std::size_t i = 0; i < first_markov; ++i)
        masks[i] = cells[i].hopp.tierMask;
    std::vector<TierCounts> unshared = unsharedTierCounts(path, masks);
    for (std::size_t i = 0; i < first_markov; ++i) {
        const core::TrainerStats &st =
            fanout.pipeline().trainer(i).stats();
        for (unsigned t = 0; t < core::tierCount; ++t) {
            EXPECT_EQ(st.predictions[t], unshared[i].predictions[t])
                << "cell " << i << " tier " << t;
            // Each tier answers on its own somewhere in the trace, so
            // the memo is exercised past SSP.
            if (masks[i] == (1u << t)) {
                EXPECT_GT(st.predictions[t], 0u) << "tier " << t;
            }
        }
        EXPECT_EQ(st.noPattern, unshared[i].noPattern) << "cell " << i;
    }
    std::remove(path.c_str());
}

TEST(Replay, FanoutRejectsMixedHardwareConfigs)
{
    ReplayConfig a;
    ReplayConfig b;
    b.hopp.hpd.threshold = a.hopp.hpd.threshold * 2;
    std::vector<ReplayConfig> cells{a, b};
    EXPECT_DEATH(ReplayEngine{cells}, "hardware");
}

TEST(Replay, RunIsOnceOnly)
{
    std::string path = tmpPath("once");
    recordLive("microbench", SystemKind::Hopp, path);
    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    trace::TraceReader again;
    ASSERT_EQ(again.open(path), trace::TraceIoStatus::Ok);
    EXPECT_DEATH(engine.run(again), "once");
    std::remove(path.c_str());
}

TEST(Replay, MissingTracePropagatesOpenFailed)
{
    trace::TraceReader reader;
    EXPECT_EQ(reader.open("replay_no_such_file.trc"),
              trace::TraceIoStatus::OpenFailed);
    ReplayEngine engine;
    // A reader that failed to open yields nothing; the engine returns
    // the sticky status instead of inventing an empty-but-ok run.
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::OpenFailed);
    EXPECT_EQ(engine.result().records, 0u);
}

TEST(Replay, TruncatedTracePropagatesAndKeepsPrefix)
{
    std::string path = tmpPath("trunc");
    recordLive("microbench", SystemKind::Hopp, path);

    // Chop the file mid-block: the complete prefix still replays, the
    // status reports the damage.
    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(size, 64);
    ASSERT_EQ(::truncate(path.c_str(), size - 7), 0);

    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::Truncated);
    EXPECT_GT(engine.result().records, 0u);
    std::remove(path.c_str());
}

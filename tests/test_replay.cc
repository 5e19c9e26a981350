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
    std::string path = tmpPath("fanout");
    recordLive("kmeans-omp", SystemKind::Hopp, path);

    std::vector<ReplayConfig> cells;
    for (unsigned mask :
         {core::tiers::all, core::tiers::ssp, core::tiers::lsp,
          core::tiers::all | core::tiers::markov}) {
        ReplayConfig cfg;
        cfg.hopp.tierMask = mask;
        cells.push_back(cfg);
    }
    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine fanout(cells);
    ASSERT_EQ(fanout.run(reader), trace::TraceIoStatus::Ok);
    ASSERT_EQ(fanout.cells(), cells.size());

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

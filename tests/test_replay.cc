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
           const std::string &trace_path, core::HoppConfig hopp = {},
           workloads::WorkloadScale scale = {0.1, 0.3})
{
    MachineConfig cfg;
    cfg.system = sys;
    cfg.hopp = hopp;
    cfg.recordTracePath = trace_path;
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
              case trace::ReplayKind::PteSet:
                frontend.onPteSet(r.pid, r.vpn, r.ppn, r.tick);
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

/**
 * The 28-cell policy grid of the repository benchmark (perfbench's
 * replayGrid): cell 0 is the recorded configuration, the rest cross
 * every non-empty three-tier subset with the Markov tier and huge-batch
 * prefetching on/off.
 */
std::vector<ReplayConfig>
replayGrid()
{
    std::vector<ReplayConfig> cells;
    cells.emplace_back();
    const core::HoppConfig def;
    for (unsigned mask = 1; mask <= core::tiers::all; ++mask) {
        for (unsigned mkv : {0u, core::tiers::markov}) {
            for (bool batch : {false, true}) {
                if (mask == def.tierMask && mkv == 0 &&
                    batch == def.batch.enabled) {
                    continue; // cell 0 already covers it
                }
                ReplayConfig c;
                c.hopp.tierMask = mask | mkv;
                c.hopp.batch.enabled = batch;
                cells.push_back(c);
            }
        }
    }
    return cells;
}

/** FNV-1a-64 of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : text)
        h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
    return h;
}

/**
 * fnv1a(mcStatsJson(i) + oracleJson(i)) of every cell of replayGrid()
 * over a recordLive() trace of each workload (footprint 0.3,
 * iterations 0.5), in cell order. Recorded before the oracle ledger
 * moved to dense page ids. Regenerate only for an intended model
 * change (the test prints the replacement table) and say so in
 * CHANGES.md.
 */
struct GoldenGrid
{
    const char *workload;
    std::uint64_t cells[28];
};
const GoldenGrid kGoldenGrids[] = {
    {"npb-mg",
     {0xd39bae4502915135ull, 0x7250539513f5ef48ull,
      0xd5f314d0e71363b1ull, 0xf0d5bf32823fe44aull,
      0x9c3287030978f3c7ull, 0x3c5bb4b1cfa47bbbull,
      0x3c5bb4b1cfa47bbbull, 0xd59c781169c265c5ull,
      0xd59c781169c265c5ull, 0x58aa749eb2ae86d0ull,
      0x45bfef9cc3a4c78dull, 0x970fa53a7c233a7aull,
      0x10f6b2289442b740ull, 0x970bc0bfa059170aull,
      0x970bc0bfa059170aull, 0xd4638c2ef3a26c34ull,
      0xd4638c2ef3a26c34ull, 0x047bb367e10a9cafull,
      0x52f5e2e82e58206cull, 0x695cc9925a4acb91ull,
      0x089034a79701ecf7ull, 0x4e4947b83016446eull,
      0x4e4947b83016446eull, 0x03cb52f00da32927ull,
      0x03cb52f00da32927ull, 0x07fecd0f67c508dfull,
      0xc0945b2d8c73adb6ull, 0xde6a718420a459c8ull}},
    {"graphx-pr",
     {0x29cb0fee4647774full, 0xcefe0c12ad26c2a7ull,
      0x84e43e191206c89eull, 0xfa8d4839081cac51ull,
      0x8b73048608c1c1b5ull, 0x5d6ccd1ab8425917ull,
      0x5d6ccd1ab8425917ull, 0x1f77033e511da971ull,
      0x1f77033e511da971ull, 0xbb02032323b22a56ull,
      0xae2604639cbf3291ull, 0x5a9d255b3ef24abfull,
      0xf57f790c26a17447ull, 0xcdd727a92b85779aull,
      0xcdd727a92b85779aull, 0x4dfdaf037ff9e939ull,
      0x4dfdaf037ff9e939ull, 0x24431260c576b85bull,
      0xeba3459699f2627bull, 0x4b5ad6423674a32eull,
      0x79d4ad5e55409ae4ull, 0xf931ff582e7c3748ull,
      0xf931ff582e7c3748ull, 0x62549af5a9551badull,
      0x62549af5a9551badull, 0x2c5c253da99e0f39ull,
      0xc398fd7d564788bfull, 0xb22fd87278b2f8dfull}},
    {"microbench",
     {0xceeb719d6d70d2fbull, 0xceeb719d6d70d2fbull,
      0xb86706e37e2f1571ull, 0x4ab30ff743c29a0full,
      0x63e4ca15c3362907ull, 0x534f91a592e778dbull,
      0x534f91a592e778dbull, 0x1f0adbfc21eb5cfeull,
      0x1f0adbfc21eb5cfeull, 0xceeb719d6d70d2fbull,
      0xb86706e37e2f1571ull, 0x4ab30ff743c29a0full,
      0x63e4ca15c3362907ull, 0x34022246e4ac7b9bull,
      0x34022246e4ac7b9bull, 0x8d8e4b37698acaafull,
      0x8d8e4b37698acaafull, 0xceeb719d6d70d2fbull,
      0xb86706e37e2f1571ull, 0x4ab30ff743c29a0full,
      0x63e4ca15c3362907ull, 0x19d8c590cb08d8e1ull,
      0x19d8c590cb08d8e1ull, 0xcb65e7f6dbfec04dull,
      0xcb65e7f6dbfec04dull, 0xb86706e37e2f1571ull,
      0x4ab30ff743c29a0full, 0x63e4ca15c3362907ull}},
};

/** One MC access to line @p line of frame @p ppn. */
trace::ReplayRecord
mcRead(Ppn ppn, unsigned line, Tick tick)
{
    trace::ReplayRecord r;
    r.kind = trace::ReplayKind::Mc;
    r.pa = pageBase(ppn) + line * lineBytes;
    r.tick = tick;
    return r;
}

/** One PTE record of @p kind mapping (pid 1, @p vpn) to @p ppn. */
trace::ReplayRecord
pte(trace::ReplayKind kind, Vpn vpn, Ppn ppn, Tick tick)
{
    trace::ReplayRecord r;
    r.kind = kind;
    r.pid = Pid{1};
    r.vpn = vpn;
    r.ppn = ppn;
    r.tick = tick;
    return r;
}

/** How the hand-built trace of FrameRemapCountsTowardTheNewPage ends. */
enum class RemapEnd
{
    NoRead,    //!< frame cleared and remapped, never read again
    Read,      //!< frame cleared, remapped, then read
    ClearRead, //!< frame cleared, not remapped, then read
};

/** Stream length of replayRemap(): past SttConfig::historyLen. */
constexpr std::uint64_t remapStreamPages = 24;

/**
 * Replay a hand-built trace: frame 900 holds page 5000 and is read
 * once; a sequential stream over pages 1000..1023 (frames 10..33) goes
 * hot, so the trainer predicts the pages after it; then frame 900 is
 * cleared and, unless @p end is ClearRead, mapped to page 1024, and
 * read once more unless @p end is NoRead.
 */
ReplayResult
replayRemap(RemapEnd end)
{
    using trace::ReplayKind;
    const std::string path =
        tmpPath(end == RemapEnd::NoRead  ? "remap_noread"
                : end == RemapEnd::Read ? "remap_read"
                                        : "remap_clearread");
    const Ppn frame{900};
    const Vpn old_page{5000};
    const Vpn new_page{1000 + remapStreamPages};
    {
        trace::TraceWriter w(path);
        Tick t{0};
        for (std::uint64_t i = 0; i < remapStreamPages; ++i)
            w.append(pte(ReplayKind::PteSet, Vpn{1000 + i}, Ppn{10 + i}, t));
        w.append(pte(ReplayKind::PteSet, old_page, frame, t));
        w.append(mcRead(frame, 0, t += 100));
        for (std::uint64_t i = 0; i < remapStreamPages; ++i) {
            // Eight reads make a page hot (HpdConfig::threshold); the
            // gap lets each trainer drain run before the next page.
            for (unsigned line = 0; line < 8; ++line)
                w.append(mcRead(Ppn{10 + i}, line, t += 100));
            t += 2'000;
        }
        w.append(pte(ReplayKind::PteClear, old_page, frame, t += 1'000));
        if (end != RemapEnd::ClearRead)
            w.append(pte(ReplayKind::PteSet, new_page, frame, t += 1'000));
        // Past the modeled arrival, inside the use window.
        if (end != RemapEnd::NoRead)
            w.append(mcRead(frame, 1, t += 20'000));
        EXPECT_TRUE(w.finish());
    }
    trace::TraceReader reader;
    EXPECT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    std::remove(path.c_str());
    return engine.result();
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

TEST(Replay, FanoutGridMatchesRecordedDigests)
{
    // kGoldenRuns pins the live stats, and replay cell 0 is checked
    // against the live MC-side document, but nothing else pins the
    // oracle ledger of a fan-out: FanoutCellsMatchSoloReplays compares
    // cells with solo replays that run the same ledger code. This pins
    // every cell of the benchmark's grid on three recordings.
    const std::vector<ReplayConfig> grid = replayGrid();
    ASSERT_EQ(grid.size(), std::size(kGoldenGrids[0].cells));
    const char *workloads[] = {"npb-mg", "graphx-pr", "microbench"};
    std::string table;
    bool mismatch = std::size(kGoldenGrids) != std::size(workloads);
    for (std::size_t w = 0; w < std::size(workloads); ++w) {
        SCOPED_TRACE(workloads[w]);
        std::string path = tmpPath("grid");
        recordLive(workloads[w], SystemKind::Hopp, path, {}, {0.3, 0.5});
        trace::TraceReader reader;
        ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
        ReplayEngine engine(grid);
        ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
        std::remove(path.c_str());
        EXPECT_GT(engine.result(0).requested, 0u);
        EXPECT_GT(engine.result(0).coveredPages, 0u);
        table += std::string("    {\"") + workloads[w] + "\",\n     {";
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const std::uint64_t digest =
                fnv1a(engine.mcStatsJson(i) + engine.oracleJson(i));
            char hex[32];
            std::snprintf(hex, sizeof hex, "%s0x%016llxull",
                          i == 0 ? "" : i % 2 ? ", " : ",\n      ",
                          static_cast<unsigned long long>(digest));
            table += hex;
            mismatch |=
                w >= std::size(kGoldenGrids) ||
                kGoldenGrids[w].workload != std::string(workloads[w]) ||
                kGoldenGrids[w].cells[i] != digest;
        }
        table += "}},\n";
    }
    EXPECT_FALSE(mismatch)
        << "a replay document moved; if the model change is intended, "
           "replace kGoldenGrids with:\n"
        << table;
}

TEST(Replay, FrameRemapCountsTowardTheNewPage)
{
    // A frame cleared and then mapped to another page: later demand
    // reads of that frame belong to the new page. The old page was
    // already demanded, so a read resolved through a stale mapping
    // would add neither a demand page nor a covered one.
    const ReplayResult no_read = replayRemap(RemapEnd::NoRead);
    const ReplayResult read = replayRemap(RemapEnd::Read);
    const ReplayResult clear_read = replayRemap(RemapEnd::ClearRead);
    // The stream pages, the old page; the trainer predicted the page
    // after the stream, which is the page the frame now holds.
    EXPECT_EQ(no_read.demandPages, remapStreamPages + 1);
    EXPECT_GT(no_read.requested, 0u);
    EXPECT_EQ(read.demandPages, no_read.demandPages + 1);
    EXPECT_EQ(read.coveredPages, no_read.coveredPages + 1);
    EXPECT_EQ(read.used, no_read.used + 1);
    EXPECT_EQ(read.unused + 1, no_read.unused);
    // A cleared frame that nothing remapped resolves to no page.
    EXPECT_EQ(clear_read.demandPages, no_read.demandPages);
    EXPECT_EQ(clear_read.coveredPages, no_read.coveredPages);
    EXPECT_EQ(clear_read.used, no_read.used);
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

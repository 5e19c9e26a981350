/**
 * @file
 * End-to-end machine tests: every system runs every (tiny) workload to
 * completion; the qualitative ordering the paper reports holds on the
 * pattern-friendly workloads; multi-application runs isolate cgroups.
 */

#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "runner/machine.hh"
#include "runner/replay_engine.hh"
#include "runner/stats_report.hh"

using namespace hopp;
using namespace hopp::runner;
using hopp::workloads::WorkloadScale;

namespace
{

WorkloadScale
tiny()
{
    WorkloadScale s;
    s.footprint = 0.08;
    s.iterations = 0.3;
    return s;
}

/** FNV-1a-64 of a run's stats document and makespan. */
std::uint64_t
runDigest(const std::string &stats, Tick makespan)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](unsigned char byte) {
        h = (h ^ byte) * 0x100000001b3ull;
    };
    for (char ch : stats)
        mix(static_cast<unsigned char>(ch));
    for (int i = 0; i < 8; ++i)
        mix(static_cast<unsigned char>(makespan.raw() >> (8 * i)));
    return h;
}

/** Replay @p path through a one-cell ReplayEngine; its MC-side doc. */
std::string
replayMcStats(const std::string &path, const core::HoppConfig &hopp)
{
    trace::TraceReader reader;
    EXPECT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayConfig cfg;
    cfg.hopp = hopp;
    ReplayEngine engine(cfg);
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    return engine.mcStatsJson();
}

/**
 * runDigest() of every TlbOnOffIdenticalOnEveryWorkload case at
 * tiny(), in case order. Regenerate only for an intended model change
 * (the test prints the replacement table) and say so in CHANGES.md.
 */
struct GoldenRun
{
    const char *label;
    std::uint64_t digest;
};
const GoldenRun kGoldenRuns[] = {
    {"kmeans-omp/hopp", 0x9765352bf2cc94c5ull},
    {"kmeans-omp/fastswap", 0x8ac35f7512efed9eull},
    {"kmeans-omp/leap", 0xf6b24ebe258cba24ull},
    {"quicksort/hopp", 0x7c92e22a6b60bdd5ull},
    {"quicksort/fastswap", 0x96939579357aebf3ull},
    {"quicksort/leap", 0x3e0e36d26ad99f03ull},
    {"hpl/hopp", 0xdb0b24a555421535ull},
    {"hpl/fastswap", 0x8a63fca37ad6f8a9ull},
    {"hpl/leap", 0x8a63fca37ad6f8a9ull},
    {"npb-cg/hopp", 0xf934c6fb8fec06f8ull},
    {"npb-cg/fastswap", 0x144aaac783d86269ull},
    {"npb-cg/leap", 0x484fab57284dc1fcull},
    {"npb-ft/hopp", 0x5b0899e5175cff4full},
    {"npb-ft/fastswap", 0xa90d15d99e493664ull},
    {"npb-ft/leap", 0xa90d15d99e493664ull},
    {"npb-lu/hopp", 0x99610c3e5c5a53afull},
    {"npb-lu/fastswap", 0xebfebb3d64502a3bull},
    {"npb-lu/leap", 0xebfebb3d64502a3bull},
    {"npb-mg/hopp", 0xae28aa244282cecbull},
    {"npb-mg/fastswap", 0x55359408546a7d4bull},
    {"npb-mg/leap", 0x9c68acb81ed2382dull},
    {"npb-is/hopp", 0xd92bf7b73670b5f5ull},
    {"npb-is/fastswap", 0x51df847a223f60cfull},
    {"npb-is/leap", 0x7b16486c13277d8bull},
    {"graphx-pr/hopp", 0xe39a1993fc1bccb4ull},
    {"graphx-pr/fastswap", 0xebf6db169ff0a009ull},
    {"graphx-pr/leap", 0x9cd1b8b07df20c38ull},
    {"graphx-cc/hopp", 0xc775c70bdf7c4fe3ull},
    {"graphx-cc/fastswap", 0x4083639444ff8486ull},
    {"graphx-cc/leap", 0xb191ffba92f3955bull},
    {"graphx-bfs/hopp", 0xb7ffb39b30a1c2acull},
    {"graphx-bfs/fastswap", 0xcd859992f4bc17abull},
    {"graphx-bfs/leap", 0x9c3c0725c5dfcca1ull},
    {"graphx-lp/hopp", 0x81471ee26bf17ddcull},
    {"graphx-lp/fastswap", 0x64e3bfd3764bfdd9ull},
    {"graphx-lp/leap", 0xca9fd6e4cd4c2369ull},
    {"spark-kmeans/hopp", 0x52e15a00cbb59092ull},
    {"spark-kmeans/fastswap", 0x85a64eddd2febc03ull},
    {"spark-kmeans/leap", 0x85a64eddd2febc03ull},
    {"spark-bayes/hopp", 0xf9af0115882fb664ull},
    {"spark-bayes/fastswap", 0x81a7ad90f1bb9c8eull},
    {"spark-bayes/leap", 0x97825c5187d68f61ull},
    {"microbench/hopp", 0x2cf1308f586fba9dull},
    {"microbench/fastswap", 0x860fdd04e78ec3d3ull},
    {"microbench/leap", 0x61d43769be8037edull},
    {"linkedlist/hopp", 0x28e3a76601f8bd3full},
    {"linkedlist/fastswap", 0xd12007080b6ef3f7ull},
    {"linkedlist/leap", 0xcfaf329e68e4e7c7ull},
    {"graphx-pr/hopp channels=4", 0x4638aed1c0ac45dbull},
    {"graphx-cc/hopp markov+batch", 0x96223d1173cc70bcull},
    {"graphx-pr/hopp hpd ways=64", 0xdbe32ba4b40dc51full},
};

} // namespace

TEST(Machine, AllSystemsCompleteKmeans)
{
    for (auto sys : {SystemKind::Local, SystemKind::NoPrefetch,
                     SystemKind::Fastswap, SystemKind::Leap,
                     SystemKind::Vma, SystemKind::DepthN,
                     SystemKind::Hopp, SystemKind::HoppOnly}) {
        auto r = runOne("kmeans-omp", sys, 0.5, tiny());
        EXPECT_GT(r.makespan, Tick{}) << systemName(sys);
        EXPECT_GT(r.vms.accesses, 1000u) << systemName(sys);
        ASSERT_EQ(r.apps.size(), 1u);
        EXPECT_EQ(r.apps[0].completion, r.makespan);
    }
}

TEST(Machine, AccessCountIndependentOfSystem)
{
    auto a = runOne("quicksort", SystemKind::Local, 0.5, tiny());
    auto b = runOne("quicksort", SystemKind::Hopp, 0.5, tiny());
    EXPECT_EQ(a.vms.accesses, b.vms.accesses)
        << "the system must not change the executed workload";
}

TEST(Machine, LocalIsFastestAndFaultsAreCold)
{
    auto local = runOne("kmeans-omp", SystemKind::Local, 0.5, tiny());
    EXPECT_EQ(local.vms.remoteFaults, 0u);
    EXPECT_EQ(local.demandRemote, 0u);
    auto fs = runOne("kmeans-omp", SystemKind::Fastswap, 0.5, tiny());
    EXPECT_LT(local.makespan, fs.makespan);
}

TEST(Machine, PrefetchingBeatsNoPrefetchOnStreams)
{
    auto none =
        runOne("kmeans-omp", SystemKind::NoPrefetch, 0.5, tiny());
    auto fs = runOne("kmeans-omp", SystemKind::Fastswap, 0.5, tiny());
    EXPECT_LT(fs.makespan, none.makespan);
    EXPECT_GT(fs.coverage, 0.5);
}

TEST(Machine, HoppBeatsFastswapOnStreams)
{
    auto fs = runOne("kmeans-omp", SystemKind::Fastswap, 0.5, tiny());
    auto hp = runOne("kmeans-omp", SystemKind::Hopp, 0.5, tiny());
    EXPECT_LT(hp.makespan, fs.makespan);
    EXPECT_GT(hp.dramHitCoverage, 0.3);
    EXPECT_LT(hp.vms.faults(), fs.vms.faults());
}

TEST(Machine, HoppAccuracyAndCoverageHighOnSimpleStreams)
{
    // At this tiny scale end-of-region overshoot weighs more than in
    // the full-size benches (which assert the paper's > 0.9).
    auto hp = runOne("kmeans-omp", SystemKind::Hopp, 0.5, tiny());
    EXPECT_GT(hp.accuracy, 0.8);
    EXPECT_GT(hp.coverage, 0.85);
}

TEST(Machine, TighterMemoryHurtsEveryone)
{
    auto half = runOne("quicksort", SystemKind::Fastswap, 0.5, tiny());
    auto quarter =
        runOne("quicksort", SystemKind::Fastswap, 0.25, tiny());
    EXPECT_GT(quarter.makespan, half.makespan);
}

TEST(Machine, MultiAppRunsIsolateCgroups)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("kmeans-omp", tiny(), 1));
    m.addWorkload(workloads::makeWorkload("quicksort", tiny(), 2));
    auto r = m.run();
    ASSERT_EQ(r.apps.size(), 2u);
    EXPECT_EQ(r.apps[0].name, "kmeans-omp");
    EXPECT_EQ(r.apps[1].name, "quicksort");
    EXPECT_GT(r.completionOf("kmeans-omp"), Tick{});
    EXPECT_GT(r.completionOf("quicksort"), Tick{});
    // Both cgroups stayed within their limits.
    EXPECT_LE(m.vms().cgroup(Pid{1}).charged(),
              m.vms().cgroup(Pid{1}).limit());
    EXPECT_LE(m.vms().cgroup(Pid{2}).charged(),
              m.vms().cgroup(Pid{2}).limit());
}

TEST(Machine, HoppSystemExposedOnlyForHoppKinds)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Fastswap;
    Machine m1(cfg);
    m1.addWorkload(workloads::makeWorkload("hpl", tiny()));
    m1.run();
    EXPECT_EQ(m1.hoppSystem(), nullptr);

    cfg.system = SystemKind::HoppOnly;
    Machine m2(cfg);
    m2.addWorkload(workloads::makeWorkload("hpl", tiny()));
    m2.run();
    ASSERT_NE(m2.hoppSystem(), nullptr);
    EXPECT_GT(m2.hoppSystem()->hpd().stats().reads, 0u);
}

TEST(Machine, NormalizedPerformanceHelper)
{
    EXPECT_DOUBLE_EQ(normalizedPerformance(Tick{50}, Tick{100}), 0.5);
    EXPECT_DOUBLE_EQ(normalizedPerformance(Tick{100}, Tick{100}), 1.0);
}

TEST(Machine, CompletionOfUnknownAppDies)
{
    auto r = runOne("hpl", SystemKind::Local, 0.5, tiny());
    EXPECT_DEATH((void)r.completionOf("nope"), "no app named");
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto a = runOne("npb-mg", SystemKind::Hopp, 0.5, tiny());
    auto b = runOne("npb-mg", SystemKind::Hopp, 0.5, tiny());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.vms.faults(), b.vms.faults());
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Machine, TlbOnOffIdenticalOnEveryWorkload)
{
    // The software TLB is an accelerator and the trace recorder an
    // observer, neither a model: on every workload under every main
    // system, turning the TLB off or recording on must leave the stats
    // document byte-identical and the makespan unchanged. Every access
    // resolves to exactly one LLC hit or miss, and the fault classes
    // can never outnumber the accesses. Where a HoPP pipeline runs,
    // replaying the recorded trace must reproduce its MC-side stats
    // byte for byte. Each run's digest must also match kGoldenRuns, so
    // a host-side rewrite that moves the model identically in every
    // mode still fails here.
    struct Mode
    {
        const char *name;
        bool tlb, record;
    };
    const Mode modes[] = {
        {"baseline", true, false},
        {"tlb off", false, false},
        {"recording on", true, true},
    };
    const std::string trace =
        "machine_identity_" + std::to_string(::getpid()) + ".trc";
    std::vector<std::string> names = workloads::knownWorkloadNames();
    ASSERT_EQ(names.size(), 16u);
    struct Case
    {
        std::string label, workload;
        MachineConfig cfg;
    };
    std::vector<Case> cases;
    for (const auto &name : names) {
        for (auto sys :
             {SystemKind::Hopp, SystemKind::Fastswap, SystemKind::Leap}) {
            MachineConfig cfg;
            cfg.system = sys;
            cases.push_back({name + "/" + systemName(sys), name, cfg});
        }
    }
    // HoPP variants reaching the other set-associative tables: per-
    // channel HPDs and RPT caches, the Markov table, 64-way HPD sets.
    MachineConfig hopp;
    hopp.system = SystemKind::Hopp;
    cases.push_back({"graphx-pr/hopp channels=4", "graphx-pr", hopp});
    cases.back().cfg.hopp.channels = 4;
    cases.push_back({"graphx-cc/hopp markov+batch", "graphx-cc", hopp});
    cases.back().cfg.hopp.tierMask |= core::tiers::markov;
    cases.back().cfg.hopp.batch.enabled = true;
    cases.push_back({"graphx-pr/hopp hpd ways=64", "graphx-pr", hopp});
    cases.back().cfg.hopp.hpd.ways = 64;

    std::string table;
    bool mismatch = false;
    unsigned replayed = 0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE(cases[c].label);
        std::string stats[3];
        Tick makespan[3];
        for (int k = 0; k < 3; ++k) {
            MachineConfig cfg = cases[c].cfg;
            cfg.tlb = modes[k].tlb;
            if (modes[k].record)
                cfg.recordTracePath = trace;
            Machine m(cfg);
            m.addWorkload(workloads::makeWorkload(cases[c].workload, tiny()));
            RunResult r = m.run();
            if (modes[k].record) {
                EXPECT_TRUE(m.traceRecordOk());
                if (core::HoppSystem *h = m.hoppSystem()) {
                    EXPECT_EQ(replayMcStats(trace, cfg.hopp),
                              core::mcSideStatsJson(h->pipeline()));
                    ++replayed;
                }
            }
            const vm::VmsStats &v = r.vms;
            EXPECT_EQ(v.accesses, v.llcHits + v.llcMisses)
                << modes[k].name;
            EXPECT_LE(v.faults(), v.accesses) << modes[k].name;
            EXPECT_GT(v.accesses, 0u);
            stats[k] = statsJson(m);
            makespan[k] = r.makespan;
        }
        for (int k = 1; k < 3; ++k) {
            EXPECT_EQ(stats[0], stats[k]) << modes[k].name;
            EXPECT_EQ(makespan[0], makespan[k]) << modes[k].name;
        }
        const std::uint64_t digest = runDigest(stats[0], makespan[0]);
        char row[128];
        std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxull},\n",
                      cases[c].label.c_str(),
                      static_cast<unsigned long long>(digest));
        table += row;
        mismatch |= c >= std::size(kGoldenRuns) ||
                    cases[c].label != kGoldenRuns[c].label ||
                    digest != kGoldenRuns[c].digest;
    }
    std::remove(trace.c_str());
    EXPECT_EQ(replayed, 19u);
    mismatch |= cases.size() != std::size(kGoldenRuns);
    EXPECT_FALSE(mismatch)
        << "simulated output moved; if the model change is intended, "
           "replace kGoldenRuns with:\n"
        << table;
}

TEST(Machine, ManyWorkloadsRescheduleSafely)
{
    // Regression for the step() self-reschedule: with many workloads
    // the threads_ container grows well past its initial capacity
    // while step closures for early threads are already in flight;
    // index capture must survive that (a Thread& capture relied on
    // pointer stability of the container's elements).
    WorkloadScale s;
    s.footprint = 0.05;
    s.iterations = 0.1;
    MachineConfig cfg;
    cfg.system = SystemKind::Fastswap;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    constexpr int apps = 12; // every configured workload name, plus
                             // repeats: the densest supported machine
    const char *names[] = {"microbench", "linkedlist", "kmeans-omp",
                           "quicksort",  "hpl",        "npb-cg"};
    for (int i = 0; i < apps; ++i)
        m.addWorkload(workloads::makeWorkload(names[i % 6], s));
    auto r = m.run();
    ASSERT_EQ(r.apps.size(), static_cast<std::size_t>(apps));
    for (const auto &a : r.apps) {
        EXPECT_GT(a.accesses, 0u) << a.name;
        EXPECT_GT(a.completion, Tick{}) << a.name;
    }
    EXPECT_EQ(r.vms.accesses, r.vms.llcHits + r.vms.llcMisses);
}

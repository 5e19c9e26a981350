/**
 * @file
 * End-to-end machine tests: every system runs every (tiny) workload to
 * completion; the qualitative ordering the paper reports holds on the
 * pattern-friendly workloads; multi-application runs isolate cgroups.
 */

#include <gtest/gtest.h>

#include "runner/machine.hh"
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
    // The software TLB is an accelerator, not a model: on every
    // workload under every main system, turning it off must leave the
    // stats document byte-identical and the makespan unchanged. Every
    // access resolves to exactly one LLC hit or miss, and the fault
    // classes can never outnumber the accesses.
    std::vector<std::string> names = workloads::allWorkloadNames();
    names.push_back("microbench");
    names.push_back("linkedlist");
    ASSERT_EQ(names.size(), 16u);
    for (const auto &name : names) {
        for (auto sys :
             {SystemKind::Hopp, SystemKind::Fastswap, SystemKind::Leap}) {
            SCOPED_TRACE(name + " / " + systemName(sys));
            std::string stats[2];
            Tick makespan[2];
            for (bool tlb : {false, true}) {
                MachineConfig cfg;
                cfg.system = sys;
                cfg.tlb = tlb;
                Machine m(cfg);
                m.addWorkload(workloads::makeWorkload(name, tiny()));
                RunResult r = m.run();
                const vm::VmsStats &v = r.vms;
                EXPECT_EQ(v.accesses, v.llcHits + v.llcMisses)
                    << "tlb=" << tlb;
                EXPECT_LE(v.faults(), v.accesses) << "tlb=" << tlb;
                EXPECT_GT(v.accesses, 0u);
                stats[tlb] = statsJson(m);
                makespan[tlb] = r.makespan;
            }
            EXPECT_EQ(stats[false], stats[true]);
            EXPECT_EQ(makespan[false], makespan[true]);
        }
    }
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

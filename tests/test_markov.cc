/**
 * @file
 * Unit + integration tests for the correlation (Markov) tier: table
 * training/prediction, chain walking, replacement, and end-to-end
 * coverage of pointer-chasing workloads that stride tiers cannot see.
 */

#include <gtest/gtest.h>

#include "hopp/markov.hh"
#include "runner/machine.hh"

using namespace hopp;
using namespace hopp::core;
using namespace hopp::runner;

TEST(MarkovTable, PredictsAfterMinCountObservations)
{
    MarkovTable t;
    t.train(Pid{1}, Vpn{10}, Vpn{77});
    EXPECT_TRUE(t.predict(Pid{1}, Vpn{10}, 2).empty()) << "one observation is noise";
    t.train(Pid{1}, Vpn{10}, Vpn{77});
    auto p = t.predict(Pid{1}, Vpn{10}, 2);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p[0], Vpn{77});
}

TEST(MarkovTable, ChainsDominantSuccessors)
{
    MarkovTable t;
    // 10 -> 20 -> 30 -> 40, seen twice each.
    for (int i = 0; i < 2; ++i) {
        t.train(Pid{1}, Vpn{10}, Vpn{20});
        t.train(Pid{1}, Vpn{20}, Vpn{30});
        t.train(Pid{1}, Vpn{30}, Vpn{40});
    }
    auto p = t.predict(Pid{1}, Vpn{10}, /*depth=*/3);
    ASSERT_GE(p.size(), 3u);
    EXPECT_EQ(p[0], Vpn{20});
    EXPECT_EQ(p[1], Vpn{30});
    EXPECT_EQ(p[2], Vpn{40});
}

TEST(MarkovTable, KeepsTwoSuccessorsAndPrefersDominant)
{
    MarkovTable t;
    for (int i = 0; i < 5; ++i)
        t.train(Pid{1}, Vpn{10}, Vpn{20});
    for (int i = 0; i < 2; ++i)
        t.train(Pid{1}, Vpn{10}, Vpn{99});
    auto p = t.predict(Pid{1}, Vpn{10}, 1);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], Vpn{20}); // slot order: dominant first
}

TEST(MarkovTable, WeakSuccessorDisplacedByFrequencyDecay)
{
    MarkovTable t;
    t.train(Pid{1}, Vpn{10}, Vpn{20});
    t.train(Pid{1}, Vpn{10}, Vpn{21});
    // A third successor decays and eventually displaces a weak slot.
    t.train(Pid{1}, Vpn{10}, Vpn{22}); // decays one slot to 0? (count 1 -> 0, replaced)
    t.train(Pid{1}, Vpn{10}, Vpn{22});
    t.train(Pid{1}, Vpn{10}, Vpn{22});
    auto p = t.predict(Pid{1}, Vpn{10}, 1);
    bool has22 = false;
    for (Vpn v : p)
        has22 |= v == Vpn{22};
    EXPECT_TRUE(has22);
}

TEST(MarkovTable, PidsAreIndependent)
{
    MarkovTable t;
    t.train(Pid{1}, Vpn{10}, Vpn{20});
    t.train(Pid{1}, Vpn{10}, Vpn{20});
    EXPECT_FALSE(t.predict(Pid{1}, Vpn{10}, 2).empty());
    EXPECT_TRUE(t.predict(Pid{2}, Vpn{10}, 2).empty());
}

TEST(MarkovTable, CapacityBoundedByConfig)
{
    MarkovConfig cfg;
    cfg.entries = 64;
    cfg.ways = 8;
    MarkovTable t(cfg);
    for (std::uint64_t v = 0; v < 1000; ++v) {
        t.train(Pid{1}, Vpn{v}, Vpn{v + 1});
        t.train(Pid{1}, Vpn{v}, Vpn{v + 1});
    }
    EXPECT_LE(t.size(), 64u);
}

TEST(MarkovIntegration, CoversPointerChasingThatTiersCannot)
{
    workloads::WorkloadScale scale{0.2, 0.6};

    MachineConfig base;
    base.system = SystemKind::Hopp;
    base.localMemRatio = 0.5;

    // Without the correlation tier: the permutation walk is invisible.
    Machine off(base);
    off.addWorkload(workloads::makeWorkload("linkedlist", scale));
    auto r_off = off.run();

    MachineConfig mk = base;
    mk.hopp.tierMask = core::tiers::all | core::tiers::markov;
    Machine on(mk);
    on.addWorkload(workloads::makeWorkload("linkedlist", scale));
    auto r_on = on.run();

    const auto &ts = on.hoppSystem()->exec().tierStats(Tier::Mkv);
    EXPECT_GT(ts.issued, 100u);
    EXPECT_GT(ts.accuracy(), 0.8);
    EXPECT_GT(r_on.dramHitCoverage, r_off.dramHitCoverage + 0.1)
        << "the correlation tier must add real coverage";
    EXPECT_LT(r_on.makespan, r_off.makespan);
}

TEST(MarkovIntegration, DisabledByDefault)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(
        workloads::makeWorkload("linkedlist", {0.1, 0.3}));
    m.run();
    EXPECT_EQ(m.hoppSystem()->exec().tierStats(Tier::Mkv).issued, 0u);
}

TEST(MarkovIntegration, HarmlessOnPureStreams)
{
    // On K-means the stride tiers cover everything; the correlation
    // tier must not degrade accuracy.
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    cfg.hopp.tierMask = core::tiers::all | core::tiers::markov;
    Machine m(cfg);
    m.addWorkload(
        workloads::makeWorkload("kmeans-omp", {0.15, 0.4}));
    auto r = m.run();
    EXPECT_GT(r.systemAccuracy, 0.85);
}

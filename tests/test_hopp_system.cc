/**
 * @file
 * Integration tests for the complete HoPP system (Figure 4): the
 * hardware tap -> HPD -> RPT cache -> hot-page ring -> trainer ->
 * policy -> exec -> early PTE injection pipeline, end to end on a
 * hand-driven machine.
 */

#include <gtest/gtest.h>

#include "hopp/hopp_system.hh"
#include "prefetch/stats.hh"

using namespace hopp;
using namespace hopp::core;

namespace
{

/** A hand-wired single-process machine with a HoPP system. */
struct Rig
{
    static constexpr Pid pid{1};

    explicit Rig(std::uint64_t limit = 64)
    {
        vm::VmsConfig vcfg;
        vcfg.kswapdEnabled = false;
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(limit + 64);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        // Tiny LLC so page streams miss and reach the MC.
        llc = std::make_unique<mem::Llc>(mem::LlcConfig{16 << 10, 4});
        fabric =
            std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 16);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<vm::Vms>(*eq, *dram, *mc, *llc, *backend,
                                        vcfg);
        vms->addListener(&pstats);
        vms->createProcess(pid, limit);
        HoppConfig hcfg;
        hcfg.trainerDelay = 100;
        hopp = std::make_unique<HoppSystem>(*eq, *vms, *mc, hcfg);
    }

    /** Stream all 64 lines of pages [first, last] in order. */
    Tick
    streamPages(Vpn first, Vpn last, Tick t)
    {
        for (Vpn v = first; v <= last; ++v) {
            for (unsigned line = 0; line < 64; ++line) {
                t += vms->access(pid,
                                 pageBase(v) + line * lineBytes, false,
                                 t);
                eq->runUntil(t);
            }
        }
        return t;
    }

    std::unique_ptr<sim::EventQueue> eq;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::MemCtrl> mc;
    std::unique_ptr<mem::Llc> llc;
    std::unique_ptr<net::RdmaFabric> fabric;
    std::unique_ptr<remote::RemoteNode> node;
    std::unique_ptr<remote::SwapBackend> backend;
    std::unique_ptr<vm::Vms> vms;
    std::unique_ptr<HoppSystem> hopp;
    prefetch::PrefetchStats pstats;
};

class HoppSystemTest : public ::testing::Test
{
  protected:
    Rig rig;
};

} // namespace

TEST_F(HoppSystemTest, InitialRptBuildCoversPresentPages)
{
    // Map a few pages before starting HoPP.
    Tick t{};
    for (std::uint64_t v = 0; v < 8; ++v)
        t += rig.vms->access(Rig::pid, pageBase(Vpn{v}), false, t);
    rig.hopp->start();
    EXPECT_EQ(rig.hopp->rpt().size(), 8u);
}

TEST_F(HoppSystemTest, HotPagesFlowThroughThePipeline)
{
    rig.hopp->start();
    rig.streamPages(Vpn{0}, Vpn{31}, Tick{});
    EXPECT_GT(rig.hopp->hpd().stats().hotPages, 20u);
    EXPECT_GT(rig.hopp->trainer().stats().hotPages, 20u);
    EXPECT_EQ(rig.hopp->unmappedHotPages(), 0u)
        << "PTE hooks must keep the RPT cache fresh";
}

TEST_F(HoppSystemTest, SequentialStreamTriggersInjections)
{
    rig.hopp->start();
    // Pass 1: cold-faults 128 pages into a 64-frame cgroup; the early
    // half is swapped out. Pass 2 re-streams: HoPP must identify the
    // stream and inject ahead.
    Tick t = rig.streamPages(Vpn{0}, Vpn{127}, Tick{});
    t = rig.streamPages(Vpn{0}, Vpn{127}, t);
    rig.eq->run();
    const auto &ssp = rig.hopp->exec().tierStats(Tier::Ssp);
    EXPECT_GT(ssp.issued, 30u);
    EXPECT_GT(ssp.hits, 20u);
    EXPECT_GT(rig.vms->stats().injectedHits + rig.vms->stats().adoptions,
              20u);
    EXPECT_GT(rig.hopp->policy().stats().feedbacks, 10u);
}

TEST_F(HoppSystemTest, InjectionsReduceFaultsVersusNoPrefetch)
{
    Rig bare;
    Tick t0 = bare.streamPages(Vpn{0}, Vpn{127}, Tick{});
    bare.streamPages(Vpn{0}, Vpn{127}, t0);
    bare.eq->run();

    rig.hopp->start();
    Tick t = rig.streamPages(Vpn{0}, Vpn{127}, Tick{});
    rig.streamPages(Vpn{0}, Vpn{127}, t);
    rig.eq->run();

    // Two 128-page passes are mostly offset-ramp-up warmup, so demand
    // only a solid reduction here; the full-size benches check the
    // near-elimination the paper reports.
    EXPECT_LT(rig.vms->stats().remoteFaults,
              bare.vms->stats().remoteFaults * 3 / 4)
        << "HoPP must eliminate a large share of demand remote faults";
}

TEST_F(HoppSystemTest, PteClearKeepsRptCacheConsistent)
{
    rig.hopp->start();
    rig.streamPages(Vpn{0}, Vpn{127}, Tick{}); // reclaim cleared many PTEs
    rig.eq->run();
    EXPECT_GT(rig.hopp->rptCache().stats().invalidates, 0u);
    // Every extraction either resolved through the RPT or was counted
    // unmapped — none were silently lost or misattributed.
    EXPECT_EQ(rig.hopp->unmappedHotPages() +
                  rig.hopp->trainer().stats().hotPages,
              rig.hopp->hpd().stats().hotPages);
}

TEST_F(HoppSystemTest, RingOverflowDropsInsteadOfBlocking)
{
    HoppConfig hcfg;
    hcfg.ringCapacity = 4;
    hcfg.trainerDelay = 1'000'000'000; // never drained during the run
    auto tiny =
        std::make_unique<HoppSystem>(*rig.eq, *rig.vms, *rig.mc, hcfg);
    tiny->start();
    rig.streamPages(Vpn{0}, Vpn{63}, Tick{});
    EXPECT_GT(tiny->ring().dropped(), 0u);
}

TEST_F(HoppSystemTest, DramHitCoverageReportedByStats)
{
    rig.hopp->start();
    Tick t = rig.streamPages(Vpn{0}, Vpn{127}, Tick{});
    rig.streamPages(Vpn{0}, Vpn{127}, t);
    rig.eq->run();
    EXPECT_GT(rig.pstats.dramHitCoverage(), 0.1);
    EXPECT_GT(rig.pstats.accuracy(), 0.7);
}

TEST_F(HoppSystemTest, HotPageWriteBandwidthCharged)
{
    rig.hopp->start();
    rig.streamPages(Vpn{0}, Vpn{63}, Tick{});
    std::uint64_t hot = rig.hopp->hpd().stats().hotPages -
                        rig.hopp->unmappedHotPages();
    EXPECT_EQ(rig.dram->traffic(mem::TrafficSource::HotPageWrite),
              hot * hotPageRecordBytes);
}

TEST_F(HoppSystemTest, StartTwiceIsAnError)
{
    rig.hopp->start();
    EXPECT_DEATH(rig.hopp->start(), "already started");
}

TEST_F(HoppSystemTest, AdvisorPruneSparesFreshEntries)
{
    // A hotness table past the cap made of entries still inside the
    // warm window: the prune pass must run (the trigger fired) but
    // drop nothing — it ages entries out, it does not clear wholesale.
    HoppConfig hcfg;
    hcfg.trainerDelay = 100;
    hcfg.evictionAdvisor = true;
    hcfg.warmEntriesCap = 4;
    auto warm =
        std::make_unique<HoppSystem>(*rig.eq, *rig.vms, *rig.mc, hcfg);
    warm->start();
    rig.streamPages(Vpn{0}, Vpn{15}, Tick{});
    rig.eq->run();
    ASSERT_GT(warm->hpd().stats().hotPages, 0u);
    EXPECT_GT(warm->warmEntriesLive(), hcfg.warmEntriesCap)
        << "fresh entries must survive the prune that the cap forced";
    EXPECT_GE(warm->warmPrunePasses(), 1u);
    EXPECT_EQ(warm->warmPruned(), 0u)
        << "every entry is inside warmWindow; none may be dropped";
}

TEST_F(HoppSystemTest, AdvisorPruneAgesOutStaleEntries)
{
    HoppConfig hcfg;
    hcfg.trainerDelay = 100;
    hcfg.evictionAdvisor = true;
    hcfg.warmEntriesCap = 4;
    auto warm =
        std::make_unique<HoppSystem>(*rig.eq, *rig.vms, *rig.mc, hcfg);
    warm->start();
    // Phase 1 populates the table, then the clock runs past the warm
    // window so every phase-1 entry goes stale.
    Tick t = rig.streamPages(Vpn{0}, Vpn{15}, Tick{});
    std::uint64_t live_phase1 = warm->warmEntriesLive();
    ASSERT_GT(live_phase1, 0u);
    t = t + HotPagePipeline::warmWindow + Duration{1'000'000};
    // Phase 2 inserts enough fresh entries to re-trigger the prune.
    rig.streamPages(Vpn{200}, Vpn{239}, t);
    rig.eq->run();
    EXPECT_GT(warm->warmPruned(), 0u)
        << "stale phase-1 entries must be aged out, not retained";
    EXPECT_GE(warm->warmPrunePasses(), 2u);
    // Page 0 is long out of the window: whether its entry was pruned
    // or merely stale, the advisor must not keep it warm.
    EXPECT_FALSE(warm->keepWarm(Rig::pid, Vpn{0}, rig.eq->now()));
}

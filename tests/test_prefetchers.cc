/**
 * @file
 * Unit tests for the baseline prefetchers: Fastswap readahead (swap
 * offsets), VMA readahead (virtual addresses), Leap (majority stride,
 * adaptive depth), Depth-N (fixed injection), and the PrefetchStats
 * metric accounting.
 */

#include <gtest/gtest.h>

#include "prefetch/depthn.hh"
#include "prefetch/leap.hh"
#include "prefetch/readahead.hh"
#include "prefetch/stats.hh"
#include "prefetch/vma.hh"
#include "vm/vms.hh"

using namespace hopp;
using namespace hopp::prefetch;
using vm::FaultContext;
using vm::FaultKind;

namespace
{

class PrefetcherTest : public ::testing::Test
{
  public:
    static constexpr Pid pid{1};

    PrefetcherTest()
    {
        vm::VmsConfig vcfg;
        vcfg.kswapdEnabled = false;
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(512);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        llc = std::make_unique<mem::Llc>(mem::LlcConfig{64 << 10, 4});
        fabric =
            std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 16);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<vm::Vms>(*eq, *dram, *mc, *llc, *backend,
                                        vcfg);
        vms->addListener(&pstats);
        vms->createProcess(pid, 32);
    }

    Duration
    touch(Vpn v, Tick t)
    {
        Duration c = vms->access(pid, pageBase(v), false, t);
        eq->runUntil(t + c);
        return c;
    }

    /** Touch pages [0, n) to populate, spilling the early ones. */
    Tick
    fill(std::uint64_t n)
    {
        Tick t{};
        for (std::uint64_t v = 0; v < n; ++v)
            t += touch(Vpn{v}, t);
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
    PrefetchStats pstats;
};

} // namespace

TEST_F(PrefetcherTest, ReadaheadFetchesSwapOffsetNeighbors)
{
    Readahead ra(*vms, *backend);
    vms->setFaultCallback([&](const FaultContext &c) { ra.onFault(c); });
    // Pages 0..63 cold-fill a 32-frame cgroup: 0..31 get evicted in
    // LRU order, so their swap slots are consecutive.
    Tick t = fill(64);
    // Fault on page 10: neighbors by slot are pages ~6..14.
    t += touch(Vpn{10}, t);
    eq->run();
    unsigned cached = 0;
    for (std::uint64_t v = 5; v <= 15; ++v) {
        auto *pi = vms->pageTable().find(pid, Vpn{v});
        cached += pi && pi->state == vm::PageState::SwapCached;
    }
    EXPECT_GE(cached, 6u);
    EXPECT_EQ(pstats.forOrigin(origin::readahead).completed, cached);
}

TEST_F(PrefetcherTest, VmaFetchesVirtualNeighborsRegardlessOfSlots)
{
    VmaPrefetcher vp(*vms);
    vms->setFaultCallback([&](const FaultContext &c) { vp.onFault(c); });
    Tick t = fill(64);
    t += touch(Vpn{20}, t);
    eq->run();
    for (std::uint64_t v : {18u, 19u, 21u, 22u}) {
        auto *pi = vms->pageTable().find(pid, Vpn{v});
        ASSERT_NE(pi, nullptr);
        EXPECT_TRUE(pi->state == vm::PageState::SwapCached ||
                    pi->state == vm::PageState::Resident)
            << "vpn " << v;
    }
}

TEST_F(PrefetcherTest, DepthNInjectsPtes)
{
    DepthN dn(*vms, 8);
    vms->setFaultCallback([&](const FaultContext &c) { dn.onFault(c); });
    Tick t = fill(64);
    t += touch(Vpn{5}, t);
    eq->run();
    unsigned injected = 0;
    for (std::uint64_t v = 6; v <= 13; ++v) {
        auto *pi = vms->pageTable().find(pid, Vpn{v});
        injected += pi && pi->state == vm::PageState::Resident &&
                    pi->injected;
    }
    EXPECT_GE(injected, 6u);
}

TEST_F(PrefetcherTest, LeapDetectsStrideAcrossFaults)
{
    LeapConfig cfg;
    Leap leap(*vms, cfg);
    vms->setFaultCallback(
        [&](const FaultContext &c) { leap.onFault(c); });
    vms->addListener(&leap);
    Tick t = fill(128);
    // Fault with stride 2: 0, 2, 4, 6, 8 ...
    for (std::uint64_t v = 0; v <= 16; v += 2)
        t += touch(Vpn{v}, t);
    EXPECT_EQ(leap.detectStride(), 2);
    eq->run();
    // Pages ahead along stride 2 got prefetched.
    auto *pi = vms->pageTable().find(pid, Vpn{18});
    ASSERT_NE(pi, nullptr);
    EXPECT_TRUE(pi->state == vm::PageState::SwapCached ||
                pi->inflight || pi->state == vm::PageState::Resident);
}

TEST_F(PrefetcherTest, LeapFindsNoStrideInRandomFaults)
{
    Leap leap(*vms);
    Vpn seq[] = {Vpn{3},   Vpn{99}, Vpn{41}, Vpn{7},  Vpn{250},
                 Vpn{18}, Vpn{160}, Vpn{77}, Vpn{5},  Vpn{210}};
    Tick t = fill(256);
    vms->setFaultCallback(
        [&](const FaultContext &c) { leap.onFault(c); });
    for (Vpn v : seq)
        t += touch(v, t);
    EXPECT_EQ(leap.detectStride(), 0);
    eq->run();
}

TEST_F(PrefetcherTest, LeapDepthGrowsOnHits)
{
    LeapConfig cfg;
    cfg.epochFaults = 8;
    cfg.initialDepth = 2;
    Leap leap(*vms, cfg);
    vms->setFaultCallback(
        [&](const FaultContext &c) { leap.onFault(c); });
    vms->addListener(&leap);
    Tick t = fill(128);
    unsigned start_depth = leap.depth();
    // Long sequential fault stream: hits accumulate, depth grows.
    for (std::uint64_t v = 0; v < 96; ++v)
        t += touch(Vpn{v}, t);
    eq->run();
    EXPECT_GT(leap.depth(), start_depth);
}

TEST_F(PrefetcherTest, StatsComputeAccuracyAndCoverage)
{
    // Hand-drive the listener: 4 completed, 3 hits, 2 demand misses.
    PrefetchStats s;
    for (std::uint64_t i = 0; i < 4; ++i)
        s.onPrefetchCompleted(Pid{1}, Vpn{i}, 2, Tick{}, false);
    s.onPrefetchHit(Pid{1}, Vpn{0}, 2, Tick{100}, Tick{200}, false);
    s.onPrefetchHit(Pid{1}, Vpn{1}, 2, Tick{100}, Tick{300}, true);
    s.onPrefetchHit(Pid{1}, Vpn{2}, 2, Tick{400}, Tick{350},
                    true); // late hit
    s.onDemandRemote(Pid{1}, Vpn{9}, Tick{});
    s.onDemandRemote(Pid{1}, Vpn{10}, Tick{});
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.75);
    EXPECT_DOUBLE_EQ(s.coverage(), 3.0 / 5.0);
    EXPECT_DOUBLE_EQ(s.dramHitCoverage(), 2.0 / 5.0);
    EXPECT_EQ(s.forOrigin(2).lateHits, 1u);
}

TEST_F(PrefetcherTest, StatsSeparateOrigins)
{
    PrefetchStats s;
    s.onPrefetchCompleted(Pid{1}, Vpn{0}, origin::readahead, Tick{},
                          false);
    s.onPrefetchCompleted(Pid{1}, Vpn{1}, origin::hopp, Tick{}, true);
    s.onPrefetchHit(Pid{1}, Vpn{1}, origin::hopp, Tick{}, Tick{1},
                    true);
    EXPECT_DOUBLE_EQ(s.forOrigin(origin::hopp).accuracy(), 1.0);
    EXPECT_DOUBLE_EQ(s.forOrigin(origin::readahead).accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.5);
}

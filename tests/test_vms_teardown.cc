/**
 * @file
 * kswapd-bookkeeping regression test.
 *
 * The original kswapd latch lived in a VMS-side `unordered_map<Pid,
 * bool>` populated by operator[] on every watermark check and never
 * erased. The latch now lives inside the Cgroup itself; this test pins
 * down that it clears once background reclaim reaches the low
 * watermark and arms again on the next climb past the high one.
 */

#include <gtest/gtest.h>

#include <memory>

#include "vm/vms.hh"

using namespace hopp;
using namespace hopp::vm;

namespace
{

class VmsTeardownTest : public ::testing::Test
{
  protected:
    VmsTeardownTest()
    {
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(256);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        llc = std::make_unique<mem::Llc>(mem::LlcConfig{64 << 10, 8});
        fabric =
            std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 20);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<Vms>(*eq, *dram, *mc, *llc, *backend);
    }

    /** Fill pages [0, n) of pid, advancing local time. */
    Tick
    fill(Pid pid, std::uint64_t n, Tick t = Tick{})
    {
        for (std::uint64_t v = 0; v < n; ++v)
            t += vms->access(pid, pageBase(Vpn{v}), true, t);
        return t;
    }

    std::unique_ptr<sim::EventQueue> eq;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::MemCtrl> mc;
    std::unique_ptr<mem::Llc> llc;
    std::unique_ptr<net::RdmaFabric> fabric;
    std::unique_ptr<remote::RemoteNode> node;
    std::unique_ptr<remote::SwapBackend> backend;
    std::unique_ptr<Vms> vms;
};

TEST_F(VmsTeardownTest, KswapdLatchClearsAndRearms)
{
    Pid pid{1};
    vms->createProcess(pid, 8);
    Tick t = fill(pid, 8);
    ASSERT_TRUE(vms->cgroup(pid).kswapdActive());
    // Let background reclaim run to below the low watermark.
    eq->runUntil(t + Duration{100'000'000});
    EXPECT_FALSE(vms->cgroup(pid).kswapdActive());
    EXPECT_GT(vms->stats().kswapdReclaims, 0u);
    // Refill above the watermark: the latch must arm again.
    t = fill(pid, 8, eq->now());
    EXPECT_TRUE(vms->cgroup(pid).kswapdActive());
    eq->runUntil(t + Duration{100'000'000});
    EXPECT_FALSE(vms->cgroup(pid).kswapdActive());
}

} // namespace

/**
 * @file
 * Unit tests for the adaptive swap readahead window (Linux-style
 * hit-rate adaptation) and its interaction with a co-running
 * injection engine.
 */

#include <gtest/gtest.h>

#include "prefetch/readahead.hh"
#include "prefetch/stats.hh"
#include "runner/machine.hh"

using namespace hopp;
using namespace hopp::prefetch;
using namespace hopp::runner;

namespace
{

/** Drive the adaptation logic directly through the listener API. */
void
epoch(Readahead &ra, unsigned completed, unsigned hits,
      unsigned epoch_faults = 64)
{
    for (unsigned i = 0; i < completed; ++i)
        ra.onPrefetchCompleted(Pid{1}, Vpn{i}, origin::readahead,
                               Tick{}, false);
    for (unsigned i = 0; i < hits; ++i)
        ra.onPrefetchHit(Pid{1}, Vpn{i}, origin::readahead, Tick{},
                         Tick{1}, false);
    // Faults with no slot only tick the adaptation epoch.
    for (unsigned i = 0; i < epoch_faults; ++i) {
        ra.onFault(vm::FaultContext{Pid{1}, Vpn{0}, remote::noSlot,
                                    vm::FaultKind::Remote, Tick{}});
    }
}

struct RaRig
{
    sim::EventQueue eq;
    mem::Dram dram{64};
    mem::MemCtrl mc{dram};
    mem::Llc llc{mem::LlcConfig{16 << 10, 4}};
    net::RdmaFabric fabric{eq, net::LinkConfig{}};
    remote::RemoteNode node{1 << 16};
    remote::SwapBackend backend{fabric, node};
    vm::Vms vms{eq, dram, mc, llc, backend, [] {
                    vm::VmsConfig c;
                    c.kswapdEnabled = false;
                    return c;
                }()};
};

} // namespace

TEST(ReadaheadWindow, StartsAtMax)
{
    RaRig rig;
    Readahead ra(rig.vms, rig.backend);
    EXPECT_EQ(ra.window(), 8u);
}

TEST(ReadaheadWindow, ShrinksOnLowHitRate)
{
    RaRig rig;
    Readahead ra(rig.vms, rig.backend);
    epoch(ra, 100, 10); // 10% hits
    EXPECT_EQ(ra.window(), 4u);
    epoch(ra, 100, 10);
    EXPECT_EQ(ra.window(), 2u);
    epoch(ra, 100, 10);
    EXPECT_EQ(ra.window(), 2u) << "clamped at minWindow";
}

TEST(ReadaheadWindow, RecoversOnHighHitRate)
{
    RaRig rig;
    Readahead ra(rig.vms, rig.backend);
    epoch(ra, 100, 10);
    epoch(ra, 100, 10);
    ASSERT_EQ(ra.window(), 2u);
    epoch(ra, 100, 90);
    EXPECT_EQ(ra.window(), 4u);
    epoch(ra, 100, 90);
    EXPECT_EQ(ra.window(), 8u);
    epoch(ra, 100, 90);
    EXPECT_EQ(ra.window(), 8u) << "clamped at maxWindow";
}

TEST(ReadaheadWindow, MiddlingHitRateHoldsSteady)
{
    RaRig rig;
    Readahead ra(rig.vms, rig.backend);
    static_assert(Readahead::shrinkThreshold < 0.4 &&
                  0.4 < Readahead::growThreshold);
    epoch(ra, 100, 40); // between the thresholds
    EXPECT_EQ(ra.window(), 8u);
}

TEST(ReadaheadWindow, IgnoresOtherOrigins)
{
    RaRig rig;
    Readahead ra(rig.vms, rig.backend);
    for (unsigned i = 0; i < 100; ++i) {
        ra.onPrefetchCompleted(Pid{1}, Vpn{i}, origin::hopp, Tick{},
                               true);
        ra.onPrefetchHit(Pid{1}, Vpn{i}, origin::leap, Tick{}, Tick{1},
                         false);
    }
    for (unsigned i = 0; i < 64; ++i) {
        ra.onFault(vm::FaultContext{Pid{1}, Vpn{0}, remote::noSlot,
                                    vm::FaultKind::Remote, Tick{}});
    }
    EXPECT_EQ(ra.window(), 8u) << "foreign events must not adapt it";
}

TEST(ReadaheadWindow, EndToEndBacksOffWhenHoppCovers)
{
    // In a HoPP machine, injections remove the faults readahead's
    // fetches would satisfy; its window must retreat rather than
    // keep wasting link bandwidth.
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine hopp_m(cfg);
    hopp_m.addWorkload(
        workloads::makeWorkload("kmeans-omp", {0.25, 0.5}));
    auto hopp_r = hopp_m.run();

    cfg.system = SystemKind::Fastswap;
    Machine fs_m(cfg);
    fs_m.addWorkload(
        workloads::makeWorkload("kmeans-omp", {0.25, 0.5}));
    auto fs_r = fs_m.run();

    // Alongside HoPP, readahead completes far fewer fetches than when
    // it is the only prefetcher.
    auto ra_in_hopp =
        hopp_m.prefetchStats().forOrigin(origin::readahead).completed;
    auto ra_alone =
        fs_m.prefetchStats().forOrigin(origin::readahead).completed;
    EXPECT_LT(ra_in_hopp, ra_alone / 2);
    EXPECT_GT(fs_r.coverage, 0.9);
    EXPECT_GT(hopp_r.dramHitCoverage, 0.5);
}

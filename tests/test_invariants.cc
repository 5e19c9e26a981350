/**
 * @file
 * Tests for the runtime invariant checker (src/check): every validator
 * passes on a healthy machine and, crucially, each one detects the
 * specific corruption it exists to catch — a non-monotonic event, a bad
 * LRU link, a leaked LLC line, broken charge accounting, a lost RPT
 * mapping.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <utility>

#include "check/invariants.hh"
#include "mem/llc.hh"
#include "net/rdma.hh"
#include "remote/swap_backend.hh"
#include "runner/machine.hh"
#include "sim/event_queue.hh"
#include "vm/vms.hh"

using namespace hopp;
using namespace hopp::check;
using namespace hopp::runner;

namespace
{

workloads::WorkloadScale
tiny()
{
    workloads::WorkloadScale s;
    s.footprint = 0.08;
    s.iterations = 0.3;
    return s;
}

/** A small VMS rig mirroring the test_vms fixture. */
class InvariantVmsTest : public ::testing::Test
{
  protected:
    static constexpr Pid pid{1};

    InvariantVmsTest()
    {
        vm::VmsConfig cfg;
        cfg.kswapdEnabled = false;
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(64);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        mem::LlcConfig lcfg;
        lcfg.capacityBytes = 64 << 10;
        llc = std::make_unique<mem::Llc>(lcfg);
        fabric =
            std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 16);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<vm::Vms>(*eq, *dram, *mc, *llc, *backend,
                                        cfg);
        vms->createProcess(pid, 8);
    }

    /** Touch pages [0, n); with limit 8 this also exercises reclaim. */
    void
    fill(std::uint64_t n)
    {
        Tick t{};
        for (std::uint64_t v = 0; v < n; ++v)
            t += vms->access(pid, pageBase(Vpn{v}), v % 3 == 0, t);
        eq->run();
    }

    Report
    validate()
    {
        Report r;
        validateVms(*vms, r);
        return r;
    }

    std::unique_ptr<sim::EventQueue> eq;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::MemCtrl> mc;
    std::unique_ptr<mem::Llc> llc;
    std::unique_ptr<net::RdmaFabric> fabric;
    std::unique_ptr<remote::RemoteNode> node;
    std::unique_ptr<remote::SwapBackend> backend;
    std::unique_ptr<vm::Vms> vms;
};

TEST(InvariantEventQueue, CleanQueuePasses)
{
    sim::EventQueue eq;
    eq.schedule(Tick{10}, [] {});
    eq.schedule(Tick{10}, [] {});
    eq.schedule(Tick{25}, [] {});
    EventQueueWatch w;
    Report r;
    validateEventQueue(eq, w, r);
    EXPECT_TRUE(r.ok()) << r.summary();

    eq.run();
    validateEventQueue(eq, w, r);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_EQ(w.lastExecuted, 3u);
}

TEST(InvariantEventQueue, DetectsEventScheduledInThePast)
{
    sim::EventQueue eq;
    eq.schedule(Tick{100}, [] {});
    eq.runOne(); // now() == 100
    hopp::check::testing::pushEventInPast(eq, Tick{40});

    EventQueueWatch w;
    Report r;
    validateEventQueue(eq, w, r);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("non-monotonic")) << r.summary();
}

TEST(InvariantEventQueue, DetectsTimeMovingBackwards)
{
    // Two queues observed through one watch model a rewound clock.
    sim::EventQueue ran;
    ran.schedule(Tick{500}, [] {});
    ran.runOne();
    EventQueueWatch w;
    Report r;
    validateEventQueue(ran, w, r);
    ASSERT_TRUE(r.ok()) << r.summary();

    sim::EventQueue fresh;
    validateEventQueue(fresh, w, r);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("backwards")) << r.summary();
}

TEST(InvariantLlc, DetectsLeakedOccupancy)
{
    mem::LlcConfig cfg;
    cfg.capacityBytes = 64 << 10;
    mem::Llc llc(cfg);
    for (std::uint64_t pa = 0; pa < 256 * 64; pa += 64)
        llc.access(PhysAddr{pa});

    Report clean;
    validateLlc(llc, clean);
    EXPECT_TRUE(clean.ok()) << clean.summary();

    hopp::check::testing::leakLlcOccupancy(llc);
    Report r;
    validateLlc(llc, r);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("occupancy accounting leaked"))
        << r.summary();
}

TEST(InvariantLlc, DetectsCorruptRankOrder)
{
    mem::LlcConfig cfg;
    cfg.capacityBytes = 64 << 10;
    mem::Llc llc(cfg);
    for (std::uint64_t pa = 0; pa < 256 * 64; pa += 64)
        llc.access(PhysAddr{pa});

    Report clean;
    validateLlc(llc, clean);
    EXPECT_TRUE(clean.ok()) << clean.summary();

    hopp::check::testing::corruptLlcRank(llc);
    Report r;
    validateLlc(llc, r);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("not a permutation")) << r.summary();
}

TEST_F(InvariantVmsTest, HealthyVmsPasses)
{
    // More pages than the cgroup limit: faults, reclaim, writebacks.
    fill(24);
    Report r = validate();
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST_F(InvariantVmsTest, HealthyVmsWithPrefetchesPasses)
{
    fill(24);
    // One swapcache prefetch and one injected prefetch, completed.
    ASSERT_TRUE(vms->prefetchToSwapCache(pid, Vpn{0}, 1, eq->now()));
    EXPECT_NE(vms->prefetchInject(pid, Vpn{1}, 1, eq->now()),
              vm::Vms::InjectResult::NotIssued);
    eq->run();
    Report r = validate();
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST_F(InvariantVmsTest, DetectsBadLruLink)
{
    fill(6);
    vm::PageInfo &a = vms->pageTable().get(pid, Vpn{0});
    vm::PageInfo &b = vms->pageTable().get(pid, Vpn{1});
    ASSERT_TRUE(a.inLru);
    ASSERT_TRUE(b.inLru);
    std::swap(a.lruIt, b.lruIt);

    Report r = validate();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("bad LRU link")) << r.summary();
}

TEST_F(InvariantVmsTest, DetectsUnlinkedResidentPage)
{
    fill(6);
    vm::PageInfo &pi = vms->pageTable().get(pid, Vpn{2});
    ASSERT_TRUE(pi.inLru);
    pi.inLru = false; // page claims to be off-list; the list disagrees

    Report r = validate();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("inLru flag is clear")) << r.summary();
}

TEST_F(InvariantVmsTest, DetectsChargeAccountingDrift)
{
    fill(6);
    vm::PageInfo &pi = vms->pageTable().get(pid, Vpn{3});
    ASSERT_TRUE(pi.charged);
    pi.charged = false; // counter now overstates by one

    Report r = validate();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("not charged")) << r.summary();
    EXPECT_TRUE(r.mentions("charge counter")) << r.summary();
}

TEST_F(InvariantVmsTest, DetectsIllegalStateFlagCombination)
{
    fill(6);
    vm::PageInfo &pi = vms->pageTable().get(pid, Vpn{4});
    ASSERT_EQ(pi.state, vm::PageState::Resident);
    pi.state = vm::PageState::SwapCached; // still charged: illegal

    Report r = validate();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("must not be charged")) << r.summary();
}

TEST_F(InvariantVmsTest, DetectsFrameAccountingDrift)
{
    fill(6);
    vm::PageInfo &pi = vms->pageTable().get(pid, Vpn{5});
    ASSERT_EQ(pi.state, vm::PageState::Resident);
    pi.ppn += 1000; // point at a frame the allocator never handed out

    Report r = validate();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("never handed out")) << r.summary();
}

TEST(InvariantMachine, CleanRunPassesWithPeriodicChecks)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Fastswap;
    cfg.localMemRatio = 0.5;
    cfg.checkInterval = 500; // validate often
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("quicksort", tiny()));
    RunResult r = m.run(); // enforce() panics if any validator trips
    EXPECT_GT(r.makespan, Tick{});
    EXPECT_TRUE(m.checkInvariants().ok());
}

TEST(InvariantMachine, CleanHoppRunPassesWithPeriodicChecks)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    cfg.checkInterval = 500;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("kmeans-omp", tiny()));
    RunResult r = m.run();
    EXPECT_GT(r.makespan, Tick{});
    EXPECT_TRUE(m.checkInvariants().ok());
}

TEST(InvariantMachine, DetectsRptMappingLoss)
{
    MachineConfig cfg;
    cfg.system = SystemKind::HoppOnly;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", tiny()));
    m.run();
    ASSERT_TRUE(m.checkInvariants().ok());

    // Remap a resident frame in both the DRAM RPT and every RPT cache
    // to a different process: the PTE <-> RPT cross-check must notice.
    Vpn vpn;
    bool found = false;
    Ppn ppn;
    m.vms().pageTable().forEachPresent(
        [&](Pid, Vpn v, const vm::PageInfo &pi) {
            if (found)
                return;
            found = true;
            vpn = v;
            ppn = pi.ppn;
        });
    ASSERT_TRUE(found);
    core::HoppSystem &hopp = *m.hoppSystem();
    core::RptEntry bogus;
    bogus.pid = Pid{999};
    bogus.vpn = vpn + 12345;
    for (unsigned c = 0; c < hopp.config().channels; ++c)
        hopp.rptCache(c).update(ppn, bogus);

    Report r = m.checkInvariants();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.mentions("rpt")) << r.summary();
}

TEST(InvariantMachine, EnforceAbortsOnViolation)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Fastswap;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("quicksort", tiny()));
    m.run();
    vm::PageInfo *victim = nullptr;
    m.vms().pageTable().forEachPresent(
        [&](Pid p, Vpn v, const vm::PageInfo &) {
            if (!victim)
                victim = m.vms().pageTable().find(p, v);
        });
    ASSERT_NE(victim, nullptr);
    victim->charged = !victim->charged;
    EXPECT_DEATH(m.checkInvariants().enforce(), "invariant violation");
}

TEST(InvariantMachine, PeriodicCheckPanicsOnMidRunCorruption)
{
    // This run executes ~200 events: the leak lands after ~10 and the
    // clean exit after ~125, so only a periodic pass can panic first —
    // the final audit never gets to run.
    MachineConfig cfg;
    cfg.system = SystemKind::Fastswap;
    cfg.checkInterval = 20;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", tiny()));
    m.prepare();
    m.eventQueue().schedule(Tick{300'000}, [&m] {
        hopp::check::testing::leakLlcOccupancy(m.llc());
    });
    m.eventQueue().schedule(Tick{600'000}, [] { std::_Exit(0); });
    EXPECT_DEATH(m.run(), "occupancy accounting leaked");
}

} // namespace

/**
 * @file
 * Software TLB tests: direct-mapped cache mechanics, shootdown through
 * the PTE-hook plumbing on every Resident -> non-Resident transition
 * (eviction, injection-driven reclaim), and the
 * accelerator contract — simulation results are bit-identical with the
 * TLB on or off.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "vm/tlb.hh"
#include "vm/vms.hh"

using namespace hopp;
using namespace hopp::vm;

namespace
{

TEST(TlbUnit, MissThenFillThenHit)
{
    Tlb tlb(16);
    PageInfo pi;
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{5}), nullptr);
    tlb.fill(Pid{1}, Vpn{5}, &pi);
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{5}), &pi);
    // Same vpn, other process: a miss.
    EXPECT_EQ(tlb.lookup(Pid{2}, Vpn{5}), nullptr);
}

TEST(TlbUnit, DirectMappedAliasEvictsThePriorEntry)
{
    Tlb tlb(16);
    PageInfo a, b;
    // vpn and vpn + entries land in the same slot for one pid.
    tlb.fill(Pid{1}, Vpn{3}, &a);
    tlb.fill(Pid{1}, Vpn{3 + 16}, &b);
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{3}), nullptr);
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{3 + 16}), &b);
}

TEST(TlbUnit, ShootdownOnlyMatchingTranslation)
{
    Tlb tlb(16);
    PageInfo a, b;
    tlb.fill(Pid{1}, Vpn{2}, &a);
    tlb.fill(Pid{1}, Vpn{9}, &b);
    // A clear for a key that aliases slot-wise but differs in vpn must
    // not invalidate (the slot holds someone else's translation).
    tlb.onPteClear(Pid{1}, Vpn{2 + 16}, Ppn{0}, Tick{});
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{2}), &a);
    // A clear for the exact key shoots it down; the other survives.
    tlb.onPteClear(Pid{1}, Vpn{2}, Ppn{0}, Tick{});
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{2}), nullptr);
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{9}), &b);
}

TEST(TlbUnit, PteSetDoesNotPrefill)
{
    Tlb tlb(16);
    tlb.onPteSet(Pid{1}, Vpn{4}, Ppn{7}, Tick{});
    EXPECT_EQ(tlb.lookup(Pid{1}, Vpn{4}), nullptr);
}

/** VMS stack with a TLB wired into the PTE-hook list. */
class TlbVmsTest : public ::testing::Test
{
  protected:
    static constexpr Pid pid{1};

    TlbVmsTest() { rebuild(8); }

    void
    rebuild(std::uint64_t limit)
    {
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(256);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        mem::LlcConfig lcfg;
        lcfg.capacityBytes = 64 << 10;
        llc = std::make_unique<mem::Llc>(lcfg);
        fabric = std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 20);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        tlb = std::make_unique<Tlb>(64);
        vms = std::make_unique<Vms>(*eq, *dram, *mc, *llc, *backend,
                                    VmsConfig{});
        vms->addPteHook(tlb.get());
        vms->createProcess(pid, limit);
    }

    Duration
    touch(Vpn vpn, Tick now = Tick{}, bool write = false)
    {
        return vms->access(pid, pageBase(vpn), write, now, tlb.get());
    }

    Tick
    fill(std::uint64_t n, Tick now = Tick{})
    {
        Tick t = now;
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
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<Vms> vms;
};

TEST_F(TlbVmsTest, SecondAccessHitsTlbAtIdenticalCost)
{
    EXPECT_EQ(tlb->lookup(pid, Vpn{5}), nullptr);
    touch(Vpn{5}); // cold fault fills the TLB
    EXPECT_EQ(tlb->lookup(pid, Vpn{5}),
              vms->pageTable().find(pid, Vpn{5}));
    EXPECT_EQ(touch(Vpn{5}), CostModel::llcHit);
    EXPECT_EQ(vms->stats().accesses, 2u);
    EXPECT_EQ(vms->stats().llcHits, 1u);
}

TEST_F(TlbVmsTest, EvictionShootsDownTheCachedEntry)
{
    Tick t = fill(8); // limit 8; every page cached in the TLB
    ASSERT_NE(tlb->lookup(pid, Vpn{0}), nullptr);
    t += touch(Vpn{100}, t); // evicts page 0 -> firePteClear
    EXPECT_EQ(tlb->lookup(pid, Vpn{0}), nullptr);

    // Fault-after-evict: the access must take the slow path and pay a
    // remote fault, not serve a stale resident record.
    std::uint64_t remote_before = vms->stats().remoteFaults;
    t += touch(Vpn{0}, t);
    EXPECT_EQ(vms->stats().remoteFaults, remote_before + 1);
    EXPECT_TRUE(vms->pageTable().present(pid, Vpn{0}));
}

TEST_F(TlbVmsTest, InjectionDrivenEvictionInvalidates)
{
    struct ClearRecorder : PteHook
    {
        std::vector<Vpn> cleared;
        void onPteSet(Pid, Vpn, Ppn, Tick) override {}
        void
        onPteClear(Pid, Vpn vpn, Ppn, Tick) override
        {
            cleared.push_back(vpn);
        }
    } rec;
    vms->addPteHook(&rec);

    Tick t = fill(9); // page 0 swapped out, cgroup at its limit
    rec.cleared.clear();
    ASSERT_EQ(vms->prefetchInject(pid, Vpn{0}, 3, t),
              Vms::InjectResult::Issued);
    eq->run();
    // Injection reclaimed (at least) one LRU page to make room; every
    // translation it cleared must be gone from the TLB.
    ASSERT_FALSE(rec.cleared.empty());
    for (Vpn v : rec.cleared)
        EXPECT_EQ(tlb.get()->lookup(pid, v), nullptr)
            << "stale translation for vpn " << v.raw();
}

TEST_F(TlbVmsTest, RandomizedTlbOnOffIsBitIdentical)
{
    // Drive the same pseudo-random access stream through two identical
    // stacks, one with the TLB and one without: every per-access cost
    // and every statistic must match exactly (the TLB is a host-side
    // accelerator, not a model change).
    struct Outcome
    {
        std::vector<Duration> costs;
        VmsStats stats;
    };
    auto drive = [](bool with_tlb) {
        sim::EventQueue eq;
        mem::Dram dram(256);
        mem::MemCtrl mc(dram);
        mem::LlcConfig lcfg;
        lcfg.capacityBytes = 64 << 10;
        mem::Llc llc(lcfg);
        net::RdmaFabric fabric(eq, net::LinkConfig{});
        remote::RemoteNode node(1 << 20);
        remote::SwapBackend backend(fabric, node);
        Tlb tlb(64);
        Vms vms(eq, dram, mc, llc, backend, VmsConfig{});
        if (with_tlb)
            vms.addPteHook(&tlb);
        vms.createProcess(Pid{1}, 8);

        Pcg32 rng(1234);
        Outcome out;
        Tick t{};
        for (int i = 0; i < 4000; ++i) {
            Vpn vpn{rng.below(32)};
            bool write = rng.chance(0.3);
            Duration d = vms.access(Pid{1}, pageBase(vpn), write, t,
                                    with_tlb ? &tlb : nullptr);
            out.costs.push_back(d);
            t += d;
        }
        out.stats = vms.stats();
        return out;
    };

    Outcome on = drive(true);
    Outcome off = drive(false);
    EXPECT_EQ(on.costs, off.costs);
    EXPECT_EQ(on.stats.accesses, off.stats.accesses);
    EXPECT_EQ(on.stats.llcHits, off.stats.llcHits);
    EXPECT_EQ(on.stats.llcMisses, off.stats.llcMisses);
    EXPECT_EQ(on.stats.coldFaults, off.stats.coldFaults);
    EXPECT_EQ(on.stats.remoteFaults, off.stats.remoteFaults);
    EXPECT_EQ(on.stats.evictions, off.stats.evictions);
    EXPECT_EQ(on.stats.writebacks, off.stats.writebacks);
    EXPECT_EQ(on.stats.directReclaims, off.stats.directReclaims);
}

} // namespace

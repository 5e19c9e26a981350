/**
 * @file
 * Integration-grade unit tests for the virtual memory subsystem: fault
 * paths and their §II-A costs, reclaim/LRU behaviour, cgroup charging,
 * both prefetch insertion flavours, PTE hooks and lifecycle listeners.
 */

#include <gtest/gtest.h>

#include <vector>

#include "vm/vms.hh"

using namespace hopp;
using namespace hopp::vm;

namespace
{

struct Recorder : PageEventListener
{
    struct Hit
    {
        Vpn vpn;
        Origin origin;
        Tick readyAt;
        Tick hitAt;
        bool dramHit;
    };

    std::vector<Hit> hits;
    std::vector<Vpn> evictedPrefetches;
    std::vector<Vpn> demandRemotes;
    std::vector<FaultKind> faults;

    void
    onPrefetchHit(Pid, Vpn vpn, Origin o, Tick ready, Tick hit,
                  bool dram) override
    {
        hits.push_back({vpn, o, ready, hit, dram});
    }

    void
    onPrefetchEvicted(Pid, Vpn vpn, Origin, Tick) override
    {
        evictedPrefetches.push_back(vpn);
    }

    void
    onDemandRemote(Pid, Vpn vpn, Tick) override
    {
        demandRemotes.push_back(vpn);
    }

    void
    onFaultResolved(Pid, Vpn, FaultKind k, Duration, Tick) override
    {
        faults.push_back(k);
    }
};

struct HookRecorder : PteHook
{
    std::vector<std::pair<Vpn, Ppn>> sets;
    std::vector<std::pair<Vpn, Ppn>> clears;

    void
    onPteSet(Pid, Vpn vpn, Ppn ppn, Tick) override
    {
        sets.emplace_back(vpn, ppn);
    }

    void
    onPteClear(Pid, Vpn vpn, Ppn ppn, Tick) override
    {
        clears.emplace_back(vpn, ppn);
    }
};

class VmsTest : public ::testing::Test
{
  protected:
    static constexpr Pid pid{1};

    VmsTest() { rebuild(8, 64, /*kswapd=*/false); }

    void
    rebuild(std::uint64_t limit, std::uint64_t dram_frames, bool kswapd)
    {
        VmsConfig cfg;
        cfg.kswapdEnabled = kswapd;
        rebuild(cfg, limit, dram_frames);
    }

    void
    rebuild(const VmsConfig &cfg, std::uint64_t limit,
            std::uint64_t dram_frames)
    {
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(dram_frames);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        mem::LlcConfig lcfg;
        lcfg.capacityBytes = 64 << 10;
        llc = std::make_unique<mem::Llc>(lcfg);
        fabric = std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 20);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<Vms>(*eq, *dram, *mc, *llc, *backend, cfg);
        vms->addListener(&rec);
        vms->addPteHook(&hook);
        vms->createProcess(pid, limit);
    }

    /** Touch the first line of page vpn at time now. */
    Duration
    touch(Vpn vpn, Tick now = Tick{}, bool write = false)
    {
        return vms->access(pid, pageBase(vpn), write, now);
    }

    /** Fill pages [0, n) so the LRU has n entries. */
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
    std::unique_ptr<Vms> vms;
    Recorder rec;
    HookRecorder hook;
};

} // namespace

TEST_F(VmsTest, ColdFaultCostsKernelPathPlusDramMiss)
{
    Duration cost = touch(Vpn{5});
    EXPECT_EQ(cost, CostModel::faultOverhead() + CostModel::dramHit);
    EXPECT_EQ(vms->stats().coldFaults, 1u);
    EXPECT_TRUE(vms->pageTable().present(pid, Vpn{5}));
}

TEST_F(VmsTest, ResidentLineHitCostsLlcHit)
{
    touch(Vpn{5});
    EXPECT_EQ(touch(Vpn{5}), CostModel::llcHit);
    // A different line of the same page misses LLC but not the page.
    EXPECT_EQ(vms->access(pid, pageBase(Vpn{5}) + lineBytes, false,
                          Tick{}),
              CostModel::dramHit);
    EXPECT_EQ(vms->stats().faults(), 1u);
}

TEST_F(VmsTest, ExceedingCgroupLimitEvictsLru)
{
    fill(8); // limit is 8
    EXPECT_EQ(vms->stats().evictions, 0u);
    touch(Vpn{100});
    EXPECT_EQ(vms->stats().evictions, 1u);
    // Page 0 (LRU) went remote.
    EXPECT_FALSE(vms->pageTable().present(pid, Vpn{0}));
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{0})->state, PageState::Swapped);
    EXPECT_EQ(vms->cgroup(pid).charged(), 8u);
}

TEST_F(VmsTest, EvictedDirtyPageIsWrittenBack)
{
    fill(8);
    touch(Vpn{100});
    // Cold pages have no swap copy: eviction must write back.
    EXPECT_EQ(vms->stats().writebacks, 1u);
    EXPECT_EQ(backend->writebacks(), 1u);
}

TEST_F(VmsTest, CleanRefetchedPageEvictsWithoutWriteback)
{
    Tick t = fill(9); // evicts page 0 with writeback #1
    t += touch(Vpn{0}, t); // remote fault: page 0 back, clean
    // Evict something twice; page 1 and 2 are dirty (cold) -> writeback,
    // but refetched page 0... force page 0 out by touching new pages and
    // keeping 0 idle.
    for (std::uint64_t v = 200; v < 210; ++v)
        t += touch(Vpn{v}, t);
    // Page 0 was evicted again at some point; because it was clean it
    // should not have been written back. Every other evicted page was
    // cold-dirty, so evictions exceed writebacks by exactly one.
    std::uint64_t dirty_evictions = vms->stats().writebacks;
    EXPECT_EQ(vms->stats().evictions - dirty_evictions, 1u)
        << "exactly one eviction (clean page 0) skipped writeback";
}

TEST_F(VmsTest, RemoteFaultPaysRdmaLatency)
{
    fill(9); // page 0 evicted
    Duration cost = touch(Vpn{0}, Tick{1'000'000});
    // Kernel path (2.3 us) + ~4 us RDMA + DRAM access; no reclaim
    // needed because eviction already happened... but fetching page 0
    // exceeds the limit again, so one direct reclaim may be included.
    EXPECT_GT(cost, 6'000u);
    EXPECT_LT(cost, 14'000u);
    EXPECT_EQ(vms->stats().remoteFaults, 1u);
    EXPECT_EQ(rec.demandRemotes.size(), 1u);
}

TEST_F(VmsTest, SwapCachePrefetchHitCostsPrefetchHitOverhead)
{
    Tick t = fill(9); // page 0 swapped out
    ASSERT_TRUE(vms->prefetchToSwapCache(pid, Vpn{0}, 2, t));
    eq->run(); // completion lands in swapcache
    ASSERT_EQ(vms->pageTable().find(pid, Vpn{0})->state, PageState::SwapCached);
    Tick when = eq->now() + 1000;
    Duration cost = touch(Vpn{0}, when);
    // Prefetch-hit: 2.3 us + one direct reclaim (charging page 0 pushes
    // the cgroup over its limit) + DRAM access.
    EXPECT_GE(cost, CostModel::faultOverhead() + CostModel::dramHit);
    EXPECT_LE(cost, CostModel::faultOverhead() + CostModel::dramHit +
                        CostModel::directReclaimPerPage);
    EXPECT_EQ(vms->stats().swapCacheHits, 1u);
    ASSERT_EQ(rec.hits.size(), 1u);
    EXPECT_EQ(rec.hits[0].vpn, Vpn{0});
    EXPECT_EQ(rec.hits[0].origin, 2);
    EXPECT_FALSE(rec.hits[0].dramHit);
}

TEST_F(VmsTest, InjectedPageFirstTouchIsDramHit)
{
    Tick t = fill(9); // page 0 swapped out; cgroup full at 8
    ASSERT_EQ(vms->prefetchInject(pid, Vpn{0}, 3, t),
              Vms::InjectResult::Issued);
    eq->run();
    // Injection evicted one LRU page (no app cost) and mapped page 0.
    EXPECT_TRUE(vms->pageTable().present(pid, Vpn{0}));
    Duration cost = touch(Vpn{0}, eq->now() + 1000);
    EXPECT_EQ(cost, CostModel::dramHit); // no fault at all
    EXPECT_EQ(vms->stats().injectedHits, 1u);
    ASSERT_EQ(rec.hits.size(), 1u);
    EXPECT_TRUE(rec.hits[0].dramHit);
    EXPECT_EQ(rec.hits[0].origin, 3);
    EXPECT_EQ(vms->stats().faults(), 9u); // only the fills
}

TEST_F(VmsTest, InjectionChargesCgroup)
{
    Tick t = fill(9);
    EXPECT_EQ(vms->cgroup(pid).charged(), 8u);
    vms->prefetchInject(pid, Vpn{0}, 3, t);
    eq->run();
    // Still at the limit: injection evicted one page, charged page 0.
    EXPECT_EQ(vms->cgroup(pid).charged(), 8u);
    EXPECT_EQ(vms->stats().evictions, 2u); // fill eviction + injection
}

TEST_F(VmsTest, SwapCachePrefetchIsNotCharged)
{
    rebuild(8, 64, false);
    Tick t = fill(9);
    vms->prefetchToSwapCache(pid, Vpn{0}, 2, t);
    eq->run();
    EXPECT_EQ(vms->cgroup(pid).charged(), 8u);
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{0})->charged, false);
    // The hit charges it (and must reclaim one page first).
    touch(Vpn{0}, eq->now() + 10);
    EXPECT_EQ(vms->cgroup(pid).charged(), 8u);
    EXPECT_TRUE(vms->pageTable().find(pid, Vpn{0})->charged);
}

TEST_F(VmsTest, UnusedPrefetchEventuallyEvictedAndReported)
{
    Tick t = fill(9); // page 0 out
    vms->prefetchToSwapCache(pid, Vpn{0}, 2, t);
    eq->run();
    // Never touch page 0; stream new pages until it gets reclaimed.
    t = eq->now();
    for (std::uint64_t v = 300; v < 330; ++v)
        t += touch(Vpn{v}, t);
    EXPECT_FALSE(rec.evictedPrefetches.empty());
    EXPECT_EQ(rec.evictedPrefetches[0], Vpn{0});
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{0})->state, PageState::Swapped);
}

TEST_F(VmsTest, FaultOnInflightPrefetchWaitsAndCountsHit)
{
    Tick t = fill(9);
    ASSERT_TRUE(vms->prefetchToSwapCache(pid, Vpn{0}, 2, t));
    // Fault immediately, long before the ~4 us completion.
    Duration cost = touch(Vpn{0}, t);
    EXPECT_GT(cost, CostModel::faultOverhead()); // waited for the wire
    EXPECT_EQ(vms->stats().inflightWaits, 1u);
    ASSERT_EQ(rec.hits.size(), 1u);
    EXPECT_FALSE(rec.hits[0].dramHit);
    eq->run();
    // The completion found the page consumed and dropped its work.
    EXPECT_EQ(vms->stats().prefetchesDropped, 1u);
    EXPECT_TRUE(vms->pageTable().present(pid, Vpn{0}));
}

TEST_F(VmsTest, PrefetchableOnlyWhenSwappedAndIdle)
{
    Tick t = fill(9);
    EXPECT_FALSE(vms->prefetchable(pid, Vpn{3}));   // resident
    EXPECT_FALSE(vms->prefetchable(pid, Vpn{999})); // untouched
    EXPECT_TRUE(vms->prefetchable(pid, Vpn{0}));    // swapped
    vms->prefetchToSwapCache(pid, Vpn{0}, 2, t);
    EXPECT_FALSE(vms->prefetchable(pid, Vpn{0})); // inflight
    EXPECT_FALSE(vms->prefetchToSwapCache(pid, Vpn{0}, 2, t));
}

TEST_F(VmsTest, PteHooksFireOnMapAndClear)
{
    fill(8);
    EXPECT_EQ(hook.sets.size(), 8u);
    touch(Vpn{100}); // evicts page 0
    ASSERT_EQ(hook.clears.size(), 1u);
    EXPECT_EQ(hook.clears[0].first, Vpn{0});
    // The cleared PPN matches what was set for page 0.
    EXPECT_EQ(hook.clears[0].second, hook.sets[0].second);
}

TEST_F(VmsTest, FaultCallbackSeesRemoteAndSwapCacheKinds)
{
    std::vector<FaultKind> kinds;
    vms->setFaultCallback(
        [&](const FaultContext &f) { kinds.push_back(f.kind); });
    Tick t = fill(9);          // cold faults don't call back
    EXPECT_TRUE(kinds.empty());
    t += touch(Vpn{0}, t);          // remote fault
    ASSERT_EQ(kinds.size(), 1u);
    EXPECT_EQ(kinds[0], FaultKind::Remote);
    t += touch(Vpn{1}, t);          // second remote fault
    vms->prefetchToSwapCache(pid, Vpn{2}, 2, t);
    eq->run();
    touch(Vpn{2}, eq->now());       // swapcache hit
    ASSERT_EQ(kinds.size(), 3u);
    EXPECT_EQ(kinds[2], FaultKind::SwapCacheHit);
}

TEST_F(VmsTest, SecondChanceKeepsRecentlyTouchedPage)
{
    fill(8);
    Tick t{1'000'000};
    t += touch(Vpn{100}, t); // evicts page 0 after one rotation pass
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{0})->state, PageState::Swapped);
    // Touch page 1 (sets its accessed bit); page 2's bit was cleared by
    // the rotation above, so the next eviction must pick page 2.
    t += touch(Vpn{1}, t);
    t += touch(Vpn{101}, t);
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{1})->state, PageState::Resident);
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{2})->state, PageState::Swapped);
}

TEST_F(VmsTest, KswapdReclaimsInBackgroundWithoutAppCost)
{
    rebuild(64, 256, /*kswapd=*/true);
    Tick t{};
    // Touch up to the high watermark; kswapd should kick in and bring
    // charge down to the low watermark without direct reclaims.
    for (std::uint64_t v = 0; v < 64; ++v)
        t += touch(Vpn{v}, t);
    eq->runUntil(t + 1'000'000);
    EXPECT_GT(vms->stats().kswapdReclaims, 0u);
    EXPECT_EQ(vms->stats().directReclaims, 0u);
    auto low = static_cast<std::uint64_t>(64 * Vms::lowWatermark);
    EXPECT_LE(vms->cgroup(pid).charged(), low + 1);
}

TEST_F(VmsTest, TinyKswapdBatchStillConvergesToLowWatermark)
{
    // One eviction per pass: convergence must come from rescheduling,
    // not from a single large burst.
    VmsConfig cfg;
    cfg.kswapdEnabled = true;
    cfg.kswapdBatch = 1;
    rebuild(cfg, 64, 256);
    Tick t{};
    for (std::uint64_t v = 0; v < 64; ++v)
        t += touch(Vpn{v}, t);
    eq->runUntil(t + 10'000'000);
    EXPECT_GT(vms->stats().kswapdReclaims, 0u);
    EXPECT_EQ(vms->stats().directReclaims, 0u);
    auto low =
        static_cast<std::uint64_t>(64 * Vms::lowWatermark);
    EXPECT_LE(vms->cgroup(pid).charged(), low + 1);
}

TEST_F(VmsTest, KswapdLatchClearsAndRearms)
{
    // The kswapd latch lives in the Cgroup: it clears once background
    // reclaim reaches the low watermark and arms again on the next
    // climb past the high one.
    rebuild(8, 256, /*kswapd=*/true);
    Tick t = fill(8);
    ASSERT_TRUE(vms->cgroup(pid).kswapdActive());
    // Let background reclaim run to below the low watermark.
    eq->runUntil(t + Duration{100'000'000});
    EXPECT_FALSE(vms->cgroup(pid).kswapdActive());
    EXPECT_GT(vms->stats().kswapdReclaims, 0u);
    // Refill above the watermark: the latch must arm again.
    t = fill(8, eq->now());
    EXPECT_TRUE(vms->cgroup(pid).kswapdActive());
    eq->runUntil(t + Duration{100'000'000});
    EXPECT_FALSE(vms->cgroup(pid).kswapdActive());
}

TEST_F(VmsTest, AccessBatchMatchesScalarLoop)
{
    // Any record with .va/.write drains through accessBatch; the
    // result must be exactly the scalar loop: same final time, same
    // counters, conservation intact.
    struct Rec
    {
        VirtAddr va;
        bool write;
    };
    std::vector<Rec> block;
    for (std::uint64_t v = 0; v < 24; ++v) {
        block.push_back({pageBase(Vpn{v % 6}) + (v % 3) * lineBytes,
                         (v & 1) != 0});
    }

    std::size_t consumed = 0;
    Tick batched_end = vms->accessBatch(pid, block.data(), block.size(),
                                        Tick{}, maxTick, &consumed);
    EXPECT_EQ(consumed, block.size())
        << "maxTick horizon + empty queue must drain the whole block";
    VmsStats batched = vms->stats();

    rebuild(8, 64, /*kswapd=*/false);
    Tick t{};
    for (const Rec &r : block)
        t += vms->access(pid, r.va, r.write, t);
    const VmsStats &scalar = vms->stats();

    EXPECT_EQ(batched_end, t);
    EXPECT_EQ(batched.accesses, scalar.accesses);
    EXPECT_EQ(batched.llcHits, scalar.llcHits);
    EXPECT_EQ(batched.llcMisses, scalar.llcMisses);
    EXPECT_EQ(batched.coldFaults, scalar.coldFaults);
    EXPECT_EQ(batched.remoteFaults, scalar.remoteFaults);
    EXPECT_EQ(batched.swapCacheHits, scalar.swapCacheHits);
    EXPECT_EQ(batched.inflightWaits, scalar.inflightWaits);
    EXPECT_EQ(batched.accesses, block.size());
    EXPECT_EQ(batched.accesses, batched.llcHits + batched.llcMisses);
}

TEST_F(VmsTest, AccessBatchYieldsAtStopHorizon)
{
    // The per-access yield check: a horizon in the past stops the
    // drain after exactly one access (the check runs after, never
    // before, an access — a thread always makes progress), and the
    // drain resumes where it stopped. Four pages stay clear of the
    // kswapd watermark, so the queue stays empty throughout.
    struct Rec
    {
        VirtAddr va;
        bool write;
    };
    std::vector<Rec> block;
    for (std::uint64_t v = 0; v < 4; ++v)
        block.push_back({pageBase(Vpn{v}), false});

    std::size_t consumed = 0;
    Tick end = vms->accessBatch(pid, block.data(), block.size(), Tick{},
                                Tick{1}, &consumed);
    EXPECT_EQ(consumed, 1u);
    EXPECT_GE(end, Tick{1});
    EXPECT_EQ(vms->stats().accesses, 1u);

    std::size_t rest = 0;
    end = vms->accessBatch(pid, block.data() + consumed,
                           block.size() - consumed, end, maxTick, &rest);
    EXPECT_EQ(consumed + rest, block.size());
    EXPECT_EQ(vms->stats().accesses, block.size());
    EXPECT_EQ(vms->stats().accesses,
              vms->stats().llcHits + vms->stats().llcMisses);
}

TEST_F(VmsTest, WriteMarksPageDirtyAgain)
{
    Tick t = fill(9);
    t += touch(Vpn{0}, t); // refetch page 0: clean
    EXPECT_FALSE(vms->pageTable().find(pid, Vpn{0})->dirty);
    t += touch(Vpn{0}, t, /*write=*/true);
    EXPECT_TRUE(vms->pageTable().find(pid, Vpn{0})->dirty);
    EXPECT_FALSE(vms->pageTable().find(pid, Vpn{0})->hasSwapCopy);
}

TEST_F(VmsTest, StatsCountAccessesAndLlc)
{
    touch(Vpn{0});
    touch(Vpn{0});
    touch(Vpn{0});
    EXPECT_EQ(vms->stats().accesses, 3u);
    EXPECT_EQ(vms->stats().llcHits, 2u);
    EXPECT_EQ(vms->stats().llcMisses, 1u);
}

TEST_F(VmsTest, MultipleProcessesHaveIndependentCgroups)
{
    vms->createProcess(Pid{2}, 4);
    Tick t{};
    for (std::uint64_t v = 0; v < 8; ++v)
        t += touch(Vpn{v}, t);
    for (std::uint64_t v = 0; v < 5; ++v)
        t += vms->access(Pid{2}, pageBase(Vpn{v}), false, t);
    EXPECT_EQ(vms->cgroup(pid).charged(), 8u);
    EXPECT_EQ(vms->cgroup(Pid{2}).charged(), 4u);
    // Pid 2 evicted one of its own pages, not pid 1's.
    EXPECT_EQ(vms->pageTable().find(Pid{2}, Vpn{0})->state, PageState::Swapped);
    EXPECT_EQ(vms->pageTable().find(pid, Vpn{0})->state, PageState::Resident);
}


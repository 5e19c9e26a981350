/**
 * @file
 * Tests for the §IV extension features: huge-batch prefetching (many
 * consecutive pages in one RDMA transfer with PTE injection on
 * arrival) and trace-informed eviction advice.
 */

#include <gtest/gtest.h>

#include <set>

#include "hopp/hopp_system.hh"
#include "runner/machine.hh"

using namespace hopp;
using namespace hopp::core;
using namespace hopp::runner;

namespace
{

struct BatchRig
{
    static constexpr Pid pid{1};

    BatchRig()
    {
        vm::VmsConfig vcfg;
        vcfg.kswapdEnabled = false;
        // Unbounded second-chance scans: strict LRU order, so the
        // tests can predict exactly which pages get evicted.
        vcfg.secondChanceCap = 1u << 20;
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(256);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        llc = std::make_unique<mem::Llc>(mem::LlcConfig{16 << 10, 4});
        fabric =
            std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 16);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<vm::Vms>(*eq, *dram, *mc, *llc, *backend,
                                        vcfg);
        vms->createProcess(pid, 128);
    }

    Duration
    touch(Vpn v, Tick t)
    {
        return vms->access(pid, pageBase(v), false, t);
    }

    /** Cold-touch 0..n-1 then spill them out with fresh pages. */
    Tick
    spill(std::uint64_t n)
    {
        Tick t{};
        for (std::uint64_t v = 0; v < n; ++v)
            t += touch(Vpn{v}, t);
        for (std::uint64_t v = 1000; v < 1000 + 128; ++v)
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
};

} // namespace

TEST(BatchPrefetch, BundlesConsecutiveSwappedPages)
{
    BatchRig rig;
    Tick t = rig.spill(64); // pages 0..63 are remote now
    unsigned bundled =
        rig.vms->prefetchInjectBatch(BatchRig::pid, Vpn{0}, 32, 5, t);
    EXPECT_EQ(bundled, 32u);
    EXPECT_EQ(rig.backend->batchReads(), 1u);
    rig.eq->run();
    for (std::uint64_t v = 0; v < 32; ++v) {
        EXPECT_TRUE(rig.vms->pageTable().present(BatchRig::pid, Vpn{v}))
            << "vpn " << v;
        EXPECT_TRUE(
            rig.vms->pageTable().find(BatchRig::pid, Vpn{v})->injected);
    }
}

TEST(BatchPrefetch, SkipsNonSwappedPages)
{
    BatchRig rig;
    Tick t = rig.spill(8); // only 0..7 swapped; 8.. untouched
    unsigned bundled =
        rig.vms->prefetchInjectBatch(BatchRig::pid, Vpn{4}, 16, 5, t);
    EXPECT_EQ(bundled, 4u); // pages 4..7 only
    rig.eq->run();
    EXPECT_TRUE(rig.vms->pageTable().present(BatchRig::pid, Vpn{7}));
    EXPECT_EQ(rig.vms->pageTable().find(BatchRig::pid, Vpn{9}), nullptr);
}

TEST(BatchPrefetch, EmptyBundleIssuesNothing)
{
    BatchRig rig;
    Tick t{};
    for (std::uint64_t v = 0; v < 8; ++v)
        t += rig.touch(Vpn{v}, t); // all resident
    EXPECT_EQ(rig.vms->prefetchInjectBatch(BatchRig::pid, Vpn{0}, 8, 5, t),
              0u);
    EXPECT_EQ(rig.backend->batchReads(), 0u);
}

TEST(BatchPrefetch, OneTransferIsCheaperThanManySmall)
{
    // Serialization equal, but N-1 base latencies saved.
    net::LinkConfig cfg;
    sim::EventQueue eq;
    net::RdmaFabric fabric(eq, cfg);
    remote::RemoteNode node(1024);
    remote::SwapBackend backend(fabric, node);
    Tick batch_done = backend.readBatchAsync(32, Tick{}, [](Tick) {});
    sim::EventQueue eq2;
    net::RdmaFabric fabric2(eq2, cfg);
    remote::SwapBackend backend2(fabric2, node);
    Tick last{};
    for (int i = 0; i < 32; ++i)
        last = backend2.readAsync(Tick{}, [](Tick) {});
    EXPECT_LT(batch_done, last);
    eq.run();
    eq2.run();
}

TEST(BatchPrefetch, TrainerIssuesBatchesOnLongStreams)
{
    MachineConfig cfg;
    cfg.system = SystemKind::HoppOnly;
    cfg.localMemRatio = 0.5;
    cfg.hopp.batch.enabled = true;
    cfg.hopp.batch.minStreamLen = 64;
    cfg.hopp.batch.batchPages = 32;
    cfg.hopp.batch.everyHotPages = 16;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", {}));
    m.run();
    EXPECT_GT(m.hoppSystem()->trainer().stats().batchesIssued, 10u);
    EXPECT_GT(m.backend().batchReads(), 10u);
}

TEST(BatchPrefetch, DisabledByDefault)
{
    MachineConfig cfg;
    cfg.system = SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", {}));
    m.run();
    EXPECT_EQ(m.hoppSystem()->trainer().stats().batchesIssued, 0u);
    EXPECT_EQ(m.backend().batchReads(), 0u);
}

namespace
{

struct WarmAdvisor : vm::Vms::EvictionAdvisor
{
    std::set<Vpn> warm;
    int consulted = 0;

    bool
    keepWarm(Pid, Vpn vpn, Tick) override
    {
        ++consulted;
        return warm.count(vpn) > 0;
    }
};

} // namespace

TEST(EvictionAdvisor, WarmPagesSurviveReclaim)
{
    BatchRig rig;
    WarmAdvisor advisor;
    advisor.warm = {Vpn{0}, Vpn{1}};
    rig.vms->setEvictionAdvisor(&advisor);
    Tick t{};
    for (std::uint64_t v = 0; v < 128; ++v)
        t += rig.touch(Vpn{v}, t);
    // Next allocations must evict, but pages 0 and 1 get rotations.
    for (std::uint64_t v = 500; v < 510; ++v)
        t += rig.touch(Vpn{v}, t);
    EXPECT_GT(advisor.consulted, 0);
    EXPECT_TRUE(rig.vms->pageTable().present(BatchRig::pid, Vpn{0}));
    EXPECT_TRUE(rig.vms->pageTable().present(BatchRig::pid, Vpn{1}));
    // A cold page of the same vintage was evicted instead.
    EXPECT_FALSE(rig.vms->pageTable().present(BatchRig::pid, Vpn{2}));
}

TEST(EvictionAdvisor, HoppSystemTracksHotness)
{
    MachineConfig cfg;
    cfg.system = SystemKind::HoppOnly;
    cfg.localMemRatio = 0.5;
    cfg.hopp.evictionAdvisor = true;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("kmeans-omp", {}));
    auto r = m.run();
    EXPECT_GT(r.makespan, Tick{});
    // The advisor answered from real hot-page history: a page that was
    // just extracted must be warm at that instant.
    auto *h = m.hoppSystem();
    EXPECT_GT(h->hpd().stats().hotPages, 0u);
}

/**
 * @file
 * Fault-path latency histograms: classification, §II-A consistency of
 * the recorded latencies, and the percentile report.
 */

#include <gtest/gtest.h>

#include "obs/latency.hh"
#include "runner/machine.hh"
#include "vm/cost_model.hh"

using namespace hopp;
using namespace hopp::obs;
using namespace hopp::runner;

namespace
{

/** Run one workload and hand back the machine for inspection. */
struct LatencyRun
{
    Machine machine;

    LatencyRun(SystemKind system, double ratio, double footprint,
               const std::string &app = "microbench")
        : machine([&] {
              MachineConfig cfg;
              cfg.system = system;
              cfg.localMemRatio = ratio;
              return cfg;
          }())
    {
        workloads::WorkloadScale scale;
        scale.footprint = footprint;
        machine.addWorkload(workloads::makeWorkload(app, scale));
        machine.run();
    }

    const stats::Histogram &
    of(LatencyClass c)
    {
        return machine.faultLatency().of(c);
    }
};

} // namespace

TEST(FaultLatency, DramHitCostsExactlyTheDramHitCharge)
{
    // Early-injected pages resolve without a fault: every first touch
    // is charged the §II-A DRAM-hit occupancy, nothing more.
    LatencyRun r(SystemKind::Hopp, 0.5, 0.3);
    const stats::Histogram &h = r.of(LatencyClass::DramHit);
    ASSERT_GT(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.50), vm::CostModel::dramHit);
    EXPECT_EQ(h.percentile(0.99), vm::CostModel::dramHit);
}

TEST(FaultLatency, PrefetchHitIsTheKernelSwapcachePath)
{
    // A swapcache hit pays §II-A steps 1+2+3+6 = 2.3 us; queueing
    // never touches it, so the minimum is exactly that constant.
    LatencyRun r(SystemKind::Fastswap, 0.5, 0.3);
    const stats::Histogram &h = r.of(LatencyClass::PrefetchHit);
    ASSERT_GT(h.count(), 0u);
    EXPECT_EQ(h.min(), vm::CostModel::faultOverhead());
}

TEST(FaultLatency, RemoteFaultP50MatchesPaperWindow)
{
    // Demand page-ins under memory pressure: §II-A measures the full
    // path (kernel steps + RDMA transfer + direct reclaim / queueing)
    // at ~8.3-11.3 us. Low local ratio keeps reclaim on the critical
    // path, as in the paper's measurement.
    LatencyRun r(SystemKind::Fastswap, 0.1, 0.3);
    const stats::Histogram &h = r.of(LatencyClass::RemoteFault);
    ASSERT_GT(h.count(), 0u);
    std::uint64_t p50 = h.percentile(0.50);
    EXPECT_GE(p50, 8300u);
    EXPECT_LE(p50, 11300u);
}

TEST(FaultLatency, PercentilesAreMonotoneWithinEachClass)
{
    LatencyRun r(SystemKind::Fastswap, 0.3, 0.3);
    for (std::size_t i = 0; i < latencyClassCount; ++i) {
        const stats::Histogram &h =
            r.of(static_cast<LatencyClass>(i));
        if (h.count() == 0)
            continue;
        std::uint64_t p50 = h.percentile(0.50);
        std::uint64_t p90 = h.percentile(0.90);
        std::uint64_t p99 = h.percentile(0.99);
        EXPECT_LE(p50, p90);
        EXPECT_LE(p90, p99);
        EXPECT_GE(p50, h.min());
        EXPECT_LE(p99, h.max());
    }
}

TEST(FaultLatency, RemoteTransferIsRemoteFaultMinusKernelSteps)
{
    // The transfer histogram strips the fixed kernel overhead, so its
    // minimum plus 2.3 us equals the remote-fault minimum.
    LatencyRun r(SystemKind::Fastswap, 0.2, 0.3);
    const stats::Histogram &fault = r.of(LatencyClass::RemoteFault);
    const stats::Histogram &xfer = r.of(LatencyClass::RemoteTransfer);
    ASSERT_GT(fault.count(), 0u);
    ASSERT_EQ(xfer.count(), fault.count());
    EXPECT_EQ(xfer.min() + vm::CostModel::faultOverhead(), fault.min());
}

TEST(FaultLatency, DumpStatsReportsEveryNonEmptyClass)
{
    LatencyRun r(SystemKind::Fastswap, 0.3, 0.3);
    stats::StatSet s("latency");
    r.machine.faultLatency().dumpStats(s);
    bool saw_remote_p99 = false;
    for (const stats::StatValue &v : s.values())
        saw_remote_p99 |= v.name == "latency.remote_fault.p99_ns";
    EXPECT_TRUE(saw_remote_p99);
    // 5 scalars per non-empty class, never a partial group.
    EXPECT_EQ(s.values().size() % 5, 0u);
    EXPECT_GE(s.values().size(), 10u);
}

/**
 * @file
 * Fault-path latency recorder: a vm::PageEventListener sampling exact
 * Histograms (p50/p90/p99) for every access-resolution class the
 * paper's §II-A breakdown distinguishes:
 *
 *   dram_hit        first touch of an early-injected page (HoPP /
 *                   Depth-N): no fault, just the DRAM-hit charge
 *   prefetch_hit    swapcache hit, the 2.3 us kernel path
 *   cold_fault      first-touch zero-fill minor fault
 *   inflight_wait   fault that waited on an in-flight prefetch
 *   remote_fault    full demand page-in over RDMA (the paper's
 *                   8.3-11.3 us window)
 *   remote_transfer the remote_fault remainder after subtracting the
 *                   fixed §II-A kernel steps (1+2+3+6): RDMA
 *                   serialization + base latency + link queueing +
 *                   any direct reclaim — the load-dependent part
 */

#pragma once

#include <array>

#include "stats/stats.hh"
#include "vm/cost_model.hh"
#include "vm/listener.hh"

namespace hopp::obs
{

/** Access-resolution classes with their own latency histogram. */
enum class LatencyClass : std::uint8_t
{
    DramHit = 0,
    PrefetchHit,
    ColdFault,
    InflightWait,
    RemoteFault,
    RemoteTransfer,
};

inline constexpr std::size_t latencyClassCount = 6;

/** Stable snake_case name (stat keys, CSV columns). */
inline const char *
latencyClassName(LatencyClass c)
{
    switch (c) {
      case LatencyClass::DramHit: return "dram_hit";
      case LatencyClass::PrefetchHit: return "prefetch_hit";
      case LatencyClass::ColdFault: return "cold_fault";
      case LatencyClass::InflightWait: return "inflight_wait";
      case LatencyClass::RemoteFault: return "remote_fault";
      case LatencyClass::RemoteTransfer: return "remote_transfer";
    }
    return "?";
}

/**
 * The listener. Attach to a Vms; all sampling is exact (the
 * histograms keep every sample), so percentile queries have no
 * quantization error.
 */
class FaultLatency : public vm::PageEventListener
{
  public:
    void
    onPrefetchHit(Pid, Vpn, vm::Origin, Tick, Tick, bool dram_hit) override
    {
        // Injected pages resolve without a fault; their first touch
        // costs exactly the DRAM-hit charge.
        if (dram_hit)
            hist(LatencyClass::DramHit).sample(vm::CostModel::dramHit);
    }

    void
    onFaultResolved(Pid, Vpn, vm::FaultKind kind, Duration latency,
                    Tick) override
    {
        switch (kind) {
          case vm::FaultKind::Cold:
            hist(LatencyClass::ColdFault).sample(latency);
            break;
          case vm::FaultKind::SwapCacheHit:
            hist(LatencyClass::PrefetchHit).sample(latency);
            break;
          case vm::FaultKind::InflightWait:
            hist(LatencyClass::InflightWait).sample(latency);
            break;
          case vm::FaultKind::Remote:
            hist(LatencyClass::RemoteFault).sample(latency);
            // Strip the fixed §II-A kernel steps 1+2+3+6.
            hist(LatencyClass::RemoteTransfer)
                .sample(latency > vm::CostModel::faultOverhead()
                            ? latency - vm::CostModel::faultOverhead()
                            : 0);
            break;
        }
    }

    /** Histogram of one class. */
    const stats::Histogram &
    of(LatencyClass c) const
    {
        return hists_[static_cast<std::size_t>(c)];
    }

    /**
     * Record count/mean/p50/p90/p99 of every non-empty class into a
     * StatSet (keys `<class>.p50_ns` etc.).
     */
    void
    dumpStats(stats::StatSet &s) const
    {
        for (std::size_t i = 0; i < latencyClassCount; ++i) {
            const stats::Histogram &h = hists_[i];
            if (h.count() == 0)
                continue;
            std::string p(latencyClassName(static_cast<LatencyClass>(i)));
            s.record(p + ".count", static_cast<double>(h.count()),
                     "samples");
            s.record(p + ".mean_ns", h.mean(), "mean latency");
            s.record(p + ".p50_ns",
                     static_cast<double>(h.percentile(0.50)),
                     "median latency");
            s.record(p + ".p90_ns",
                     static_cast<double>(h.percentile(0.90)),
                     "90th percentile");
            s.record(p + ".p99_ns",
                     static_cast<double>(h.percentile(0.99)),
                     "99th percentile");
        }
    }

  private:
    stats::Histogram &
    hist(LatencyClass c)
    {
        return hists_[static_cast<std::size_t>(c)];
    }

    std::array<stats::Histogram, latencyClassCount> hists_;
};

} // namespace hopp::obs


/**
 * @file
 * Leap's majority-based prefetcher (Maruf & Chowdhury, ATC'20; the
 * paper's state-of-the-art baseline, §II-B). Detects the majority
 * stride over a window of recent *fault* addresses (that is all a
 * kernel-based system can see) and prefetches along it into the
 * swapcache, with a hit-rate-adaptive prefetch window.
 */

#pragma once

#include <deque>

#include "prefetch/prefetcher.hh"
#include "vm/vms.hh"

namespace hopp::prefetch
{

/** Leap knobs. */
struct LeapConfig
{
    /** Initial prefetch depth along the detected stride. */
    unsigned initialDepth = 4;

    /** Faults per depth-adaptation epoch. */
    unsigned epochFaults = 32;
};

/**
 * Majority-stride prefetcher over fault addresses.
 *
 * Also a PageEventListener: it watches its own prefetch hits to adapt
 * the prefetch depth, exactly the feedback Leap gets from swapcache
 * hits (and which early PTE injection would destroy, §II-C).
 */
class Leap : public Prefetcher, public vm::PageEventListener
{
  public:
    /** Fault-address history capacity. */
    static constexpr unsigned historySize = 32;

    /** Smallest majority window tried (doubles up to historySize). */
    static constexpr unsigned minWindow = 4;

    /** Max prefetch depth. */
    static constexpr unsigned maxDepth = 32;

    /** Hit ratio above which the depth doubles (else halves). */
    static constexpr double growThreshold = 0.5;

    /** Depth of the no-trend sequential fallback. */
    static constexpr unsigned fallbackDepth = 2;

    Leap(vm::Vms &vms, const LeapConfig &cfg = {})
        : vms_(vms), cfg_(cfg), depth_(cfg.initialDepth)
    {
    }

    void onFault(const vm::FaultContext &ctx) override;

    // PageEventListener: self-observation for depth adaptation.
    void
    onPrefetchCompleted(Pid, Vpn, vm::Origin o, Tick, bool) override
    {
        if (o == origin::leap)
            ++completed_;
    }

    void
    onPrefetchHit(Pid, Vpn, vm::Origin o, Tick, Tick, bool) override
    {
        if (o == origin::leap)
            ++hits_;
    }

    /** Current adaptive prefetch depth (tests/benches). */
    unsigned depth() const { return depth_; }

    /**
     * Majority stride over the last window of fault addresses, or 0
     * when no stride reaches a majority. Exposed for the §II-B
     * motivation study.
     */
    std::int64_t detectStride() const;

  private:
    void adaptDepth();

    vm::Vms &vms_;
    LeapConfig cfg_;
    std::deque<std::pair<Pid, Vpn>> history_;
    unsigned depth_;
    std::uint64_t faults_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t epochCompleted_ = 0;
    std::uint64_t epochHits_ = 0;
};

} // namespace hopp::prefetch


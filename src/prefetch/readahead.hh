/**
 * @file
 * Fastswap-style swap readahead (§II-B "strict-pattern prefetcher"):
 * on every fault, fetch the cluster of pages whose swap slots surround
 * the faulting page's slot — Linux's offset-based readahead.
 *
 * Like Linux's swap readahead, the cluster size adapts to the recent
 * readahead hit rate (vm.page-cluster caps it at 8): when its fetches
 * stop being hit — e.g. because a better prefetcher already covers the
 * stream — the window backs off instead of wasting link bandwidth.
 */

#pragma once

#include <algorithm>

#include "prefetch/prefetcher.hh"
#include "remote/swap_backend.hh"
#include "vm/vms.hh"

namespace hopp::prefetch
{

/** Readahead knobs. */
struct ReadaheadConfig
{
    /** Max cluster fetched around the faulting slot (page-cluster). */
    unsigned maxWindow = 8;

    /** Smallest adaptive window. */
    unsigned minWindow = 2;

    /** Faults per window-adaptation epoch. */
    unsigned epochFaults = 64;

    /** Hit ratio above which the window grows. */
    double growThreshold = 0.5;

    /** Hit ratio below which the window halves. */
    double shrinkThreshold = 0.25;
};

/**
 * Swap-offset cluster readahead into the swapcache.
 */
class Readahead : public Prefetcher, public vm::PageEventListener
{
  public:
    Readahead(vm::Vms &vms, remote::SwapBackend &backend,
              const ReadaheadConfig &cfg = {})
        : vms_(vms), backend_(backend), cfg_(cfg),
          window_(cfg.maxWindow)
    {
    }

    std::string name() const override { return "fastswap-readahead"; }

    vm::Origin origin() const override { return origin::readahead; }

    void
    onFault(const vm::FaultContext &ctx) override
    {
        if (++faults_ % cfg_.epochFaults == 0)
            adaptWindow();
        if (ctx.slot == remote::noSlot)
            return;
        backend_.forEachNeighbor(
            ctx.slot, window_ / 2, window_ / 2,
            [this, &ctx](const remote::SlotOwner &owner) {
                vms_.prefetchToSwapCache(owner.pid, owner.vpn,
                                         origin::readahead, ctx.now);
            });
    }

    // Self-observation for window adaptation (swapcache hits are the
    // only feedback kernel readahead gets).
    void
    onPrefetchCompleted(Pid, Vpn, vm::Origin o, Tick, bool) override
    {
        if (o == origin::readahead)
            ++completed_;
    }

    void
    onPrefetchHit(Pid, Vpn, vm::Origin o, Tick, Tick, bool) override
    {
        if (o == origin::readahead)
            ++hits_;
    }

    /** Current adaptive window (tests). */
    unsigned window() const { return window_; }

  private:
    void
    adaptWindow()
    {
        std::uint64_t c = completed_ - epochCompleted_;
        std::uint64_t h = hits_ - epochHits_;
        epochCompleted_ = completed_;
        epochHits_ = hits_;
        if (c == 0)
            return;
        double ratio = static_cast<double>(h) / static_cast<double>(c);
        if (ratio > cfg_.growThreshold)
            window_ = std::min(window_ * 2, cfg_.maxWindow);
        else if (ratio < cfg_.shrinkThreshold)
            window_ = std::max(window_ / 2, cfg_.minWindow);
    }

    vm::Vms &vms_;
    remote::SwapBackend &backend_;
    ReadaheadConfig cfg_;
    unsigned window_;
    std::uint64_t faults_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t epochCompleted_ = 0;
    std::uint64_t epochHits_ = 0;
};

} // namespace hopp::prefetch


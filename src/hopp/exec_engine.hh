/**
 * @file
 * Prefetch execution engine (§III-F): deduplicates requests, reads
 * pages from remote over RDMA, and injects PTEs the moment pages
 * arrive. Tracks each outstanding injected page's stream and tier so
 * the policy engine receives timeliness feedback and Figures 19/20 can
 * report per-tier accuracy/coverage.
 */

#pragma once

#include <cstdint>
#include <unordered_map>

#include "hopp/algorithms.hh"
#include "hopp/policy.hh"
#include "hopp/prefetch_sink.hh"
#include "prefetch/prefetcher.hh"
#include "vm/page.hh"
#include "vm/vms.hh"

namespace hopp::core
{

/** Per-tier issue/hit accounting for the Fig. 18-20 ablations. */
struct TierStats
{
    std::uint64_t requested = 0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictedUnused = 0;

    double
    accuracy() const
    {
        return completed ? static_cast<double>(hits) /
                               static_cast<double>(completed)
                         : 0.0;
    }
};

/**
 * The execution engine: the live-simulation PrefetchSink.
 */
class ExecEngine : public PrefetchSink
{
  public:
    ExecEngine(vm::Vms &vms, PolicyEngine &policy)
        : vms_(vms), policy_(policy)
    {
    }

    /** Request a prefetch of (pid, vpn) on behalf of a stream. */
    void
    request(Pid pid, Vpn vpn, std::uint64_t stream_id, Tier tier,
            Tick now) override
    {
        TierStats &ts = tierStats_[static_cast<unsigned>(tier)];
        ++ts.requested;
        auto result =
            vms_.prefetchInject(pid, vpn, prefetch::origin::hopp, now);
        switch (result) {
          case vm::Vms::InjectResult::NotIssued:
            // Duplicate / resident / in-flight: dropped by the dedup
            // check (§III-F).
            ++deduped_;
            return;
          case vm::Vms::InjectResult::Adopted:
            ++ts.issued;
            ++ts.completed; // data was already local
            break;
          case vm::Vms::InjectResult::Issued:
          case vm::Vms::InjectResult::Joined:
            ++ts.issued;
            break;
        }
        outstanding_[vm::pageKey(pid, vpn)] = Meta{stream_id, tier};
    }

    /**
     * Batched request (§IV huge-page direction): bundle up to
     * @p count consecutive pages from @p vpn into one RDMA transfer.
     * @return pages actually bundled.
     */
    unsigned
    requestBatch(Pid pid, Vpn vpn, unsigned count,
                 std::uint64_t stream_id, Tier tier, Tick now) override
    {
        TierStats &ts = tierStats_[static_cast<unsigned>(tier)];
        ts.requested += count;
        unsigned bundled = vms_.prefetchInjectBatch(
            pid, vpn, count, prefetch::origin::hopp, now);
        ts.issued += bundled;
        deduped_ += count - bundled;
        // Track exactly the pages now in flight for injection.
        for (unsigned i = 0; i < count; ++i) {
            const vm::PageInfo *pi = vms_.pageTable().find(pid, vpn + i);
            if (pi && pi->inflight && pi->injectOnArrival &&
                pi->origin == prefetch::origin::hopp) {
                outstanding_[vm::pageKey(pid, vpn + i)] =
                    Meta{stream_id, tier};
            }
        }
        return bundled;
    }

    /** A HoPP prefetch finished loading (PTE injected). */
    void
    onCompleted(Pid pid, Vpn vpn)
    {
        auto it = outstanding_.find(vm::pageKey(pid, vpn));
        if (it == outstanding_.end())
            return;
        ++tierStats_[static_cast<unsigned>(it->second.tier)].completed;
    }

    /** First touch of an injected page: feed timeliness to policy. */
    void
    onHit(Pid pid, Vpn vpn, Tick ready_at, Tick hit_at)
    {
        auto it = outstanding_.find(vm::pageKey(pid, vpn));
        if (it == outstanding_.end())
            return;
        ++tierStats_[static_cast<unsigned>(it->second.tier)].hits;
        policy_.feedback(it->second.streamId, ready_at, hit_at);
        outstanding_.erase(it);
    }

    /** An injected page was reclaimed unused. */
    void
    onEvicted(Pid pid, Vpn vpn)
    {
        auto it = outstanding_.find(vm::pageKey(pid, vpn));
        if (it == outstanding_.end())
            return;
        ++tierStats_[static_cast<unsigned>(it->second.tier)]
              .evictedUnused;
        outstanding_.erase(it);
    }

    /** Stats of one tier. */
    const TierStats &
    tierStats(Tier t) const
    {
        return tierStats_[static_cast<unsigned>(t)];
    }

    /** Requests dropped by dedup. */
    std::uint64_t deduped() const { return deduped_; }

    /** Prefetches in flight or injected-unreferenced. */
    std::size_t
    outstanding() const override
    {
        return outstanding_.size();
    }

  private:
    struct Meta
    {
        std::uint64_t streamId;
        Tier tier;
    };

    vm::Vms &vms_;
    PolicyEngine &policy_;
    std::unordered_map<std::uint64_t, Meta> outstanding_;
    TierStats tierStats_[tierCount];
    std::uint64_t deduped_ = 0;
};

} // namespace hopp::core


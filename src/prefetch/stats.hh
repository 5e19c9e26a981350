/**
 * @file
 * Prefetch metric accounting, implementing the paper's §VI-A metrics:
 *
 *  - accuracy  = prefetch hits / completed prefetches,
 *  - coverage  = prefetch hits / (demand remote reads + prefetch hits),
 *
 * plus, per origin, the hits that came before their page's data
 * arrived (lateHits), the "issued too late" share of timeliness.
 *
 * Tracked per origin so a machine running Fastswap readahead *and* the
 * HoPP engine (the paper's deployment, §V) reports both parts, as
 * Figure 11 splits coverage into swapcache hits vs DRAM hits.
 */

#pragma once

#include <array>
#include <cstdint>

#include "vm/listener.hh"

namespace hopp::prefetch
{

/** Per-origin prefetch counters. */
struct OriginStats
{
    std::uint64_t completed = 0;
    std::uint64_t hits = 0;
    std::uint64_t dramHits = 0;      //!< injected-PTE hits (no fault)
    std::uint64_t swapCacheHits = 0; //!< 2.3 us prefetch-hits
    std::uint64_t evictedUnused = 0;
    std::uint64_t lateHits = 0; //!< hit before (or at) data arrival

    /** §VI-A accuracy of this origin. */
    double
    accuracy() const
    {
        return completed ? static_cast<double>(hits) /
                               static_cast<double>(completed)
                         : 0.0;
    }
};

/**
 * VMS listener computing the paper's prefetch metrics.
 */
class PrefetchStats : public vm::PageEventListener
{
  public:
    static constexpr std::size_t maxOrigins = 8;

    void
    onDemandRemote(Pid, Vpn, Tick) override
    {
        ++demandRemote_;
    }

    void
    onPrefetchCompleted(Pid, Vpn, vm::Origin o, Tick, bool) override
    {
        ++originStats_[o].completed;
    }

    void
    onPrefetchHit(Pid, Vpn, vm::Origin o, Tick ready_at, Tick hit_at,
                  bool dram_hit) override
    {
        OriginStats &s = originStats_[o];
        ++s.hits;
        if (dram_hit)
            ++s.dramHits;
        else
            ++s.swapCacheHits;
        if (hit_at <= ready_at)
            ++s.lateHits;
    }

    void
    onPrefetchEvicted(Pid, Vpn, vm::Origin o, Tick) override
    {
        ++originStats_[o].evictedUnused;
    }

    /** Counters of one origin. */
    const OriginStats &
    forOrigin(vm::Origin o) const
    {
        return originStats_[o];
    }

    /** Demand remote page reads (prefetch misses). */
    std::uint64_t demandRemote() const { return demandRemote_; }

    /** Total prefetch hits over all origins. */
    std::uint64_t
    totalHits() const
    {
        std::uint64_t n = 0;
        for (const auto &s : originStats_)
            n += s.hits;
        return n;
    }

    /** Total completed prefetches over all origins. */
    std::uint64_t
    totalCompleted() const
    {
        std::uint64_t n = 0;
        for (const auto &s : originStats_)
            n += s.completed;
        return n;
    }

    /** Combined §VI-A accuracy over all origins. */
    double
    accuracy() const
    {
        std::uint64_t c = totalCompleted();
        return c ? static_cast<double>(totalHits()) /
                       static_cast<double>(c)
                 : 0.0;
    }

    /** Combined §VI-A coverage over all origins. */
    double
    coverage() const
    {
        std::uint64_t h = totalHits();
        std::uint64_t denom = demandRemote_ + h;
        return denom ? static_cast<double>(h) /
                           static_cast<double>(denom)
                     : 0.0;
    }

    /** Coverage counting only DRAM (injected) hits, as Figure 21. */
    double
    dramHitCoverage() const
    {
        std::uint64_t h = 0;
        for (const auto &s : originStats_)
            h += s.dramHits;
        std::uint64_t all = totalHits();
        std::uint64_t denom = demandRemote_ + all;
        return denom ? static_cast<double>(h) /
                           static_cast<double>(denom)
                     : 0.0;
    }

  private:
    std::array<OriginStats, maxOrigins> originStats_{};
    std::uint64_t demandRemote_ = 0;
};

} // namespace hopp::prefetch


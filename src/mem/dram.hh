/**
 * @file
 * Local DRAM model: a physical frame allocator plus traffic accounting.
 *
 * Traffic is tallied per source so the Table V experiment can report the
 * share of bandwidth consumed by HoPP's hot-page writes and RPT queries
 * relative to application traffic.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::mem
{

/** Who generated a DRAM transfer; drives Table V accounting. */
enum class TrafficSource : unsigned
{
    AppRead = 0,     //!< demand LLC-miss reads
    AppWrite,        //!< writebacks / fills on behalf of the app
    PageTransfer,    //!< 4 KB page DMA from/to the RDMA NIC
    HotPageWrite,    //!< HPD writing (PID, VPN) combos to the ring
    RptQuery,        //!< RPT cache misses reading the DRAM RPT
    RptUpdate,       //!< RPT cache dirty write-backs to the DRAM RPT
    NumSources,
};

/**
 * Local DRAM: fixed number of 4 KB frames with a free list, plus
 * per-source byte counters.
 */
class Dram
{
  public:
    /** @param frames number of 4 KB frames of local DRAM. */
    explicit Dram(std::uint64_t frames);

    /** Frames in the module. */
    std::uint64_t totalFrames() const { return total_; }

    /** Frames currently unallocated. */
    std::uint64_t freeFrames() const
    {
        return static_cast<std::uint64_t>(freeList_.size());
    }

    /** Frames currently allocated. */
    std::uint64_t usedFrames() const { return total_ - freeFrames(); }

    /** True when an allocation would fail. */
    bool exhausted() const { return freeList_.empty(); }

    /**
     * Allocate one frame, drawn pseudo-randomly from the free list the
     * way a long-running buddy allocator hands out effectively
     * arbitrary frames. (LIFO reuse would make swapped-in pages
     * physically contiguous in access order — an unrealistically
     * conflict-friendly LLC layout.)
     *
     * @return its PPN; panics when empty (callers must reclaim first).
     */
    Ppn allocate();

    /** Return a frame to the free list. */
    void release(Ppn ppn);

    /** Record a transfer of @p bytes attributed to @p src. */
    void
    recordTraffic(TrafficSource src, std::uint64_t bytes)
    {
        traffic_[static_cast<unsigned>(src)] += bytes;
    }

    /** Bytes transferred for one source. */
    std::uint64_t
    traffic(TrafficSource src) const
    {
        return traffic_[static_cast<unsigned>(src)];
    }

    /** Bytes across all sources. */
    std::uint64_t totalTraffic() const;

  private:
    friend class hopp::check::Access;

    std::uint64_t total_;
    Ppn base_; // first PPN managed by this module
    Pcg32 rng_{0x0ddba11};
    std::vector<Ppn> freeList_;
    std::vector<bool> allocated_;
    std::uint64_t traffic_[static_cast<unsigned>(
        TrafficSource::NumSources)] = {};
};

} // namespace hopp::mem


/**
 * @file
 * Swap backend bridging the VMS to the remote memory node over RDMA.
 *
 * Owns the slot <-> (pid, vpn) mapping that swap-offset based
 * prefetchers (Fastswap readahead) consult, and turns page-in/page-out
 * requests into 4 KB RDMA transfers on the shared fabric.
 */

#pragma once

#include <optional>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "net/rdma.hh"
#include "remote/remote_node.hh"

namespace hopp::remote
{

/** Owner of one swap slot. */
struct SlotOwner
{
    Pid pid;
    Vpn vpn;
};

/**
 * Swap backend: slot management + page transfer issue.
 */
class SwapBackend
{
  public:
    SwapBackend(net::RdmaFabric &fabric, RemoteNode &node)
        : fabric_(fabric), node_(node)
    {
        // The node provisions ~2x the combined footprint; at most half
        // of it is ever live at once, so sizing for that bound means
        // the reverse map never rehashes on the eviction path.
        owners_.reserve(node.capacity() / 2);
    }

    /** Allocate a slot for (pid, vpn); records the reverse mapping. */
    SwapSlot
    allocate(Pid pid, Vpn vpn)
    {
        SwapSlot slot = node_.allocate();
        owners_[slot] = SlotOwner{pid, vpn};
        return slot;
    }

    /** Free a slot (page dropped or process exit). */
    void
    release(SwapSlot slot)
    {
        owners_.erase(slot);
        node_.release(slot);
    }

    /** Reverse-map a slot to its page, if live. */
    std::optional<SlotOwner>
    owner(SwapSlot slot) const
    {
        const SlotOwner *o = owners_.find(slot);
        if (!o)
            return std::nullopt;
        return *o;
    }

    /**
     * Pages owning the slots in [slot - before, slot + after], excluding
     * @p slot itself. This is the neighbourhood swap-offset readahead
     * fetches around a faulting slot.
     */
    std::vector<SlotOwner>
    neighbors(SwapSlot slot, std::uint64_t before,
              std::uint64_t after) const
    {
        std::vector<SlotOwner> out;
        SwapSlot lo = slot >= before ? slot - before : 0;
        for (SwapSlot s = lo; s <= slot + after; ++s) {
            if (s == slot)
                continue;
            if (const SlotOwner *o = owners_.find(s))
                out.push_back(*o);
        }
        return out;
    }

    /**
     * Synchronous demand page-in: reserves fabric time and returns the
     * completion tick. The caller (fault handler) stalls until then.
     */
    Tick
    demandRead(Tick now)
    {
        ++demandReads_;
        return fabric_.read(pageBytes, now);
    }

    /** Asynchronous page-in for prefetching. The completion callback is
     *  forwarded into the event queue's inline storage (no allocation;
     *  capture size checked at compile time). */
    template <typename F>
    Tick
    readAsync(Tick now, F &&done)
    {
        ++prefetchReads_;
        return fabric_.readAsync(pageBytes, now, std::forward<F>(done));
    }

    /**
     * Asynchronous multi-page read in one RDMA transfer (huge-batch
     * prefetching, §IV): one base latency for @p pages pages.
     */
    template <typename F>
    Tick
    readBatchAsync(std::uint64_t pages, Tick now, F &&done)
    {
        prefetchReads_ += pages;
        ++batchReads_;
        return fabric_.readAsync(pages * pageBytes, now,
                                 std::forward<F>(done));
    }

    /** Asynchronous page-out (reclaim writeback). */
    template <typename F>
    Tick
    writeAsync(Tick now, F &&done)
    {
        ++writebacks_;
        return fabric_.writeAsync(pageBytes, now, std::forward<F>(done));
    }

    /** Fire-and-forget page-out when nobody needs the completion. */
    Tick
    write(Tick now)
    {
        ++writebacks_;
        return fabric_.write(pageBytes, now);
    }

    /** Demand (fault-path) page reads issued. */
    std::uint64_t demandReads() const { return demandReads_; }

    /** Prefetch page reads issued. */
    std::uint64_t prefetchReads() const { return prefetchReads_; }

    /** Page writebacks issued. */
    std::uint64_t writebacks() const { return writebacks_; }

    /** Multi-page batch reads issued. */
    std::uint64_t batchReads() const { return batchReads_; }

    /** Live slot -> page mappings (for tests). */
    std::size_t liveMappings() const { return owners_.size(); }

  private:
    net::RdmaFabric &fabric_;
    RemoteNode &node_;
    /// Flat open-addressed reverse map (PR 4 idiom): slot lookups sit
    /// on the readahead neighbourhood scan, where probing a contiguous
    /// slot array beats chasing unordered_map nodes.
    FlatU64Map<SlotOwner> owners_;
    std::uint64_t demandReads_ = 0;
    std::uint64_t prefetchReads_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t batchReads_ = 0;
};

} // namespace hopp::remote


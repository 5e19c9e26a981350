/**
 * @file
 * Swap backend bridging the VMS to the remote memory node over RDMA.
 *
 * Owns the slot <-> (pid, vpn) mapping that swap-offset based
 * prefetchers (Fastswap readahead) consult, and turns page-in/page-out
 * requests into 4 KB RDMA transfers on the shared fabric.
 */

#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/logging.hh"
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
        // Reserved, not built: the node hands slot ids out densely from
        // 0, so the table only ever touches slots below its high-water
        // mark, and appending one never reallocates.
        owners_.reserve(node.capacity());
    }

    /** Allocate a slot for (pid, vpn); records the reverse mapping. */
    SwapSlot
    allocate(Pid pid, Vpn vpn)
    {
        SwapSlot slot = node_.allocate();
        hopp_assert(slot <= owners_.size(), "swap slot ids are not dense");
        const Entry e{vpn, pid, true};
        if (slot == owners_.size())
            owners_.push_back(e);
        else
            owners_[slot] = e;
        ++live_;
        return slot;
    }

    /** Free a slot (page dropped or process exit). */
    void
    release(SwapSlot slot)
    {
        hopp_assert(slot < owners_.size() && owners_[slot].live,
                    "release of a slot with no owner");
        owners_[slot].live = false;
        --live_;
        node_.release(slot);
    }

    /** Reverse-map a slot to its page, if live. */
    std::optional<SlotOwner>
    owner(SwapSlot slot) const
    {
        if (slot >= owners_.size() || !owners_[slot].live)
            return std::nullopt;
        return owners_[slot].owner();
    }

    /**
     * Call @p fn(SlotOwner) for each live slot in [slot - before,
     * slot + after], excluding @p slot itself, in ascending slot
     * order. This is the neighbourhood swap-offset readahead fetches
     * around a faulting slot. The window is read as it is visited, so
     * @p fn must not allocate or release slots.
     */
    template <typename Fn>
    void
    forEachNeighbor(SwapSlot slot, std::uint64_t before,
                    std::uint64_t after, Fn &&fn) const
    {
        SwapSlot lo = slot >= before ? slot - before : 0;
        SwapSlot end = std::min<SwapSlot>(slot + after + 1, owners_.size());
        for (SwapSlot s = lo; s < end; ++s) {
            if (s != slot && owners_[s].live)
                fn(owners_[s].owner());
        }
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
    std::size_t liveMappings() const { return live_; }

  private:
    /** One slot's owner, laid out in SlotOwner's 16 bytes. */
    struct Entry
    {
        Vpn vpn;
        Pid pid;
        bool live = false;

        SlotOwner owner() const { return SlotOwner{pid, vpn}; }
    };

    net::RdmaFabric &fabric_;
    RemoteNode &node_;
    /// Owner of every slot the node has handed out, indexed by slot:
    /// a lookup is one index, and the readahead window is a
    /// contiguous scan.
    std::vector<Entry> owners_;
    std::size_t live_ = 0;
    std::uint64_t demandReads_ = 0;
    std::uint64_t prefetchReads_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t batchReads_ = 0;
};

} // namespace hopp::remote


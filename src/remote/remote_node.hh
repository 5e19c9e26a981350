/**
 * @file
 * The memory node: a passive slab of 4 KB swap slots reachable over
 * RDMA. Mirrors the paper's second server (6 x 8 GB DRAM) that "provides
 * remote memory" and runs no compute.
 */

#pragma once

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace hopp::remote
{

/** Identifier of one remote 4 KB slot. */
using SwapSlot = std::uint64_t;

/** Sentinel for "no slot". */
inline constexpr SwapSlot noSlot = ~SwapSlot(0);

/**
 * Remote memory node: allocates swap slots in ascending order, so that
 * slot adjacency mirrors eviction adjacency, which is what swap-offset
 * based readahead exploits. A slot goes to one page and stays with it
 * for the whole run: slots are never freed, so none is recycled.
 */
class RemoteNode
{
  public:
    /** @param slots capacity of the node in 4 KB slots. */
    explicit RemoteNode(std::uint64_t slots) : capacity_(slots) {}

    /** Allocate one slot; panics when the node is full. */
    SwapSlot
    allocate()
    {
        hopp_assert(next_ < capacity_, "remote memory node full");
        return next_++;
    }

    /** Slots allocated so far (every one of them is live). */
    std::uint64_t liveSlots() const { return next_; }

    /** Total capacity. */
    std::uint64_t capacity() const { return capacity_; }

  private:
    std::uint64_t capacity_;
    std::uint64_t next_ = 0;
};

} // namespace hopp::remote


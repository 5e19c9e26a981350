/**
 * @file
 * Ring buffer in "reserved DRAM" carrying records from the MC-side
 * hardware to consuming software: HPD's hot-page ring (step 2 of
 * Figure 4, core::HotPageRing). Bounded: when software lags, the
 * hardware drops records and counts them.
 *
 * The storage is reserved by capacity but touched by occupancy: the
 * constructor reserves and constructs nothing, a slot is appended the
 * first time it is written, and the read cursor returns to slot 0
 * whenever a pop empties the ring. HoPP software drains the ring to
 * empty on every pass, so the ring keeps reusing its low slots and its
 * storage never grows past the high-water occupancy: at most six
 * records in a default-scale run, of HoppConfig::ringCapacity's 65,536.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"

namespace hopp::trace
{

/**
 * Fixed-capacity single-producer single-consumer ring.
 */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : capacity_(capacity)
    {
        hopp_assert(capacity > 0, "ring needs capacity");
        buf_.reserve(capacity);
    }

    /** @return false (and counts a drop) when the ring is full. */
    bool
    push(const T &item)
    {
        if (size_ == capacity_) {
            ++dropped_;
            return false;
        }
        std::size_t tail = head_ + size_;
        if (tail >= capacity_)
            tail -= capacity_;
        // Slots [0, buf_.size()) have been written; the tail is at most
        // one past them, so a slot never written is appended.
        if (tail == buf_.size())
            appendSlot(item);
        else
            buf_[tail] = item;
        ++size_;
        ++pushed_;
        return true;
    }

    /** Pop the oldest record. */
    std::optional<T>
    pop()
    {
        if (size_ == 0)
            return std::nullopt;
        T item = buf_[head_];
        if (--size_ == 0)
            head_ = 0;
        else if (++head_ == capacity_)
            head_ = 0;
        return item;
    }

    /** Records currently queued. */
    std::size_t size() const { return size_; }

    /** True when nothing is queued. */
    bool empty() const { return size_ == 0; }

    /** Capacity in records. */
    std::size_t capacity() const { return capacity_; }

    /** Records dropped because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Records ever accepted. */
    std::uint64_t pushed() const { return pushed_; }

  private:
    /**
     * First write of a slot. It runs once per slot over the ring's
     * life, so it stays out of line. Inlined into a caller whose ring
     * state is known, GCC 12 at -O3 reports a false -Warray-bounds on
     * push_back's reallocation path, which the constructor's reserve
     * makes unreachable.
     */
    [[gnu::noinline]] void
    appendSlot(const T &item)
    {
        buf_.push_back(item);
    }

    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t pushed_ = 0;
};

} // namespace hopp::trace


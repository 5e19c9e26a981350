/**
 * @file
 * Ring buffer in "reserved DRAM" carrying records from the MC-side
 * hardware to consuming software: HPD's hot-page ring (step 2 of
 * Figure 4, core::HotPageRing). Bounded: when software lags, the
 * hardware drops records and counts them.
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
    explicit RingBuffer(std::size_t capacity)
        : buf_(capacity), capacity_(capacity)
    {
        hopp_assert(capacity > 0, "ring needs capacity");
    }

    /** @return false (and counts a drop) when the ring is full. */
    bool
    push(const T &item)
    {
        if (size_ == capacity_) {
            ++dropped_;
            return false;
        }
        buf_[(head_ + size_) % capacity_] = item;
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
        head_ = (head_ + 1) % capacity_;
        --size_;
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
    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t pushed_ = 0;
};

} // namespace hopp::trace


/**
 * @file
 * Access-stream abstraction for the synthetic application models.
 *
 * Workloads are streaming generators of virtual-address accesses at
 * cacheline granularity; they are never materialised, so footprints and
 * iteration counts can be large. Composition (phases, interleaving)
 * happens through combinator generators.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace hopp::workloads
{

/** One application memory access. */
struct Access
{
    VirtAddr va;
    bool write = false;
};

/**
 * Streaming access generator. next() produces the following access or
 * returns false at the end of the workload.
 */
class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /** Produce the next access. @return false at end-of-stream. */
    virtual bool next(Access &out) = 0;

    /**
     * Fill @p out with up to @p n accesses and return how many were
     * produced. A short count means end-of-stream: every later call
     * returns 0. The sequence is exactly what repeated next() calls
     * would produce (the batched pump relies on that; the randomized
     * oracle test test_generator_batch.cc enforces it). The default
     * loops the virtual next(); concrete generators override with a
     * devirtualized tight loop.
     */
    virtual std::size_t
    nextBatch(Access *out, std::size_t n)
    {
        std::size_t i = 0;
        while (i < n && next(out[i]))
            ++i;
        return i;
    }
};

/** Owning pointer alias used throughout the workload library. */
using GeneratorPtr = std::unique_ptr<AccessGenerator>;

/**
 * Run several generators one after another (application phases, e.g.
 * the GraphX job whose footprint grows in thirds, §VI).
 */
class PhasedGen : public AccessGenerator
{
  public:
    explicit PhasedGen(std::vector<GeneratorPtr> phases)
        : phases_(std::move(phases))
    {
    }

    bool
    next(Access &out) override
    {
        while (idx_ < phases_.size()) {
            if (phases_[idx_]->next(out))
                return true;
            ++idx_;
        }
        return false;
    }

    std::size_t
    nextBatch(Access *out, std::size_t n) override
    {
        std::size_t filled = 0;
        while (filled < n && idx_ < phases_.size()) {
            filled += phases_[idx_]->nextBatch(out + filled, n - filled);
            // A short sub-fill means the phase ended; a full block may
            // leave an exactly-drained phase current, which the next
            // call advances past (same as next()'s lazy hand-over).
            if (filled < n)
                ++idx_;
        }
        return filled;
    }

  private:
    std::vector<GeneratorPtr> phases_;
    std::size_t idx_ = 0;
};

/**
 * Round-robin burst interleaving of several sub-streams, modelling
 * intra-thread mixing of concurrent access streams (§II-B's motivating
 * scenario: multiple page streams accessed alternately).
 */
class InterleaveGen : public AccessGenerator
{
  public:
    /** @param burst accesses taken from one sub-stream per turn. */
    InterleaveGen(std::vector<GeneratorPtr> subs, unsigned burst)
        : subs_(std::move(subs)), burst_(burst ? burst : 1)
    {
        done_.assign(subs_.size(), false);
    }

    bool
    next(Access &out) override
    {
        std::size_t tried = 0;
        while (tried < subs_.size()) {
            if (!done_[cur_]) {
                if (subs_[cur_]->next(out)) {
                    if (++taken_ >= burst_)
                        advance();
                    return true;
                }
                done_[cur_] = true;
            }
            advance();
            ++tried;
        }
        return false;
    }

    std::size_t
    nextBatch(Access *out, std::size_t n) override
    {
        std::size_t filled = 0;
        std::size_t tried = 0;
        while (filled < n && tried < subs_.size()) {
            if (done_[cur_]) {
                advance();
                ++tried;
                continue;
            }
            // Never ask for more than the rest of the current burst:
            // taken_ then stays below burst_, exactly as with next().
            std::size_t want = std::min<std::size_t>(
                n - filled, burst_ - taken_);
            std::size_t got = subs_[cur_]->nextBatch(out + filled, want);
            filled += got;
            if (got > 0)
                tried = 0; // progress restarts the all-done probe
            if (got < want) {
                // Sub-stream ran dry mid-burst.
                done_[cur_] = true;
                advance();
                ++tried;
            } else {
                taken_ += static_cast<unsigned>(got);
                if (taken_ >= burst_)
                    advance();
            }
        }
        return filled;
    }

  private:
    void
    advance()
    {
        cur_ = (cur_ + 1) % subs_.size();
        taken_ = 0;
    }

    std::vector<GeneratorPtr> subs_;
    std::vector<bool> done_;
    unsigned burst_;
    std::size_t cur_ = 0;
    unsigned taken_ = 0;
};

} // namespace hopp::workloads


#include "workloads/patterns.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hopp::workloads
{

namespace
{

/**
 * Shared body of every concrete nextBatch override: the qualified
 * `g.G::next(...)` call devirtualizes, so each override compiles to
 * one tight loop over the generator's own advance logic instead of a
 * virtual dispatch per access.
 */
template <typename G>
std::size_t
drainInto(G &g, Access *out, std::size_t n)
{
    std::size_t i = 0;
    while (i < n && g.G::next(out[i]))
        ++i;
    return i;
}

} // namespace

// ---------------------------------------------------------------------
// SequentialScan
// ---------------------------------------------------------------------

SequentialScan::SequentialScan(const Params &p) : p_(p)
{
    hopp_assert(p_.pages > 0, "scan needs pages");
    hopp_assert(p_.pageStride != 0, "scan needs a nonzero stride");
    hopp_assert(p_.linesPerPage >= 1 && p_.linesPerPage <= linesPerPage,
                "lines per page out of range");
}

bool
SequentialScan::next(Access &out)
{
    if (pass_ >= p_.passes)
        return false;
    std::int64_t page_off =
        static_cast<std::int64_t>(visit_) * p_.pageStride;
    out.va = p_.base + static_cast<std::uint64_t>(page_off) * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = p_.write;
    if (++line_ >= p_.linesPerPage) {
        line_ = 0;
        if (++visit_ >= p_.pages) {
            visit_ = 0;
            ++pass_;
        }
    }
    return true;
}

std::size_t
SequentialScan::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// LadderGen
// ---------------------------------------------------------------------

bool
LadderGen::next(Access &out)
{
    if (pass_ >= p_.passes)
        return false;
    std::uint64_t offset = page_;
    if (p_.crossStream) {
        // Even offsets ascending, then odd offsets ascending.
        std::uint64_t evens = (p_.treadPages + 1) / 2;
        offset = page_ < evens ? page_ * 2 : (page_ - evens) * 2 + 1;
    }
    std::uint64_t page = tread_ * p_.risePages + offset;
    out.va = p_.base + page * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = false;
    if (++line_ >= p_.linesPerPage) {
        line_ = 0;
        if (++page_ >= p_.treadPages) {
            page_ = 0;
            if (++tread_ >= p_.treads) {
                tread_ = 0;
                ++pass_;
            }
        }
    }
    return true;
}

std::size_t
LadderGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// RippleGen
// ---------------------------------------------------------------------

bool
RippleGen::next(Access &out)
{
    if (pass_ >= p_.passes)
        return false;
    std::int64_t page = static_cast<std::int64_t>(front_) + pendingHop_;
    page = std::clamp<std::int64_t>(
        page, 0, static_cast<std::int64_t>(p_.pages) - 1);
    out.va = p_.base + static_cast<std::uint64_t>(page) * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = false;
    if (++line_ >= p_.linesPerPage) {
        line_ = 0;
        // Choose the next page visit: usually the advancing front,
        // sometimes an out-of-order hop around it.
        if (pendingHop_ == 0 && rng_.chance(p_.hopChance)) {
            pendingHop_ =
                static_cast<std::int64_t>(rng_.below(2 * p_.jitter + 1)) -
                static_cast<std::int64_t>(p_.jitter);
        } else {
            pendingHop_ = 0;
            if (++front_ >= p_.pages) {
                front_ = 0;
                ++pass_;
            }
        }
    }
    return true;
}

std::size_t
RippleGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// GatherGen
// ---------------------------------------------------------------------

GatherGen::GatherGen(const Params &p)
    : p_(p), rng_(p.seed), zipf_(p.targetPages, p.zipfTheta)
{
    hopp_assert(p_.seqPages > 0 && p_.targetPages > 0,
                "gather needs regions");
}

bool
GatherGen::next(Access &out)
{
    if (gatherDebt_ >= 1.0) {
        gatherDebt_ -= 1.0;
        std::uint64_t tp = zipf_.sample(rng_);
        out.va = p_.targetBase + tp * pageBytes +
                 rng_.below(static_cast<std::uint32_t>(linesPerPage)) *
                     lineBytes;
        out.write = false;
        return true;
    }
    if (pass_ >= p_.passes)
        return false;
    if (pendingReset_) {
        // New iteration over the same edge list: the gather sequence
        // repeats exactly. (Deferred past the previous pass's last
        // gathers, which still draw from the old stream.)
        rng_ = Pcg32(p_.seed);
        pendingReset_ = false;
    }
    out.va = p_.seqBase + page_ * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = false;
    gatherDebt_ += p_.gatherPerLine;
    if (++line_ >= p_.seqLinesPerPage) {
        line_ = 0;
        if (++page_ >= p_.seqPages) {
            page_ = 0;
            ++pass_;
            pendingReset_ = true;
        }
    }
    return true;
}

std::size_t
GatherGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// HotColdGen
// ---------------------------------------------------------------------

HotColdGen::HotColdGen(const Params &p)
    : p_(p), rng_(p.seed), zipf_(p.pages, p.zipfTheta)
{
}

bool
HotColdGen::next(Access &out)
{
    if (count_ >= p_.accesses)
        return false;
    if (line_ == 0)
        page_ = zipf_.sample(rng_);
    out.va = p_.base + page_ * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = false;
    if (++line_ >= p_.linesPerVisit) {
        line_ = 0;
        ++count_;
    }
    return true;
}

std::size_t
HotColdGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// ShortRunsGen
// ---------------------------------------------------------------------

void
ShortRunsGen::startRun()
{
    started_ = true;
    page_ = 0;
    line_ = 0;
    if (p_.gcEvery && run_ > 0 && run_ % p_.gcEvery == 0 && !inGc_) {
        // GC pause: scan a fraction of the whole region from the start.
        inGc_ = true;
        runStart_ = 0;
        runLen_ = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(p_.pages) * p_.gcFraction));
        return;
    }
    inGc_ = false;
    std::uint64_t span = p_.runPagesMax > p_.runPagesMin
                             ? p_.runPagesMax - p_.runPagesMin
                             : 0;
    runLen_ = p_.runPagesMin +
              (span ? rng_.below64(span + 1) : 0);
    runLen_ = std::min(runLen_, p_.pages);
    runStart_ = rng_.below64(p_.pages - runLen_ + 1);
    if (p_.alignPages > 1) {
        runStart_ -= runStart_ % p_.alignPages;
        runStart_ = std::min(runStart_, p_.pages - runLen_);
    }
}

bool
ShortRunsGen::next(Access &out)
{
    if (!started_) {
        if (run_ >= p_.runs)
            return false;
        startRun();
    }
    out.va = p_.base + (runStart_ + page_) * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = false;
    if (++line_ >= p_.linesPerPage) {
        line_ = 0;
        if (++page_ >= runLen_) {
            ++run_;
            started_ = false;
            if (run_ >= p_.runs)
                return true; // last access of the last run
            startRun();
        }
    }
    return true;
}

std::size_t
ShortRunsGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// PermutationGen
// ---------------------------------------------------------------------

PermutationGen::PermutationGen(const Params &p) : p_(p)
{
    hopp_assert(p_.pages > 0, "permutation needs pages");
    order_.resize(p_.pages);
    for (std::uint64_t i = 0; i < p_.pages; ++i)
        order_[i] = static_cast<std::uint32_t>(i);
    // Fisher-Yates with the deterministic PRNG: the pointer graph.
    Pcg32 rng(p_.seed);
    for (std::uint64_t i = p_.pages - 1; i > 0; --i) {
        std::uint64_t j = rng.below64(i + 1);
        std::swap(order_[i], order_[j]);
    }
}

bool
PermutationGen::next(Access &out)
{
    if (pass_ >= p_.passes)
        return false;
    out.va = p_.base +
             static_cast<std::uint64_t>(order_[idx_]) * pageBytes +
             static_cast<std::uint64_t>(line_) * lineBytes;
    out.write = false;
    if (++line_ >= p_.linesPerPage) {
        line_ = 0;
        if (++idx_ >= order_.size()) {
            idx_ = 0;
            ++pass_;
        }
    }
    return true;
}

std::size_t
PermutationGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

// ---------------------------------------------------------------------
// QuicksortGen
// ---------------------------------------------------------------------

std::size_t
QuicksortGen::nextBatch(Access *out, std::size_t n)
{
    return drainInto(*this, out, n);
}

bool
QuicksortGen::next(Access &out)
{
    for (;;) {
        if (scanning_) {
            out.va = p_.base + scanPage_ * pageBytes +
                     static_cast<std::uint64_t>(line_) * lineBytes;
            out.write = false;
            if (++line_ >= p_.linesPerPage) {
                line_ = 0;
                if (++scanPage_ >= scanEnd_)
                    scanning_ = false;
            }
            return true;
        }
        if (partitioning_) {
            std::uint64_t page = fromLeft_ ? left_ : right_ - 1;
            out.va = p_.base + page * pageBytes +
                     static_cast<std::uint64_t>(line_) * lineBytes;
            out.write = (line_ & 3) == 3; // some swaps write back
            if (++line_ >= p_.linesPerPage) {
                line_ = 0;
                if (fromLeft_)
                    ++left_;
                else
                    --right_;
                fromLeft_ = !fromLeft_;
                if (left_ >= right_) {
                    partitioning_ = false;
                    // Recurse on both halves around the meeting point.
                    std::uint64_t mid = left_;
                    if (mid > cur_.lo && mid < cur_.hi) {
                        stack_.push_back({cur_.lo, mid});
                        stack_.push_back({mid, cur_.hi});
                    }
                }
            }
            return true;
        }
        if (stack_.empty())
            return false;
        cur_ = stack_.back();
        stack_.pop_back();
        std::uint64_t len = cur_.hi - cur_.lo;
        if (len == 0)
            continue;
        if (len <= p_.cutoffPages) {
            scanning_ = true;
            scanPage_ = cur_.lo;
            scanEnd_ = cur_.hi;
            line_ = 0;
        } else {
            partitioning_ = true;
            left_ = cur_.lo;
            right_ = cur_.hi;
            fromLeft_ = true;
            line_ = 0;
        }
    }
}

} // namespace hopp::workloads

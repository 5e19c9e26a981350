/**
 * @file
 * Allocation-freedom and ordering proofs for the rewritten event core.
 *
 * A global instrumented allocator counts every operator-new call made
 * while tracking is armed: scheduling and dispatching events through
 * sim::EventQueue must perform ZERO heap allocations for every capture
 * shape the tree actually uses (the old std::function design allocated
 * per schedule for captures over the SSO threshold, and copied — hence
 * re-allocated — per dispatch). A separate determinism test drives 10k
 * mixed schedule/scheduleIn calls, many colliding on the same tick,
 * and checks execution order against the documented (tick, issue-seq)
 * FIFO contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"

namespace
{

std::uint64_t g_allocs = 0;
bool g_track = false;

struct AllocTracker
{
    AllocTracker()
    {
        g_allocs = 0;
        g_track = true;
    }
    ~AllocTracker() { g_track = false; }

    std::uint64_t
    count() const
    {
        return g_allocs;
    }
};

} // namespace

// Instrumented global allocator: counts while armed, delegates to
// malloc/free. Sized, array and nothrow forms forward so nothing
// escapes the count, and every block the deletes below free came from
// malloc: std::stable_sort takes its buffer from nothrow new, and a
// sanitizer's own nothrow new would not pair with this free().
// GCC pair-matches new/free across the replaced operators and warns;
// that analysis does not apply to the replacing definitions themselves.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void *
operator new(std::size_t n)
{
    if (g_track)
        ++g_allocs;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    if (g_track)
        ++g_allocs;
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace
{

using namespace hopp;
using sim::EventQueue;
using sim::InlineEvent;

TEST(EventQueueAlloc, InTreeCaptureShapesScheduleWithoutAllocating)
{
    EventQueue eq;
    eq.reserve(64); // pre-size outside the tracking window

    // Stand-ins for the capture shapes used across the tree.
    struct Self
    {
        int x = 0;
    } self; // [this]
    std::uint64_t hits = 0;

    // [this, pid] — kswapd rearm, trainer drain (16 B).
    // [this, pid, vpn] — prefetch completion binding (24 B).
    // [done, completion] — RDMA completion wrapping a user callback
    //   plus a Tick; modelled by a 40 B payload below.
    struct Payload40
    {
        void *a;
        std::uint64_t b, c, d;
    } p40{&self, 1, 2, 3};
    struct Payload56
    {
        void *a;
        std::uint64_t b, c, d, e, f;
    } p56{&self, 1, 2, 3, 4, 5}; // near the 64 B budget

    // Move-only capture: the unique_ptr was allocated ahead of time;
    // moving it into the event must not allocate again.
    auto owned = std::make_unique<int>(7);

    std::uint64_t observed;
    {
        AllocTracker tracker;
        eq.schedule(Tick{10}, [&hits] { ++hits; });
        eq.schedule(Tick{10}, [&hits, &self] { hits += self.x + 1; });
        eq.schedule(Tick{11},
                    [&hits, s = &self, pid = std::uint16_t{3}] {
                        hits += pid + s->x;
                    });
        eq.schedule(Tick{12}, [&hits, p40] { hits += p40.b; });
        eq.schedule(Tick{13}, [&hits, p56] { hits += p56.f; });
        eq.scheduleIn(Duration{20},
                      [&hits, o = std::move(owned)] { hits += *o; });
        while (eq.runOne()) {
        }
        observed = tracker.count();
    }
    EXPECT_EQ(observed, 0u);
    EXPECT_EQ(hits, 1u + 1 + 3 + 1 + 5 + 7);
}

TEST(EventQueueAlloc, SelfReschedulingSteadyStateIsAllocationFree)
{
    // The machine's dominant pattern: an actor that runs, does work,
    // and reschedules itself — thousands of schedule+dispatch cycles
    // over a shallow heap must never touch the allocator.
    EventQueue eq;
    eq.reserve(64);
    std::uint64_t steps = 0;

    struct Actor
    {
        EventQueue &eq;
        std::uint64_t &steps;

        void
        step()
        {
            if (++steps >= 10'000)
                return;
            eq.scheduleIn(Duration{3}, [this] { step(); });
        }
    } actor{eq, steps};

    std::uint64_t observed;
    {
        AllocTracker tracker;
        eq.schedule(Tick{1}, [&actor] { actor.step(); });
        eq.run();
        observed = tracker.count();
    }
    EXPECT_EQ(observed, 0u);
    EXPECT_EQ(steps, 10'000u);
}

TEST(EventQueueAlloc, OversizedCaptureWouldNotCompile)
{
    // Compile-time contract: a capture over InlineEvent::inlineBytes
    // is rejected by static_assert (no silent heap fallback). This
    // can't be expressed as a runtime EXPECT; assert the budget and
    // that representative shapes satisfy it instead.
    static_assert(InlineEvent::inlineBytes == 64);
    struct Fits
    {
        void *a;
        std::uint64_t b[7];
    };
    static_assert(sizeof(Fits) <= InlineEvent::inlineBytes);
    struct TooBig
    {
        std::uint64_t b[9];
    };
    static_assert(sizeof(TooBig) > InlineEvent::inlineBytes);
    SUCCEED();
}

TEST(EventQueueDeterminism, SameTickFifoAcross10kMixedSchedules)
{
    // 10k schedule/scheduleIn calls over a deliberately tiny tick
    // range (heavy same-tick collisions), issued both from outside the
    // run loop and from inside running events. The documented order is
    // strict (tick, issue-sequence): a stable sort of the issue log by
    // tick must predict execution exactly.
    EventQueue eq;
    Pcg32 rng(42);

    std::vector<std::pair<Tick, std::uint32_t>> issued;
    std::vector<std::uint32_t> executed;
    std::uint32_t next_id = 0;

    auto issue = [&](Tick when, std::uint32_t id) {
        issued.emplace_back(when, id);
        eq.schedule(when, [&executed, id] { executed.push_back(id); });
    };

    // Phase 1: 5k pre-loaded events across 16 distinct ticks.
    for (int i = 0; i < 5'000; ++i)
        issue(Tick{rng.below(16)}, next_id++);

    // Phase 2: 5k more issued from inside callbacks as the queue
    // drains — alternating schedule (absolute) and scheduleIn
    // (relative), still colliding on a small set of future ticks.
    std::uint32_t nested_left = 5'000;
    std::function<void()> spawn = [&] {
        std::uint32_t burst = 1 + rng.below(4);
        for (std::uint32_t b = 0; b < burst && nested_left > 0; ++b) {
            --nested_left;
            Duration delta{rng.below(8)};
            std::uint32_t id = next_id++;
            Tick when = eq.now() + delta;
            issued.emplace_back(when, id);
            if (rng.below(2) == 0) {
                eq.schedule(when, [&executed, id] {
                    executed.push_back(id);
                });
            } else {
                eq.scheduleIn(delta, [&executed, id] {
                    executed.push_back(id);
                });
            }
        }
        if (nested_left > 0) {
            eq.scheduleIn(Duration{1 + rng.below(4)},
                          [&spawn] { spawn(); });
        }
    };
    eq.schedule(Tick{16}, [&spawn] { spawn(); });
    eq.run();

    ASSERT_EQ(executed.size(), issued.size());
    ASSERT_EQ(executed.size(), 10'000u);

    // Model: stable sort of the issue log by tick (issue order is the
    // tie-break, exactly the (when, seq) contract).
    std::vector<std::pair<Tick, std::uint32_t>> model = issued;
    std::stable_sort(model.begin(), model.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(executed[i], model[i].second) << "at position " << i;
    }
}

TEST(EventQueueDeterminism, NestedSameTickEventRunsAfterEarlierIssues)
{
    // An event scheduled *for the current tick from inside a callback*
    // must still run after everything issued earlier for that tick.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(Tick{5}, [&] {
        order.push_back(0);
        eq.schedule(Tick{5}, [&] { order.push_back(2); });
    });
    eq.schedule(Tick{5}, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

} // namespace

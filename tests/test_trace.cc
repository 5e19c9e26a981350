/**
 * @file
 * Unit tests for the reserved-DRAM ring buffer (HPD's hot-page ring):
 * FIFO order, drop-on-full accounting and wraparound against a capped
 * std::deque, and storage that constructs only the slots it holds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "common/random.hh"
#include "trace/trace_buffer.hh"

using namespace hopp::trace;

TEST(RingBufferT, PushPopFifo)
{
    RingBuffer<int> ring(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_FALSE(ring.push(99)); // full -> drop
    EXPECT_EQ(ring.dropped(), 1u);
    for (int i = 0; i < 4; ++i) {
        auto v = ring.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ring.pop().has_value());
}

TEST(RingBufferT, WrapsAround)
{
    RingBuffer<int> ring(3);
    ring.push(1);
    ring.push(2);
    ring.pop();
    ring.push(3);
    ring.push(4);
    EXPECT_EQ(*ring.pop(), 2);
    EXPECT_EQ(*ring.pop(), 3);
    EXPECT_EQ(*ring.pop(), 4);
    EXPECT_EQ(ring.pushed(), 4u);
}

namespace
{

/**
 * Drive a ring and a std::deque capped at the same capacity with one
 * seeded mix of push and pop bursts, comparing every push result,
 * every popped value and the counts after each step. A burst is 1 to
 * 2 x capacity + 1 long, so push bursts overfill the ring (drops),
 * pop bursts drain it to empty part-way round a lap (the read cursor
 * returns to slot 0) or leave records behind for the next push burst
 * to carry the write cursor past the end of the storage.
 */
void
checkAgainstDeque(std::size_t capacity, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    RingBuffer<int> ring(capacity);
    std::deque<int> ref;
    std::uint64_t pushed = 0;
    std::uint64_t dropped = 0;
    hopp::Pcg32 rng(seed);
    int value = 0;
    // Coverage, counted since the ring was last empty: a lap boundary
    // crossed by the write cursor (more accepted pushes than slots),
    // and a drain to empty that ends part-way round a lap.
    std::size_t accepted = 0;
    std::size_t popped = 0;
    int wraps = 0;
    int midLapDrains = 0;
    const auto bound = static_cast<std::uint32_t>(2 * capacity + 1);
    for (int burst = 0; burst < 4000; ++burst) {
        const bool pushing = rng.below(2) == 0;
        const std::uint32_t len = 1 + rng.below(bound);
        for (std::uint32_t i = 0; i < len; ++i, ++value) {
            if (pushing) {
                const bool room = ref.size() < capacity;
                ASSERT_EQ(ring.push(value), room) << "push " << value;
                if (room) {
                    ref.push_back(value);
                    ++pushed;
                    if (++accepted == capacity + 1)
                        ++wraps;
                } else {
                    ++dropped;
                }
            } else {
                auto got = ring.pop();
                ASSERT_EQ(got.has_value(), !ref.empty()) << "pop " << value;
                if (got) {
                    ASSERT_EQ(*got, ref.front()) << "pop " << value;
                    ref.pop_front();
                    ++popped;
                    if (ref.empty()) {
                        if (popped % capacity != 0)
                            ++midLapDrains;
                        accepted = 0;
                        popped = 0;
                    }
                }
            }
            ASSERT_EQ(ring.size(), ref.size()) << "step " << value;
            ASSERT_EQ(ring.empty(), ref.empty()) << "step " << value;
            ASSERT_EQ(ring.pushed(), pushed) << "step " << value;
            ASSERT_EQ(ring.dropped(), dropped) << "step " << value;
        }
    }
    EXPECT_EQ(ring.capacity(), capacity);
    EXPECT_GT(dropped, 0u);
    // A one-slot ring is empty before every accepted push, so both
    // cursors stay at slot 0.
    if (capacity > 1) {
        EXPECT_GT(wraps, 0);
        EXPECT_GT(midLapDrains, 0);
    }
}

/** An element that counts its constructions and live instances. */
struct Counted
{
    static inline int constructed = 0;
    static inline int live = 0;

    int v = 0;

    Counted() { ++constructed, ++live; }
    explicit Counted(int x) : v(x) { ++constructed, ++live; }
    Counted(const Counted &o) : v(o.v) { ++constructed, ++live; }
    Counted &operator=(const Counted &) = default;
    ~Counted() { --live; }
};

} // namespace

TEST(RingBufferT, MatchesCappedDequeReference)
{
    for (std::size_t capacity : {1, 2, 3, 7, 64})
        checkAgainstDeque(capacity, 0x5eed0000 + capacity);
}

TEST(RingBufferT, ConstructsOnlySlotsItHolds)
{
    Counted::constructed = 0;
    Counted::live = 0;
    {
        RingBuffer<Counted> ring(1 << 16);
        EXPECT_EQ(Counted::constructed, 0);
        EXPECT_EQ(Counted::live, 0);

        // Each drain empties the ring, so every cycle reuses slots 0-2:
        // the storage holds three constructed elements, not 65,536.
        const Counted item(42);
        for (int cycle = 0; cycle < 1000; ++cycle) {
            for (int i = 0; i < 3; ++i)
                ASSERT_TRUE(ring.push(item));
            for (int i = 0; i < 3; ++i) {
                auto got = ring.pop();
                ASSERT_TRUE(got.has_value());
                ASSERT_EQ(got->v, 42);
            }
        }
        EXPECT_TRUE(ring.empty());
        EXPECT_EQ(ring.pushed(), 3000u);
        EXPECT_EQ(ring.dropped(), 0u);
        EXPECT_LE(Counted::live - 1, 3); // less `item` itself
    }
    EXPECT_EQ(Counted::live, 0);
}

/**
 * @file
 * Unit tests for the reserved-DRAM ring buffer (HPD's hot-page ring):
 * FIFO order, drop-on-full accounting and wraparound.
 */

#include <gtest/gtest.h>

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

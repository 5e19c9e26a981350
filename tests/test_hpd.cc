/**
 * @file
 * Unit tests for the Hot Page Detection table (§III-B): threshold
 * behaviour, send-bit suppression, write filtering, set conflicts and
 * the Table II hot-ratio property on streaming traffic.
 */

#include <gtest/gtest.h>

#include "hopp/hpd.hh"

using namespace hopp;
using namespace hopp::core;

namespace
{

HpdConfig
cfg(unsigned threshold = 8)
{
    HpdConfig c;
    c.threshold = threshold;
    return c;
}

/** Touch `n` distinct lines of page `ppn`. */
std::uint64_t
touchLines(Hpd &hpd, Ppn ppn, unsigned n)
{
    std::uint64_t hot = 0;
    for (unsigned i = 0; i < n; ++i)
        hot += hpd.access(pageBase(ppn) + i * lineBytes, false)
                   .has_value();
    return hot;
}

} // namespace

TEST(Hpd, PageBecomesHotAtThreshold)
{
    Hpd hpd(cfg(8));
    EXPECT_EQ(touchLines(hpd, Ppn{100}, 7), 0u);
    auto hot = hpd.access(pageBase(Ppn{100}) + 7 * lineBytes, false);
    ASSERT_TRUE(hot.has_value());
    EXPECT_EQ(*hot, Ppn{100});
    EXPECT_EQ(hpd.stats().hotPages, 1u);
}

TEST(Hpd, SendBitSuppressesRepeatedExtraction)
{
    Hpd hpd(cfg(4));
    touchLines(hpd, Ppn{100}, 4); // extracted
    EXPECT_EQ(touchLines(hpd, Ppn{100}, 20), 0u);
    EXPECT_EQ(hpd.stats().hotPages, 1u);
    EXPECT_EQ(hpd.stats().suppressed, 20u);
}

TEST(Hpd, WritesAreIgnored)
{
    Hpd hpd(cfg(2));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(hpd.access(pageBase(Ppn{5}), true).has_value());
    EXPECT_EQ(hpd.stats().writesIgnored, 10u);
    EXPECT_EQ(hpd.stats().reads, 0u);
    EXPECT_EQ(hpd.tracked(), 0u);
}

TEST(Hpd, EvictionAllowsReExtraction)
{
    // 4 sets x 16 ways; flood set 0 (ppn % 4 == 0) to evict page 0.
    Hpd hpd(cfg(4));
    touchLines(hpd, Ppn{0}, 4); // hot, send bit set
    EXPECT_EQ(hpd.stats().hotPages, 1u);
    for (std::uint64_t p = 4; p <= 4 * 16; p += 4)
        touchLines(hpd, Ppn{p}, 1); // 16 new pages in set 0 evict page 0
    EXPECT_GT(hpd.stats().evictions, 0u);
    // Page 0 can be detected hot again (repeated detection after
    // eviction — why small N inflates Table II's ratio).
    touchLines(hpd, Ppn{0}, 4);
    EXPECT_EQ(hpd.stats().hotPages, 2u);
}

TEST(Hpd, ThresholdOneExtractsImmediately)
{
    Hpd hpd(cfg(1));
    auto hot = hpd.access(pageBase(Ppn{9}), false);
    ASSERT_TRUE(hot.has_value());
    EXPECT_EQ(*hot, Ppn{9});
}

TEST(Hpd, StreamingRatioIsOneOverLinesPerPage)
{
    // Full-page streaming: each page read 64 times, N=8 -> exactly one
    // hot page per 64 reads = 1.5625% (Table II's K-means row).
    Hpd hpd(cfg(8));
    for (std::uint64_t p = 0; p < 512; ++p)
        touchLines(hpd, Ppn{p}, 64);
    EXPECT_NEAR(hpd.stats().hotRatio(), 1.0 / 64.0, 1e-9);
}

TEST(Hpd, SmallerThresholdNeverLowersRatio)
{
    // Property (Table II): the extraction ratio is non-increasing in N
    // for identical traffic.
    double prev = 1.0;
    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
        Hpd hpd(cfg(n));
        // Sparse revisits: pages get 16 touches in 4-touch bursts with
        // interleaved conflict traffic.
        for (int round = 0; round < 4; ++round) {
            for (std::uint64_t p = 0; p < 256; ++p)
                touchLines(hpd, Ppn{p}, 4);
        }
        double ratio = hpd.stats().hotRatio();
        EXPECT_LE(ratio, prev + 1e-12) << "N=" << n;
        prev = ratio;
    }
}

TEST(Hpd, TracksAtMostSetsTimesWays)
{
    Hpd hpd(cfg(8));
    for (std::uint64_t p = 0; p < 1000; ++p)
        touchLines(hpd, Ppn{p}, 1);
    EXPECT_LE(hpd.tracked(), 64u);
}

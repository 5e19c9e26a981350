/**
 * @file
 * Unit tests for the LLC model: hit/miss behaviour, page invalidation,
 * and miss-rate properties on streaming vs resident working sets.
 */

#include <gtest/gtest.h>

#include "mem/llc.hh"

using namespace hopp;
using namespace hopp::mem;

namespace
{

LlcConfig
smallLlc(std::uint64_t kb = 64, std::size_t ways = 4)
{
    LlcConfig cfg;
    cfg.capacityBytes = kb << 10;
    cfg.ways = ways;
    return cfg;
}

} // namespace

TEST(Llc, FirstAccessMissesSecondHits)
{
    Llc llc(smallLlc());
    EXPECT_FALSE(llc.access(PhysAddr{0x1000}));
    EXPECT_TRUE(llc.access(PhysAddr{0x1000}));
    EXPECT_EQ(llc.hits(), 1u);
    EXPECT_EQ(llc.misses(), 1u);
}

TEST(Llc, SameLineDifferentBytesHit)
{
    Llc llc(smallLlc());
    llc.access(PhysAddr{0x1000});
    EXPECT_TRUE(llc.access(PhysAddr{0x1004}));
    EXPECT_TRUE(llc.access(PhysAddr{0x103F}));
    EXPECT_FALSE(llc.access(PhysAddr{0x1040})); // next line
}

TEST(Llc, ResidentWorkingSetEventuallyAllHits)
{
    Llc llc(smallLlc(64, 4));
    // 32 KB working set in a 64 KB cache: after warmup, no misses.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < (32 << 10); a += lineBytes)
            llc.access(PhysAddr{a});
    }
    std::uint64_t miss_before = llc.misses();
    for (std::uint64_t a = 0; a < (32 << 10); a += lineBytes)
        llc.access(PhysAddr{a});
    EXPECT_EQ(llc.misses() - miss_before, 0u);
}

TEST(Llc, StreamingFootprintLargerThanCacheAlwaysMisses)
{
    Llc llc(smallLlc(64, 4));
    // Stream 1 MB repeatedly: every access should miss with LRU.
    std::uint64_t miss_before = llc.misses();
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < (1 << 20); a += lineBytes)
            llc.access(PhysAddr{a});
    }
    std::uint64_t accesses = 2 * (1 << 20) / lineBytes;
    EXPECT_EQ(llc.misses() - miss_before, accesses);
}

TEST(Llc, InvalidatePageForcesMissesOnThatPageOnly)
{
    Llc llc(smallLlc(256, 8));
    // Touch two pages.
    for (std::uint64_t off = 0; off < pageBytes; off += lineBytes) {
        llc.access(pageBase(Ppn{5}) + off);
        llc.access(pageBase(Ppn{6}) + off);
    }
    llc.invalidatePage(Ppn{5});
    std::uint64_t miss_before = llc.misses();
    std::uint64_t hit_before = llc.hits();
    llc.access(pageBase(Ppn{5})); // invalidated -> miss
    llc.access(pageBase(Ppn{6})); // untouched -> hit
    EXPECT_EQ(llc.misses() - miss_before, 1u);
    EXPECT_EQ(llc.hits() - hit_before, 1u);
}

TEST(Llc, GeometryRoundsToPowerOfTwoSets)
{
    LlcConfig cfg;
    cfg.capacityBytes = 96 << 10; // 1536 lines / 16 ways = 96 sets -> 64
    cfg.ways = 16;
    Llc llc(cfg);
    EXPECT_EQ(llc.sets(), 64u);
}

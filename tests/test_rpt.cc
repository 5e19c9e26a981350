/**
 * @file
 * Unit tests for the Reverse Page Table and its MC cache (§III-C):
 * lookups, maintenance hooks, lazy write-back, tombstones and the
 * Table III / Table V accounting.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "hopp/rpt.hh"

using namespace hopp;
using namespace hopp::core;

namespace
{

struct RptFixture : ::testing::Test
{
    mem::Dram dram{64};
    Rpt rpt;

    RptCacheConfig
    smallCache(std::uint64_t bytes = 1024)
    {
        RptCacheConfig c;
        c.capacityBytes = bytes;
        return c;
    }
};

} // namespace

TEST_F(RptFixture, RptStoreLoadErase)
{
    rpt.store(Ppn{5}, RptEntry{Pid{3}, Vpn{0x123}});
    auto e = rpt.load(Ppn{5});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->pid, Pid{3});
    EXPECT_EQ(e->vpn, Vpn{0x123});
    rpt.erase(Ppn{5});
    EXPECT_FALSE(rpt.load(Ppn{5}).has_value());
}

TEST_F(RptFixture, RptBytesAre8PerEntry)
{
    rpt.store(Ppn{1}, {});
    rpt.store(Ppn{2}, {});
    EXPECT_EQ(rpt.bytes(), 16u);
}

TEST_F(RptFixture, CacheMissReadsDramThenHits)
{
    rpt.store(Ppn{7}, RptEntry{Pid{1}, Vpn{0x700}});
    RptCache cache(rpt, dram, smallCache());
    auto e = cache.lookup(Ppn{7});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->vpn, Vpn{0x700});
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(dram.traffic(mem::TrafficSource::RptQuery), 64u);
    cache.lookup(Ppn{7});
    EXPECT_EQ(cache.stats().hits, 1u);
    // The hit consumed no DRAM bandwidth.
    EXPECT_EQ(dram.traffic(mem::TrafficSource::RptQuery), 64u);
}

TEST_F(RptFixture, UpdateServesLookupWithoutDram)
{
    RptCache cache(rpt, dram, smallCache());
    cache.update(Ppn{9}, RptEntry{Pid{2}, Vpn{0x900}});
    auto e = cache.lookup(Ppn{9});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->pid, Pid{2});
    EXPECT_EQ(cache.stats().hits, 1u);
    // Lazy write-back: DRAM RPT not yet updated.
    EXPECT_FALSE(rpt.load(Ppn{9}).has_value());
}

TEST_F(RptFixture, DirtyEvictionWritesBackToDram)
{
    // 1 KB / 8 B = 128 entries, 16 ways -> 8 sets. Flood one set.
    RptCache cache(rpt, dram, smallCache(1024));
    for (std::uint64_t p = 0; p < 8 * 17; p += 8)
        cache.update(Ppn{p}, RptEntry{Pid{1}, Vpn{0x1000 + p}});
    EXPECT_GT(cache.stats().writebacks, 0u);
    EXPECT_GT(dram.traffic(mem::TrafficSource::RptUpdate), 0u);
    // The evicted entry (ppn 0, the LRU) landed in the DRAM RPT.
    auto e = rpt.load(Ppn{0});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->vpn, Vpn{0x1000});
}

TEST_F(RptFixture, InvalidateMakesLookupUnknown)
{
    RptCache cache(rpt, dram, smallCache());
    cache.update(Ppn{4}, RptEntry{Pid{1}, Vpn{0x400}});
    cache.invalidate(Ppn{4});
    EXPECT_FALSE(cache.lookup(Ppn{4}).has_value());
    EXPECT_EQ(cache.stats().invalidates, 1u);
}

TEST_F(RptFixture, InvalidateWritesThroughToDram)
{
    rpt.store(Ppn{3}, RptEntry{Pid{1}, Vpn{0x300}});
    RptCache cache(rpt, dram, smallCache(1024));
    cache.invalidate(Ppn{3});
    EXPECT_FALSE(rpt.load(Ppn{3}).has_value())
        << "invalidate must erase the stale DRAM entry immediately";
    EXPECT_GT(dram.traffic(mem::TrafficSource::RptUpdate), 0u);
}

TEST_F(RptFixture, UnknownPpnCountsUnmapped)
{
    RptCache cache(rpt, dram, smallCache());
    EXPECT_FALSE(cache.lookup(Ppn{42}).has_value());
    EXPECT_EQ(cache.stats().missUnmapped, 1u);
}

TEST_F(RptFixture, DefaultGeometryIs64KB16Way)
{
    RptCache cache(rpt, dram, RptCacheConfig{});
    EXPECT_EQ(cache.capacityEntries(), (64u << 10) / 8);
}

TEST_F(RptFixture, HitRateImprovesWithCacheSize)
{
    // Table III property: bigger cache, better hit rate, on a
    // working set with reuse spread over more pages than a tiny
    // cache can hold.
    auto run = [&](std::uint64_t bytes) {
        mem::Dram d(64);
        Rpt r;
        for (std::uint64_t p = 0; p < 4096; ++p)
            r.store(Ppn{p}, RptEntry{Pid{1}, Vpn{p}});
        RptCache cache(r, d, [&] {
            RptCacheConfig c;
            c.capacityBytes = bytes;
            return c;
        }());
        // Skewed reuse: hot head + long tail, so capacity gradually
        // captures more of the reuse set (cyclic scans would defeat
        // LRU at every size below the working set).
        Pcg32 rng(9);
        ZipfSampler zipf(2048, 0.9);
        for (int i = 0; i < 40000; ++i)
            cache.lookup(Ppn{zipf.sample(rng)});
        return cache.stats().hitRate();
    };
    double small = run(1 << 10);
    double medium = run(4 << 10);
    double large = run(16 << 10);
    EXPECT_LT(small, medium);
    EXPECT_LT(medium, large);
    EXPECT_GT(large, 0.9);
}

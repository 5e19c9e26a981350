/**
 * @file
 * Unit tests for averages, histograms (exact and log-scale), stat
 * sets, and table printing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

using namespace hopp::stats;

TEST(Average, TracksMeanMinMax)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Average, EmptyMeanIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(LogHistogram, BucketsByPowerOfTwo)
{
    LogHistogram h(10);
    h.sample(1);   // bucket 0
    h.sample(3);   // bucket 1
    h.sample(4);   // bucket 2
    h.sample(7);   // bucket 2
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
}

TEST(LogHistogram, MeanIsExact)
{
    LogHistogram h;
    h.sample(10);
    h.sample(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(LogHistogram, PercentileMonotone)
{
    LogHistogram h;
    for (std::uint64_t v = 1; v <= 1024; ++v)
        h.sample(v);
    EXPECT_LE(h.percentile(0.5), h.percentile(0.9));
    EXPECT_LE(h.percentile(0.9), h.percentile(1.0));
    // Median of 1..1024 lies in the 512-1024 region (bucket upper edge).
    EXPECT_GE(h.percentile(0.5), 512u);
}

TEST(LogHistogram, OverflowClampsToLastBucket)
{
    LogHistogram h(4);
    h.sample(1ull << 60);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(StatSet, RecordsPrefixedValues)
{
    StatSet s("llc");
    s.record("hits", 10, "cache hits");
    s.record("misses", 2, "cache misses");
    ASSERT_EQ(s.values().size(), 2u);
    EXPECT_EQ(s.values()[0].name, "llc.hits");
    std::string text = s.toString();
    EXPECT_NE(text.find("llc.misses"), std::string::npos);
}

TEST(Table, RendersAlignedColumns)
{
    Table t("Example");
    t.header({"name", "value"});
    t.row({"alpha", Table::num(1.5, 1)});
    t.row({"b", Table::pct(0.5, 0)});
    std::string s = t.toString();
    EXPECT_NE(s.find("== Example =="), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("50%"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.123456, 1), "12.3%");
}

// ---------------------------------------------------------------------
// Exact Histogram: nearest-rank percentiles against a brute-force
// oracle over the sorted sample set.

namespace
{

/** Nearest-rank oracle: smallest v with >= ceil(q*n) samples <= v. */
std::uint64_t
oraclePercentile(std::vector<std::uint64_t> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    if (q <= 0.0)
        return samples.front();
    if (q >= 1.0)
        return samples.back();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    if (rank == 0)
        rank = 1;
    return samples[rank - 1];
}

} // namespace

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleSampleIsEveryPercentile)
{
    Histogram h;
    h.sample(42);
    EXPECT_EQ(h.percentile(0.0), 42u);
    EXPECT_EQ(h.percentile(0.5), 42u);
    EXPECT_EQ(h.percentile(0.99), 42u);
    EXPECT_EQ(h.percentile(1.0), 42u);
}

TEST(Histogram, MatchesOracleOnRandomSamples)
{
    hopp::Pcg32 rng(7);
    Histogram h;
    std::vector<std::uint64_t> all;
    for (int i = 0; i < 1000; ++i) {
        // Mix of magnitudes, with duplicates.
        std::uint64_t v = rng.below64(1'000'000) / (1 + rng.below(4));
        h.sample(v);
        all.push_back(v);
    }
    for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(h.percentile(q), oraclePercentile(all, q)) << "q=" << q;
    EXPECT_EQ(h.min(), oraclePercentile(all, 0.0));
    EXPECT_EQ(h.max(), oraclePercentile(all, 1.0));
}

TEST(Histogram, InterleavedSampleAndQuery)
{
    // Queries lazily sort; later samples must still be seen.
    Histogram h;
    h.sample(10);
    h.sample(30);
    EXPECT_EQ(h.percentile(0.5), 10u);
    h.sample(20);
    EXPECT_EQ(h.percentile(0.5), 20u);
    h.sample(5);
    EXPECT_EQ(h.percentile(1.0), 30u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(LogHistogram, PercentileWithinDocumentedBound)
{
    // The documented error bound: LogHistogram answers with the
    // bucket's upper edge, at most 2x the exact nearest-rank answer.
    hopp::Pcg32 rng(11);
    LogHistogram lh;
    std::vector<std::uint64_t> all;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = 1 + rng.below64(1u << 20);
        lh.sample(v);
        all.push_back(v);
    }
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        std::uint64_t exact = oraclePercentile(all, q);
        std::uint64_t approx = lh.percentile(q);
        EXPECT_GE(approx, exact) << "q=" << q;
        EXPECT_LE(approx, 2 * exact) << "q=" << q;
    }
}

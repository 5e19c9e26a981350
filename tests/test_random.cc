/**
 * @file
 * Unit tests for the deterministic PRNG and the Zipf sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hh"

using namespace hopp;

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiverge)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Pcg32, Below64RespectsBound)
{
    Pcg32 rng(7);
    std::uint64_t bound = 1ull << 40;
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below64(bound), bound);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32, BelowIsRoughlyUniform)
{
    Pcg32 rng(11);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(ZipfSampler, SkewFavoursLowIndices)
{
    Pcg32 rng(3);
    ZipfSampler zipf(1000, 0.99);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    // Item 0 should be drawn far more than item 500.
    EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfSampler, ThetaZeroIsUniform)
{
    Pcg32 rng(3);
    ZipfSampler zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(ZipfSampler, SamplesWithinRange)
{
    Pcg32 rng(5);
    ZipfSampler zipf(7, 1.2);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 7u);
}

TEST(ZipfSampler, MatchesLowerBoundReference)
{
    // A draw is the inverse CDF of one uniform(): the first index whose
    // CDF is >= u (n - 1 past the end), from exactly one next(). The
    // reference builds its own CDF and runs std::lower_bound, fed by a
    // twin generator that calls uniform().
    for (std::uint64_t n : {1u, 2u, 7u, 384u, 1000u, 4097u}) {
        for (double theta : {0.0, 0.85, 1.2}) {
            SCOPED_TRACE(testing::Message() << "n=" << n
                                            << " theta=" << theta);
            std::vector<double> cdf(n);
            double sum = 0.0;
            for (std::uint64_t i = 0; i < n; ++i) {
                sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
                cdf[i] = sum;
            }
            for (double &v : cdf)
                v /= sum;

            const ZipfSampler zipf(n, theta);
            Pcg32 drawn(n * 31 + 7), twin(n * 31 + 7);
            for (int k = 0; k < 100000; ++k) {
                const auto it =
                    std::lower_bound(cdf.begin(), cdf.end(), twin.uniform());
                const std::uint64_t want =
                    it == cdf.end()
                        ? n - 1
                        : static_cast<std::uint64_t>(it - cdf.begin());
                ASSERT_EQ(zipf.sample(drawn), want) << "draw " << k;
            }
            // Same state: the sampler took one next() per draw.
            for (int k = 0; k < 4; ++k)
                ASSERT_EQ(drawn.next(), twin.next());
        }
    }
}

/**
 * @file
 * Deterministic PRNG used throughout the simulator.
 *
 * All randomness in workload generators and network jitter flows through
 * Pcg32 so every experiment is reproducible from a single seed. PCG32 is
 * small, fast, and statistically far better than rand().
 */

#pragma once

#include <cstdint>
#include <vector>

namespace hopp
{

/**
 * PCG32 pseudo-random number generator (O'Neill, pcg-random.org,
 * Apache-2.0 reference implementation).
 */
class Pcg32
{
  public:
    /** Construct with a seed and stream selector. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bull,
                   std::uint64_t stream = 0xda3e39cb94b95bdbull)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1;
        next();
        state_ += seed;
        next();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ull + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Uniform value in [0, bound) using Lemire's rejection method. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        if (bound <= 1)
            return 0;
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform 64-bit value in [0, bound). */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        if (bound <= 1)
            return 0;
        std::uint64_t r =
            (static_cast<std::uint64_t>(next()) << 32) | next();
        return r % bound;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return unit(next()); }

    /** The double uniform() makes of a raw value: @p x / 2^32. */
    static double
    unit(std::uint32_t x)
    {
        return x * (1.0 / 4294967296.0);
    }

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return uniform() < p; }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * Zipfian index sampler over [0, n), used by graph and sort workloads to
 * model skewed access popularity.
 *
 * Uses the classic inverse-CDF-over-precomputed-harmonics method: a draw
 * is the first index whose CDF is >= a uniform u. A Chen-Asau guide table
 * (one power-of-two bucket count, about one bucket per item) holds that
 * index for each bucket's lower edge, so a draw starts its scan there:
 * setup is O(n), sampling O(1) expected, and the index is exactly the
 * one a binary search over the CDF finds.
 */
class ZipfSampler
{
  public:
    /** Build a sampler over n items with skew theta (0 = uniform-ish). */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one index in [0, n). */
    std::uint64_t sample(Pcg32 &rng) const;

    /** Number of items covered. */
    std::uint64_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
    /** Per bucket j: the first index whose CDF is >= j / buckets. */
    std::vector<std::uint32_t> guide_;
    /** 32 - log2(buckets): a raw draw shifted right by it is its
     *  bucket. It is 32 for one bucket, so sample() shifts a 64-bit
     *  value. */
    unsigned shift_ = 0;
};

} // namespace hopp


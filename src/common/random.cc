#include "common/random.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace hopp
{

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
{
    hopp_assert(n > 0 && n <= (std::uint64_t{1} << 32),
                "ZipfSampler needs 1..2^32 items");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;

    const std::uint64_t buckets = std::bit_ceil(n);
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(buckets));
    guide_.resize(buckets);
    // j * 2^-k is exact, so each bucket's edge is exactly the least u
    // a draw in it can make. The last index stands for the end, as
    // sample() clamps to it.
    const double width = 1.0 / static_cast<double>(buckets);
    std::uint64_t i = 0;
    for (std::uint64_t j = 0; j < buckets; ++j) {
        const double edge = static_cast<double>(j) * width;
        while (i + 1 < n && cdf_[i] < edge)
            ++i;
        guide_[j] = static_cast<std::uint32_t>(i);
    }
}

std::uint64_t
ZipfSampler::sample(Pcg32 &rng) const
{
    // One next(), as uniform() takes; the scan from the bucket's guide
    // stops where std::lower_bound(cdf_, u) would, clamped to n - 1.
    const std::uint32_t x = rng.next();
    const double u = Pcg32::unit(x);
    const std::uint64_t last = cdf_.size() - 1;
    std::uint64_t i = guide_[std::uint64_t{x} >> shift_];
    while (i < last && cdf_[i] < u)
        ++i;
    return i;
}

} // namespace hopp

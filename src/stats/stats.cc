#include "stats/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace hopp::stats
{

void
LogHistogram::sample(std::uint64_t v)
{
    unsigned bucket = v == 0 ? 0 : std::bit_width(v) - 1;
    if (bucket >= buckets_.size())
        bucket = static_cast<unsigned>(buckets_.size()) - 1;
    ++buckets_[bucket];
    ++count_;
    sum_ += static_cast<double>(v);
}

std::uint64_t
LogHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            return 1ull << (i + 1); // upper edge of the bucket
    }
    return 1ull << buckets_.size();
}

void
Histogram::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (samples_.empty())
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    ensureSorted();
    // Nearest-rank: rank = ceil(q * N), 1-based; rank 0 means the
    // smallest sample.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples_.size())));
    std::uint64_t idx = rank == 0 ? 0 : rank - 1;
    if (idx >= samples_.size())
        idx = samples_.size() - 1;
    return samples_[idx];
}

double
Histogram::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (std::uint64_t v : samples_)
        sum += static_cast<double>(v);
    return sum / static_cast<double>(samples_.size());
}

std::uint64_t
Histogram::min() const
{
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_.front();
}

std::uint64_t
Histogram::max() const
{
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_.back();
}

std::string
StatSet::toString() const
{
    std::string out;
    char line[256];
    for (const auto &v : values_) {
        std::snprintf(line, sizeof(line), "%-48s %16.4f  # %s\n",
                      v.name.c_str(), v.value, v.desc.c_str());
        out += line;
    }
    return out;
}

} // namespace hopp::stats

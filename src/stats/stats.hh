/**
 * @file
 * Lightweight statistics primitives: averages and exact histograms,
 * with scalars grouped into named StatSets for dumping.
 *
 * Every simulated component owns its stats by value; a StatSet only keeps
 * registration metadata so copies of components stay cheap and safe.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hopp::stats
{

/** Running mean/min/max of a sampled quantity. */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    /** Arithmetic mean of all samples (0 when empty). */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Smallest sample seen. */
    double min() const { return min_; }

    /** Largest sample seen. */
    double max() const { return max_; }

    /** Number of samples. */
    std::uint64_t count() const { return count_; }

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Exact-percentile histogram: keeps every sample, answers percentile
 * queries by nearest-rank over the sorted sample set. Costs 8 bytes
 * per sample; meant for latency distributions whose sample counts are
 * bounded by fault counts, not per-access rates.
 */
class Histogram
{
  public:
    /** Record one value. */
    void
    sample(std::uint64_t v)
    {
        samples_.push_back(v);
        sorted_ = samples_.size() <= 1;
    }

    /**
     * Exact nearest-rank percentile: the smallest recorded value v
     * such that at least q * count() samples are <= v. q is clamped
     * to [0, 1]; returns 0 when empty. Lazily sorts (amortised).
     */
    std::uint64_t percentile(double q) const;

    /** Number of samples. */
    std::uint64_t count() const { return samples_.size(); }

    /** Exact mean (0 when empty). */
    double mean() const;

    /** Smallest sample (0 when empty). */
    std::uint64_t min() const;

    /** Largest sample (0 when empty). */
    std::uint64_t max() const;

  private:
    void ensureSorted() const;

    mutable std::vector<std::uint64_t> samples_;
    mutable bool sorted_ = true;
};

/** One named scalar inside a StatSet dump. */
struct StatValue
{
    std::string name;
    double value;
    std::string desc;
};

/**
 * A named group of statistics assembled at dump time.
 *
 * Components implement a dumpStats(StatSet&) style method that pushes
 * their scalars; the runner collates and prints them.
 */
class StatSet
{
  public:
    /** Create a set with a component name prefix. */
    explicit StatSet(std::string prefix) : prefix_(std::move(prefix)) {}

    /** Record one scalar under prefix.name. */
    void
    record(const std::string &name, double value,
           const std::string &desc = "")
    {
        values_.push_back({prefix_ + "." + name, value, desc});
    }

    /** All recorded scalars. */
    const std::vector<StatValue> &values() const { return values_; }

    /** Render "name value # desc" lines. */
    std::string toString() const;

  private:
    std::string prefix_;
    std::vector<StatValue> values_;
};

} // namespace hopp::stats


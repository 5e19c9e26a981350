/**
 * @file
 * Correlation (Markov) prefetcher over the hot-page trace — the
 * "advanced solutions like machine learning-based ones can also be
 * enabled by full trace" direction of §III-D, in the tradition of
 * Joseph & Grunwald's Markov predictors.
 *
 * The table records, per (PID, VPN), the most frequent successor hot
 * pages. Repeated irregular sequences — iterating a fixed edge list,
 * pointer chasing over a stable heap — produce confident successors
 * that no stride detector can see, while the fault-only view never
 * observes enough of the sequence to learn it at all.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "mem/set_assoc.hh"
#include "vm/page.hh"

namespace hopp::core
{

/** Markov table knobs. */
struct MarkovConfig
{
    /** Table capacity in (page -> successors) entries. */
    std::size_t entries = 8192;

    /** Associativity of the table. */
    std::size_t ways = 8;

    /** Successor slots per entry. */
    static constexpr unsigned slots = 2;

    /** Observations before a successor is considered predictable. */
    std::uint16_t minCount = 2;

    /** Same knobs = same table on the same hot-page stream: backends
     *  with equal configs can share one (HotPagePipeline's Markov
     *  groups). */
    bool operator==(const MarkovConfig &) const = default;
};

/** Deepest successor chain MarkovTable::predict walks. */
inline constexpr unsigned maxMarkovDepth = 16;

/**
 * One prediction, held inline: the first hop's confident successors
 * (at most MarkovConfig::slots), then one page per further hop.
 */
class MarkovChain
{
  public:
    static constexpr std::size_t capacity =
        MarkovConfig::slots + maxMarkovDepth - 1;

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    Vpn front() const { return vpns_[0]; }
    Vpn operator[](std::size_t i) const { return vpns_[i]; }
    const Vpn *begin() const { return vpns_.data(); }
    const Vpn *end() const { return vpns_.data() + n_; }

    /** Append one page; predict() never exceeds capacity. */
    void add(Vpn v) { vpns_[n_++] = v; }

  private:
    std::array<Vpn, capacity> vpns_;
    std::size_t n_ = 0;
};

/**
 * The correlation table.
 */
class MarkovTable
{
  public:
    explicit MarkovTable(const MarkovConfig &cfg = {});

    /** Record the transition prev -> cur in pid's hot-page stream. */
    void train(Pid pid, Vpn prev, Vpn cur);

    /**
     * Predict the likely successor chain of (pid, vpn): the dominant
     * successor, its dominant successor, and so on up to @p depth
     * hops (at most maxMarkovDepth), plus the runner-up of the first
     * hop.
     */
    MarkovChain predict(Pid pid, Vpn vpn, unsigned depth) const;

    /** Entries currently held. */
    std::size_t size() const { return table_.size(); }

  private:
    struct Entry
    {
        Vpn succ[MarkovConfig::slots] = {};
        std::uint16_t count[MarkovConfig::slots] = {0, 0};
    };

    /** Dominant successor of vpn, if confident. */
    bool dominant(Pid pid, Vpn vpn, Vpn &out) const;

    MarkovConfig cfg_;
    mem::SetAssocCache<Entry> table_;
};

} // namespace hopp::core


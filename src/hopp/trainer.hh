/**
 * @file
 * Prefetch training framework (§III-D): consumes the hot-page records
 * the MC hardware deposits in reserved DRAM, as the pipeline's STT has
 * clustered them into streams, runs the enabled prefetch tiers, and
 * forwards policy-expanded prefetch requests to the execution engine.
 */

#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/logging.hh"
#include "hopp/algorithms.hh"
#include "hopp/hot_page.hh"
#include "hopp/markov.hh"
#include "hopp/policy.hh"
#include "hopp/prefetch_sink.hh"
#include "hopp/stt.hh"

namespace hopp::core
{

/** Trainer counters. */
struct TrainerStats
{
    std::uint64_t hotPages = 0;
    std::uint64_t predictions[tierCount] = {}; //!< per tier
    std::uint64_t noPattern = 0;
    std::uint64_t batchesIssued = 0;

    std::uint64_t
    totalPredictions() const
    {
        std::uint64_t sum = 0;
        for (auto p : predictions)
            sum += p;
        return sum;
    }
};

/**
 * Huge-batch prefetching (§IV): once a simple stream has proven long,
 * swap many consecutive future pages in a single request instead of
 * page-by-page, amortizing the per-transfer latency — the software
 * side of the paper's 2 MB-reservation direction.
 */
struct BatchConfig
{
    bool enabled = false;

    /** Pages bundled per batch request (the paper suggests 512). */
    unsigned batchPages = 64;

    /** Stream length (pages) before batching kicks in. */
    std::uint64_t minStreamLen = 192;

    /** Issue a batch every this many hot pages of the stream. */
    unsigned everyHotPages = 32;
};

/**
 * The software training loop.
 */
class Trainer
{
  public:
    /**
     * @p markov is the correlation table the pipeline trains on the
     * hot-page stream (one per distinct MarkovConfig, shared by every
     * backend with the tier on); non-null exactly when @p tier_mask
     * has tiers::markov. The trainer only predicts from it.
     */
    Trainer(PolicyEngine &policy, PrefetchSink &exec,
            unsigned tier_mask = tiers::all, BatchConfig batch = {},
            const MarkovTable *markov = nullptr)
        : policy_(policy), exec_(exec), tierMask_(tier_mask),
          batch_(batch), markov_(markov)
    {
        hopp_assert(((tier_mask & tiers::markov) != 0) ==
                        (markov != nullptr),
                    "Markov table given iff the Markov tier is on");
    }

    /**
     * Process one hot-page record whose STT feed and Markov training
     * already happened. Backends with equal STT configs see identical
     * tables, so the pipeline feeds each distinct table once per hot
     * page and hands every trainer of the group the same view and the
     * same tier memo (reset to that view). Identical to each trainer
     * feeding a private STT and training a private Markov table.
     */
    void
    onHotPage(const HotPage &hp, const std::optional<StreamView> &view,
              TierMemo &tiers, Tick now)
    {
        ++stats_.hotPages;
        if (!view) {
            // No stream context yet; the correlation tier can still
            // act on a learned transition.
            if (markov_)
                predictMarkov(hp, now);
            return;
        }
        auto pred = tiers.run(tierMask_);
        if (!pred) {
            if (markov_ && predictMarkov(hp, now))
                return;
            ++stats_.noPattern;
            return;
        }
        ++stats_.predictions[static_cast<unsigned>(pred->tier)];
        if (batch_.enabled) {
            // Supplemental far-ahead coverage; the per-page path below
            // still serves the near window (batched pages dedup).
            maybeBatch(*view, *pred, now);
        }
        for (std::uint64_t off : policy_.offsets(view->streamId)) {
            if (auto target = pred->target(off)) {
                exec_.request(hp.pid, *target, view->streamId,
                              pred->tier, now);
            }
        }
    }

    /** Counters. */
    const TrainerStats &stats() const { return stats_; }

    /** Enabled tiers. */
    unsigned tierMask() const { return tierMask_; }

  private:
    /** Issue a huge batch for long unit-stride simple streams. */
    void
    maybeBatch(const StreamView &view, const Prediction &pred, Tick now)
    {
        if (pred.tier != Tier::Ssp ||
            (pred.step != 1 && pred.step != -1) ||
            view.length < batch_.minStreamLen) {
            return;
        }
        std::uint64_t &countdown = batchCountdown_[view.streamId];
        if (countdown > 0) {
            --countdown;
            return; // a recent batch still covers the far window
        }
        // A batch's data arrives only after the whole bundle
        // serializes, so it must start at least one batch-width ahead
        // of the consumption front or its leading pages arrive late.
        std::uint64_t off = std::max<std::uint64_t>(
            policy_.offsets(view.streamId).front(),
            batch_.batchPages);
        auto start = pred.target(off);
        if (!start)
            return;
        Vpn first = pred.step > 0
                        ? *start
                        : (*start - Vpn{} >= batch_.batchPages - 1
                               ? *start - (batch_.batchPages - 1)
                               : Vpn{});
        unsigned bundled = exec_.requestBatch(
            view.pid, first, batch_.batchPages, view.streamId,
            Tier::Ssp, now);
        if (bundled == 0)
            return;
        ++stats_.batchesIssued;
        countdown = batch_.everyHotPages;
        if (batchCountdown_.size() > 4096)
            batchCountdown_.clear();
    }

    /**
     * Correlation-tier prediction: chase the learned successor chain
     * as deep as the stream-agnostic policy offset asks.
     * @return true when at least one target was requested.
     */
    bool
    predictMarkov(const HotPage &hp, Tick now)
    {
        // The correlation tier has no STT stream; key the policy
        // offset on a per-PID pseudo-stream and chase the successor
        // chain as deep as the adaptive offset asks.
        // Pseudo-stream id packing. hopp-analyze: allow(raw)
        std::uint64_t stream_id = (1ull << 62) | hp.pid.raw();
        auto depth = static_cast<unsigned>(std::min<std::uint64_t>(
            maxMarkovDepth, std::max<std::uint64_t>(
                                2, policy_.offsets(stream_id).front())));
        MarkovChain targets = markov_->predict(hp.pid, hp.vpn, depth);
        if (targets.empty())
            return false;
        ++stats_.predictions[static_cast<unsigned>(Tier::Mkv)];
        for (Vpn t : targets)
            exec_.request(hp.pid, t, stream_id, Tier::Mkv, now);
        return true;
    }

    PolicyEngine &policy_;
    PrefetchSink &exec_;
    unsigned tierMask_;
    BatchConfig batch_;
    const MarkovTable *markov_;
    std::unordered_map<std::uint64_t, std::uint64_t> batchCountdown_;
    TrainerStats stats_;
};

} // namespace hopp::core


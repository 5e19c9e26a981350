/**
 * @file
 * The adaptive three-tier prefetch algorithms (§III-D):
 *
 *  - SSP: Simple-Stream-based Prefetch — majority (dominant) stride
 *    over the stream's stride history;
 *  - LSP: Ladder-Stream-based Prefetch — Algorithm 1: repetitive
 *    tread+rise spatial patterns;
 *  - RSP: Ripple-Stream-based Prefetch — Algorithm 2: net stride-1
 *    progress under bounded out-of-order distortion.
 *
 * Applied in order SSP -> LSP -> RSP; the first identification wins.
 */

#pragma once

#include <cstdint>
#include <optional>

#include "hopp/stt.hh"

namespace hopp::core
{

/** Which tier identified a stream. */
enum class Tier : std::uint8_t
{
    Ssp = 0,
    Lsp = 1,
    Rsp = 2,
    Mkv = 3, //!< correlation (Markov) tier — §III-D's ML direction
};

/** Number of tiers (array sizing). */
inline constexpr unsigned tierCount = 4;

/** Tier enable mask bits (Fig. 18-20 ablations). */
namespace tiers
{
inline constexpr unsigned ssp = 1u << 0;
inline constexpr unsigned lsp = 1u << 1;
inline constexpr unsigned rsp = 1u << 2;
inline constexpr unsigned all = ssp | lsp | rsp;

/** The optional correlation tier; not part of `all` (paper default). */
inline constexpr unsigned markov = 1u << 3;
} // namespace tiers

/**
 * A prediction parameterised by the prefetch offset i (§III-E):
 * the page to prefetch at offset i >= 1 is vpn(i) = base + i * step.
 * (For LSP, base = VPN_A + stride_target and step = pattern_stride with
 * i counting pattern repetitions; for SSP/RSP, base = VPN_A and step
 * is the stride.)
 */
struct Prediction
{
    Tier tier = Tier::Ssp;
    Vpn base;
    std::int64_t step = 0;

    /** Target VPN at offset i (i >= 1); nullopt when it underflows. */
    std::optional<Vpn>
    target(std::uint64_t i) const
    {
        std::int64_t reps = tier == Tier::Lsp
                                ? static_cast<std::int64_t>(i - 1)
                                : static_cast<std::int64_t>(i);
        std::int64_t delta = reps * step;
        if (delta < 0 &&
            static_cast<std::uint64_t>(-delta) > base - Vpn{})
            return std::nullopt;
        return offsetBy(base, delta);
    }
};

/** SSP: dominant stride (>= L/2 occurrences) or nullopt. */
std::optional<Prediction> runSsp(const StreamView &view);

/** LSP (Algorithm 1): ladder pattern or nullopt. */
std::optional<Prediction> runLsp(const StreamView &view);

/** RSP (Algorithm 2): ripple stream (with max_stride=2) or nullopt. */
std::optional<Prediction> runRsp(const StreamView &view);

/** Run the enabled tiers in SSP -> LSP -> RSP order. */
std::optional<Prediction> runThreeTier(const StreamView &view,
                                       unsigned tier_mask = tiers::all);

/**
 * runThreeTier over one view for several tier masks. The tier
 * algorithms are pure functions of the view, and every backend of an
 * STT group trains on the same view, so the pipeline keeps one memo
 * per group and each algorithm runs at most once per view. Tiers run
 * lazily, in runThreeTier's order: a query never evaluates a tier
 * that runThreeTier with the same mask would have skipped.
 */
class TierMemo
{
  public:
    /** Forget every answer; later queries evaluate over @p view,
     *  which must outlive them. */
    void
    reset(const StreamView &view)
    {
        view_ = &view;
        ran_ = 0;
    }

    /** runThreeTier(view, tier_mask), from memoized tier answers. */
    std::optional<Prediction> run(unsigned tier_mask);

  private:
    const StreamView *view_ = nullptr;
    unsigned ran_ = 0; //!< tiers:: bits whose answer is held
    std::optional<Prediction> answer_[3]; //!< SSP, LSP, RSP
};

} // namespace hopp::core


#include "hopp/algorithms.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "common/logging.hh"

namespace hopp::core
{

namespace
{

// These algorithms run on every full-view hot page of every training
// backend, so their scratch lives on the stack: histories are capped
// at maxTrainHistory VPNs (asserted in the Stt constructor), and with
// at most L-1 strides a quadratic re-count is far cheaper than the
// hash map it replaces — the decisions are identical, because the
// running count of s[i] over s[0..i] is exactly what the map held
// when it visited position i.
constexpr std::size_t maxTrainStrides = maxTrainHistory - 1;

/**
 * Most frequent value of values[0..n-1] and its count; ties break
 * toward the value that reached the winning count first, matching the
 * insertion-ordered accumulation the trainer has always used.
 */
std::pair<std::int64_t, unsigned>
mode(const std::int64_t *values, std::size_t n)
{
    std::int64_t best = values[0];
    unsigned best_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        unsigned c = 0;
        for (std::size_t j = 0; j <= i; ++j)
            c += values[j] == values[i];
        if (c > best_count) {
            best_count = c;
            best = values[i];
        }
    }
    return {best, best_count};
}

} // namespace

std::optional<Prediction>
runSsp(const StreamView &view)
{
    const auto &s = *view.strides;
    // Dominant stride: a value occurring >= L/2 times among the L-1
    // strides (§III-D2). First position whose running count reaches
    // the majority wins, as with the accumulating count it replaces.
    unsigned need = (static_cast<unsigned>(s.size()) + 1) / 2;
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned c = 0;
        for (std::size_t j = 0; j <= i; ++j)
            c += s[j] == s[i];
        if (c >= need && s[i] != 0)
            return Prediction{Tier::Ssp, view.vpnA(), s[i]};
    }
    return std::nullopt;
}

std::optional<Prediction>
runLsp(const StreamView &view)
{
    // Algorithm 1. With strides s[0..n-1] (newest last), the target
    // pattern is the two newest strides (pattern_target); candidates
    // are earlier positions where the same two strides occur in
    // sequence. Each candidate contributes its following stride
    // (next_stride) and the VPN distance to the next repetition
    // (stride_sum).
    const auto &s = *view.strides;
    const auto &v = *view.vpns;
    std::size_t n = s.size();
    if (n < 4)
        return std::nullopt;
    hopp_assert(n <= maxTrainStrides, "history exceeds training cap");
    std::int64_t pt0 = s[n - 2];
    std::int64_t pt1 = s[n - 1];
    // Trainer-side scratch, bounded by the per-page history length and
    // live only for this software-plane training call.
    std::int64_t next_stride[maxTrainStrides];
    std::int64_t stride_sum[maxTrainStrides];
    std::size_t candidates = 0;
    // The VPN ending the most recent pattern occurrence; v has n+1
    // entries, so v[n] is VPN_A (the target pattern's end).
    std::size_t last_end = n;
    // Scan candidates newest-first; a candidate pair (s[i], s[i+1])
    // must not overlap the target pattern, so i + 1 <= n - 3.
    for (std::int64_t si = static_cast<std::int64_t>(n) - 4; si >= 0;
         --si) {
        auto i = static_cast<std::size_t>(si);
        if (s[i] == pt0 && s[i + 1] == pt1) {
            next_stride[candidates] = s[i + 2];
            // v[i+2] ends the candidate occurrence.
            stride_sum[candidates] = signedDelta(v[i + 2], v[last_end]);
            ++candidates;
            last_end = i + 2;
        }
    }
    if (candidates == 0)
        return std::nullopt;
    // A genuine ladder yields *consistent* continuations: require the
    // dominant next stride and repetition distance to be a majority of
    // the candidates, or the "repetition" is just noise from a small
    // stride alphabet (e.g. ripple jitter) and must fall through to
    // RSP.
    auto [stride_target, st_count] = mode(next_stride, candidates);
    auto [pattern_stride, ps_count] = mode(stride_sum, candidates);
    if (st_count * 2 <= candidates || ps_count * 2 <= candidates)
        return std::nullopt;
    if (pattern_stride == 0)
        return std::nullopt;
    if (stride_target < 0 &&
        static_cast<std::uint64_t>(-stride_target) > view.vpnA() - Vpn{})
        return std::nullopt;
    return Prediction{Tier::Lsp, offsetBy(view.vpnA(), stride_target),
                      pattern_stride};
}

std::optional<Prediction>
runRsp(const StreamView &view)
{
    // Algorithm 2: count "ripple pages" — positions from which the
    // cumulative stride returns within max_stride. The newest stride
    // is checked directly; then we accumulate backwards.
    constexpr std::int64_t max_stride = 2;
    const auto &s = *view.strides;
    unsigned ripple_num = 0;
    if (std::llabs(s.back()) <= max_stride)
        ++ripple_num;
    std::int64_t accumulate = 0;
    for (std::size_t i = s.size() - 1; i-- > 0;) {
        accumulate += s[i];
        if (std::llabs(accumulate) <= max_stride) {
            ++ripple_num;
            accumulate = 0;
        }
    }
    unsigned need = (static_cast<unsigned>(view.vpns->size())) / 2;
    if (ripple_num < need)
        return std::nullopt;
    return Prediction{Tier::Rsp, view.vpnA(), 1};
}

std::optional<Prediction>
runThreeTier(const StreamView &view, unsigned tier_mask)
{
    TierMemo memo;
    memo.reset(view);
    return memo.run(tier_mask);
}

std::optional<Prediction>
TierMemo::run(unsigned tier_mask)
{
    for (unsigned t = 0; t < std::size(answer_); ++t) {
        unsigned bit = 1u << t;
        if (!(tier_mask & bit))
            continue;
        if (!(ran_ & bit)) {
            ran_ |= bit;
            answer_[t] = bit == tiers::ssp   ? runSsp(*view_)
                         : bit == tiers::lsp ? runLsp(*view_)
                                             : runRsp(*view_);
        }
        if (answer_[t])
            return answer_[t];
    }
    return std::nullopt;
}

} // namespace hopp::core

#include "prefetch/leap.hh"

#include <cstdlib>
#include <vector>

namespace hopp::prefetch
{

std::int64_t
Leap::detectStride() const
{
    // Strides between consecutive fault addresses, newest last. Faults
    // from different processes interleave freely — exactly the §II-B
    // limitation (2) the paper demonstrates in Figure 1.
    if (history_.size() < 2)
        return 0;
    std::vector<std::int64_t> strides;
    strides.reserve(history_.size() - 1);
    for (std::size_t i = 1; i < history_.size(); ++i) {
        strides.push_back(
            signedDelta(history_[i - 1].second, history_[i].second));
    }
    // Try growing windows over the newest strides; accept the first
    // Boyer-Moore candidate that is a true majority.
    for (unsigned w = minWindow; w <= strides.size(); w *= 2) {
        std::size_t begin = strides.size() - w;
        std::int64_t cand = 0;
        int count = 0;
        for (std::size_t i = begin; i < strides.size(); ++i) {
            if (count == 0) {
                cand = strides[i];
                count = 1;
            } else {
                count += strides[i] == cand ? 1 : -1;
            }
        }
        unsigned occurrences = 0;
        for (std::size_t i = begin; i < strides.size(); ++i)
            occurrences += strides[i] == cand;
        // Non-strict majority (>= w/2), as in Leap's implementation:
        // with two interleaved streams the cross-stream stride can hit
        // exactly w/2 and Leap locks onto the *wrong* stride — the
        // §VI-E pathology that makes it lose to Fastswap.
        if (cand != 0 && occurrences * 2 >= w)
            return cand;
        if (w == strides.size())
            break;
    }
    return 0;
}

void
Leap::adaptDepth()
{
    std::uint64_t c = completed_ - epochCompleted_;
    std::uint64_t h = hits_ - epochHits_;
    epochCompleted_ = completed_;
    epochHits_ = hits_;
    if (c == 0)
        return;
    double ratio = static_cast<double>(h) / static_cast<double>(c);
    if (ratio > growThreshold)
        depth_ = std::min(depth_ * 2, maxDepth);
    else
        depth_ = std::max(depth_ / 2, 1u);
}

void
Leap::onFault(const vm::FaultContext &ctx)
{
    history_.emplace_back(ctx.pid, ctx.vpn);
    if (history_.size() > historySize)
        history_.pop_front();

    if (++faults_ % cfg_.epochFaults == 0)
        adaptDepth();

    std::int64_t stride = detectStride();
    if (stride != 0) {
        for (unsigned i = 1; i <= depth_; ++i) {
            std::int64_t delta = stride * static_cast<std::int64_t>(i);
            // Reject targets below page 0 (ctx.vpn - Vpn{} is the
            // page's unsigned distance from zero).
            if (delta < 0 &&
                static_cast<std::uint64_t>(-delta) > ctx.vpn - Vpn{})
                break;
            vms_.prefetchToSwapCache(ctx.pid, offsetBy(ctx.vpn, delta),
                                     origin::leap, ctx.now);
        }
        return;
    }
    // No trend: shallow sequential fallback.
    for (unsigned i = 1; i <= fallbackDepth; ++i) {
        vms_.prefetchToSwapCache(ctx.pid, ctx.vpn + i, origin::leap,
                                 ctx.now);
    }
}

} // namespace hopp::prefetch

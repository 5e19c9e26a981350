#include "hopp/stt.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace hopp::core
{

Stt::Stt(const SttConfig &cfg) : cfg_(cfg), table_(cfg.entries)
{
    hopp_assert(cfg_.entries > 0, "STT needs entries");
    hopp_assert(cfg_.historyLen >= 4, "history too short to train");
    hopp_assert(cfg_.historyLen <= maxTrainHistory,
                "history exceeds the stack-scratch training cap");
    for (auto &e : table_) {
        e.vpns.reserve(cfg_.historyLen);
        e.strides.reserve(cfg_.historyLen - 1);
    }
}

std::size_t
Stt::liveStreams() const
{
    std::size_t n = 0;
    for (const auto &e : table_)
        n += e.valid;
    return n;
}

std::optional<StreamView>
Stt::append(Entry &e, Vpn vpn)
{
    e.lastUse = ++clock_;
    Vpn last = e.lastVpn;
    if (vpn == last) {
        // Repeated extraction of the same page (multi-channel dedup,
        // §III-B): refresh recency only.
        ++stats_.duplicates;
        return std::nullopt;
    }
    std::int64_t stride = signedDelta(last, vpn);
    if (e.vpns.size() == cfg_.historyLen) {
        e.vpns.erase(e.vpns.begin());
        e.strides.erase(e.strides.begin());
    }
    e.vpns.push_back(vpn);
    e.strides.push_back(stride);
    e.lastVpn = vpn;
    ++e.length;
    ++stats_.appended;
    if (e.vpns.size() == cfg_.historyLen) {
        ++stats_.fullViews;
        return StreamView{e.pid, e.id, e.length, &e.vpns, &e.strides};
    }
    return std::nullopt;
}

std::optional<StreamView>
Stt::feed(Pid pid, Vpn vpn)
{
    ++stats_.fed;
    // Find the best matching stream: same PID and last VPN within
    // Δ_stream; prefer the closest last VPN.
    Entry *best = nullptr;
    std::uint64_t best_dist = ~std::uint64_t(0);
    Entry *lru = nullptr;
    for (auto &e : table_) {
        if (!e.valid) {
            // Prefer filling an empty slot over evicting.
            if (!lru || lru->valid)
                lru = &e;
            continue;
        }
        if (!lru || (lru->valid && e.lastUse < lru->lastUse))
            lru = &e;
        if (e.pid != pid)
            continue;
        std::uint64_t dist = vpn > e.lastVpn ? vpn - e.lastVpn
                                             : e.lastVpn - vpn;
        if (dist <= streamDelta && dist < best_dist) {
            best = &e;
            best_dist = dist;
        }
    }
    if (best)
        return append(*best, vpn);

    // Seed a new stream in an invalid or LRU slot.
    hopp_assert(lru, "STT has no replaceable entry");
    if (lru->valid)
        ++stats_.evicted;
    ++stats_.seeded;
    lru->valid = true;
    lru->pid = pid;
    lru->id = nextId_++;
    lru->lastUse = ++clock_;
    lru->length = 1;
    lru->vpns.clear();
    lru->strides.clear();
    lru->vpns.push_back(vpn);
    lru->lastVpn = vpn;
    return std::nullopt;
}

} // namespace hopp::core

/**
 * @file
 * Stream Training Table (STT, §III-D1, Figure 7).
 *
 * 64 entries, each a potential stream: a PID, the last L=16 VPNs
 * received for that stream (VPN_history) and the L-1 derived strides
 * (stride_history). A hot page joins an existing stream when its PID
 * matches and its VPN is within Δ_stream=64 pages of the stream's last
 * VPN (pages clustering); otherwise it seeds a new entry, evicting the
 * LRU one. Once a history fills, the adaptive three-tier algorithms
 * run on every subsequent append.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::core
{

/**
 * Upper bound on SttConfig::historyLen: the three-tier algorithms
 * keep their per-view training scratch on the stack, sized by this
 * (they run once per full-view hot page per backend, so heap scratch
 * there is measurable across a policy fan-out).
 */
inline constexpr std::size_t maxTrainHistory = 64;

/** STT geometry (paper defaults). */
struct SttConfig
{
    /** Number of stream entries. */
    std::size_t entries = 64;

    /** History length L; larger L = stricter identification (at most
     *  maxTrainHistory). */
    unsigned historyLen = 16;

    /** Same geometry = same behaviour: backends with equal configs
     *  can share one table (HotPagePipeline's STT groups). */
    bool operator==(const SttConfig &) const = default;
};

/**
 * A read-only view of one full stream history handed to the prefetch
 * algorithms. vpns has L entries (oldest first); strides has L-1.
 */
struct StreamView
{
    Pid pid;
    std::uint64_t streamId = 0;

    /** Total pages ever appended to this stream (stream length). */
    std::uint64_t length = 0;

    const std::vector<Vpn> *vpns = nullptr;
    const std::vector<std::int64_t> *strides = nullptr;

    /** Newest VPN (VPN_A). */
    Vpn
    vpnA() const
    {
        return vpns->back();
    }

    /** Newest stride (stride_A). */
    std::int64_t
    strideA() const
    {
        return strides->back();
    }
};

/** STT counters. */
struct SttStats
{
    std::uint64_t fed = 0;
    std::uint64_t appended = 0;
    std::uint64_t duplicates = 0; //!< same VPN as the stream's last
    std::uint64_t seeded = 0;     //!< new entries allocated
    std::uint64_t evicted = 0;    //!< LRU entries recycled
    std::uint64_t fullViews = 0;  //!< histories ready for training
};

/**
 * The Stream Training Table.
 */
class Stt
{
  public:
    /** Δ_stream: max |VPN - last VPN| for clustering into a stream. */
    static constexpr std::uint64_t streamDelta = 64;

    explicit Stt(const SttConfig &cfg = {});

    /**
     * Feed one hot page (PID, VPN).
     * @return a StreamView when the page extended a stream whose
     *         history is full (training should run), nullopt otherwise.
     *         The view aliases internal storage: use before next feed().
     */
    std::optional<StreamView> feed(Pid pid, Vpn vpn);

    /** Counters. */
    const SttStats &stats() const { return stats_; }

    /** Configuration. */
    const SttConfig &config() const { return cfg_; }

    /** Number of live stream entries. */
    std::size_t liveStreams() const;

  private:
    friend class hopp::check::Access;

    struct Entry
    {
        bool valid = false;
        Pid pid;
        std::uint64_t id = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t length = 0; //!< pages appended over the lifetime
        /// Cached vpns.back(): the clustering scan in feed() reads
        /// every entry's last VPN, and an inline copy keeps that scan
        /// inside the contiguous entry array instead of chasing each
        /// entry's history vector.
        Vpn lastVpn;
        std::vector<Vpn> vpns;
        std::vector<std::int64_t> strides;
    };

    std::optional<StreamView> append(Entry &e, Vpn vpn);

    SttConfig cfg_;
    std::vector<Entry> table_;
    std::uint64_t clock_ = 0;
    std::uint64_t nextId_ = 1;
    SttStats stats_;
};

} // namespace hopp::core


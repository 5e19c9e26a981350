/**
 * @file
 * Generic set-associative, LRU-replaced lookup structure.
 *
 * Models the small hardware tables HoPP adds to the memory controller
 * (HPD table, RPT cache) as well as the LLC tag array. Keys are 64-bit
 * tags — raw integers or TaggedU64 wrappers (e.g. Ppn for the
 * frame-indexed MC tables); the set index is the low bits of the key,
 * exactly as the paper indexes the HPD table with the low PPN bits.
 *
 * Storage is structure-of-arrays: one flat tag array, one payload
 * array, one valid bitmask word per set, and per set two runs of
 * one-byte-per-way lanes packed into 64-bit words — a fingerprint (a
 * multiplicative hash of the tag) and an LRU rank (0 = MRU). A probe
 * compares a set's fingerprints eight at a time with a SWAR zero-byte
 * test and reads a full tag only for a valid way whose fingerprint
 * matches, in the way hardware prefetch tables match short partial
 * tags; promotion and victim choice are word operations on the ranks.
 * The probe sits behind every simulated LLC access and every LLC miss
 * probes the HPD again, so it is the largest host-side cost of a
 * simulated memory access (see DESIGN.md §14).
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::mem
{

/**
 * Fixed-geometry set-associative cache with true-LRU replacement.
 *
 * @tparam Value payload stored per tag.
 * @tparam Key   tag type: a raw 64-bit integer or a TaggedU64 wrapper.
 */
template <typename Value, typename Key = std::uint64_t>
class SetAssocCache
{
  public:
    /** An evicted (tag, value) pair returned from insert(). */
    struct Eviction
    {
        Key tag;
        Value value;
    };

    /**
     * @param sets number of sets; must be a power of two.
     * @param ways associativity; at most 64 (one valid-bit word/set).
     */
    SetAssocCache(std::size_t sets, std::size_t ways)
        : sets_(sets), setMask_(sets - 1), ways_(ways),
          words_((ways + 7) / 8),
          full_(ways >= 64 ? ~0ull : (1ull << ways) - 1),
          tags_(sets * ways, 0), valid_(sets, 0),
          lanes_(sets * 2 * words_, 0), values_(sets * ways)
    {
        hopp_assert(sets > 0 && (sets & (sets - 1)) == 0,
                    "set count must be a power of two");
        hopp_assert(ways > 0 && ways <= 64,
                    "way count must fit the per-set valid word");
        // Every set starts from one rank order: way w at rank w, the
        // padding lanes past `ways` at kPadRank, where they stay.
        std::uint64_t ranks[8] = {};
        for (std::size_t k = 0; k < words_; ++k) {
            for (std::size_t b = 0; b < 8; ++b) {
                const std::size_t w = 8 * k + b;
                ranks[k] |= (w < ways ? w : kPadRank) << (8 * b);
            }
        }
        for (std::size_t s = 0; s < sets; ++s)
            std::copy_n(ranks, words_, rankWords(s));
    }

    /** Number of sets. */
    std::size_t sets() const { return sets_; }

    /** Associativity. */
    std::size_t ways() const { return ways_; }

    /** Total capacity in entries. */
    std::size_t capacity() const { return sets_ * ways_; }

    /** Entries currently valid. */
    std::size_t size() const { return live_; }

    /**
     * Look up a tag and promote it to MRU on hit.
     * @return pointer to the payload, or nullptr on miss.
     */
    Value *
    touch(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        const std::size_t w = findIndex(set, raw);
        if (w == npos)
            return nullptr;
        promote(set, w);
        return &values_[set * ways_ + w];
    }

    /** Look up a tag without disturbing LRU state. */
    Value *
    peek(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        const std::size_t w = findIndex(set, raw);
        return w == npos ? nullptr : &values_[set * ways_ + w];
    }

    /** Const lookup without disturbing LRU state. */
    const Value *
    peek(Key tag) const
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        const std::size_t w = findIndex(set, raw);
        return w == npos ? nullptr : &values_[set * ways_ + w];
    }

    /**
     * Insert or overwrite a tag as MRU.
     * @return the LRU victim if a valid entry had to be evicted.
     */
    std::optional<Eviction>
    insert(Key tag, Value value)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        std::size_t w = findIndex(set, raw);
        if (w != npos) {
            values_[set * ways_ + w] = std::move(value);
            promote(set, w);
            return std::nullopt;
        }
        bool evicted;
        w = victimWay(set, &evicted);
        const std::size_t i = set * ways_ + w;
        std::optional<Eviction> out;
        if (evicted)
            out = Eviction{Key{tags_[i]}, std::move(values_[i])};
        fill(set, w, raw, std::move(value));
        return out;
    }

    /** Outcome of a probeInsert(): the resident payload, whether the
     *  probe hit, and whether a valid entry was evicted on the miss. */
    struct ProbeResult
    {
        Value *value;
        bool hit;
        bool evicted;
    };

    /**
     * Combined probe-and-insert: exactly touch(tag), followed on miss
     * by insert(tag, missValue) — same hit promotion, same LRU victim
     * choice — with one probe instead of two. This is the tag-array
     * pattern of the per-access hot path (LLC, HPD); the split entry
     * points remain for callers that probe without filling.
     */
    ProbeResult
    probeInsert(Key tag, Value missValue)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        std::size_t w = findIndex(set, raw);
        if (w != npos) {
            promote(set, w);
            return {&values_[set * ways_ + w], true, false};
        }
        bool evicted;
        w = victimWay(set, &evicted);
        fill(set, w, raw, std::move(missValue));
        return {&values_[set * ways_ + w], false, evicted};
    }

    /**
     * Remove a tag if present.
     * @return the removed payload.
     */
    std::optional<Value>
    erase(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        const std::size_t w = findIndex(set, raw);
        if (w == npos)
            return std::nullopt;
        valid_[set] &= ~(1ull << w);
        --live_;
        return std::move(values_[set * ways_ + w]);
    }

    /** Drop every entry. */
    void
    clear()
    {
        for (auto &v : valid_)
            v = 0;
        live_ = 0;
    }

    /** Visit every valid (tag, value) pair; fn(tag, value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::uint64_t m = valid_[s]; m; m &= m - 1) {
                std::size_t i =
                    s * ways_ +
                    static_cast<std::size_t>(std::countr_zero(m));
                fn(Key{tags_[i]}, values_[i]);
            }
        }
    }

  private:
    friend class hopp::check::Access;

    static constexpr std::size_t npos = ~std::size_t{0};

    /** Rank byte of the padding lanes past `ways`; above every real
     *  rank (at most 63), so promotion never moves it. */
    static constexpr std::uint64_t kPadRank = 0x7F;

    /** Lane-wise constants: 0x01 (times a byte: broadcast) and 0x80
     *  (each lane's high bit) in every byte. */
    static constexpr std::uint64_t kLow = 0x0101010101010101ull;
    static constexpr std::uint64_t kHigh = 0x8080808080808080ull;

    static constexpr std::uint64_t
    rawKey(Key tag)
    {
        // Set indexing needs the key's bits regardless of its tag
        // type. hopp-analyze: allow(raw)
        if constexpr (requires { tag.raw(); })
            return tag.raw(); // hopp-analyze: allow(raw)
        else
            return static_cast<std::uint64_t>(tag);
    }

    /** One-byte partial tag: the top byte of a multiplicative hash,
     *  so every key bit above the set index feeds it. */
    static constexpr std::uint64_t
    fingerprint(std::uint64_t raw)
    {
        return (raw * 0x9E3779B97F4A7C15ull) >> 56;
    }

    /** Bit w set for each byte lane w of @p words equal to @p byte. */
    std::uint64_t
    matchLanes(const std::uint64_t *words, std::uint64_t byte) const
    {
        const std::uint64_t probe = byte * kLow;
        std::uint64_t lanes = 0;
        for (std::size_t k = 0; k < words_; ++k) {
            const std::uint64_t x = words[k] ^ probe;
            // Exact zero-byte test (no borrow between lanes): 0x80 in
            // each byte of x that is zero, nothing elsewhere.
            const std::uint64_t zero =
                ~(((x & ~kHigh) + ~kHigh) | x | ~kHigh);
            // Gather the eight 0x80 flags into the top byte, in order.
            lanes |= (((zero >> 7) * 0x0102040810204080ull) >> 56)
                     << (8 * k);
        }
        return lanes;
    }

    /** The byte of lane @p w in a set's run of lane words. */
    static std::uint64_t
    laneByte(const std::uint64_t *words, std::size_t w)
    {
        return (words[w / 8] >> (8 * (w % 8))) & 0xFF;
    }

    std::uint64_t *
    fingerprintWords(std::size_t set)
    {
        return lanes_.data() + set * 2 * words_;
    }

    const std::uint64_t *
    fingerprintWords(std::size_t set) const
    {
        return lanes_.data() + set * 2 * words_;
    }

    std::uint64_t *
    rankWords(std::size_t set)
    {
        return fingerprintWords(set) + words_;
    }

    const std::uint64_t *
    rankWords(std::size_t set) const
    {
        return fingerprintWords(set) + words_;
    }

    std::size_t
    setIndex(std::uint64_t raw) const
    {
        // Precomputed at construction: the tag lookup sits on the
        // per-access LLC hit path, where even the subtraction counts.
        return static_cast<std::size_t>(raw & setMask_);
    }

    /** Way of the valid line holding @p raw in @p set, or npos. */
    std::size_t
    findIndex(std::size_t set, std::uint64_t raw) const
    {
        std::uint64_t cand =
            matchLanes(fingerprintWords(set), fingerprint(raw)) &
            valid_[set];
        const std::uint64_t *tags = tags_.data() + set * ways_;
        for (; cand; cand &= cand - 1) {
            const auto w = static_cast<std::size_t>(std::countr_zero(cand));
            if (tags[w] == raw)
                return w;
        }
        return npos;
    }

    /**
     * Replacement choice in @p set: the first invalid way, else the
     * way ranked last, i.e. promoted longest ago. Books the occupancy
     * change; the caller writes tag, payload and rank via fill().
     */
    std::size_t
    victimWay(std::size_t set, bool *evicted)
    {
        const std::uint64_t vmask = valid_[set];
        if (vmask != full_) {
            const auto w = static_cast<std::size_t>(std::countr_one(vmask));
            valid_[set] = vmask | (1ull << w);
            ++live_;
            *evicted = false;
            return w;
        }
        *evicted = true;
        return static_cast<std::size_t>(
            std::countr_zero(matchLanes(rankWords(set), ways_ - 1)));
    }

    void
    fill(std::size_t set, std::size_t w, std::uint64_t raw, Value value)
    {
        tags_[set * ways_ + w] = raw;
        values_[set * ways_ + w] = std::move(value);
        std::uint64_t &fp = fingerprintWords(set)[w / 8];
        const unsigned shift = 8 * (w % 8);
        fp = (fp & ~(0xFFull << shift)) | (fingerprint(raw) << shift);
        promote(set, w);
    }

    /** Make way @p w the MRU of @p set: every way ranked below it
     *  ages by one, then it takes rank 0. */
    void
    promote(std::size_t set, std::size_t w)
    {
        std::uint64_t *ranks = rankWords(set);
        const std::uint64_t rank = laneByte(ranks, w) * kLow;
        for (std::size_t k = 0; k < words_; ++k) {
            // (x | 0x80) - rank keeps the high bit exactly in the
            // lanes with x >= rank, and never borrows across lanes.
            const std::uint64_t younger =
                ~((ranks[k] | kHigh) - rank) & kHigh;
            ranks[k] += younger >> 7;
        }
        ranks[w / 8] &= ~(0xFFull << (8 * (w % 8)));
    }

    std::size_t sets_;
    std::uint64_t setMask_; //!< sets_ - 1, precomputed for setIndex()
    std::size_t ways_;
    std::size_t words_;  //!< lane words per run: ceil(ways / 8)
    std::uint64_t full_; //!< valid word of a full set
    std::vector<std::uint64_t> tags_;  //!< sets x ways raw keys
    std::vector<std::uint64_t> valid_; //!< one bit per way, per set
    /** Per set: words_ fingerprint words, then words_ rank words;
     *  byte b of word k is lane (way) 8k + b. */
    std::vector<std::uint64_t> lanes_;
    std::vector<Value> values_; //!< sets x ways payloads
    std::size_t live_ = 0;
};

} // namespace hopp::mem

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
 * Storage is structure-of-arrays: one flat tag array, one age array,
 * one valid bitmask word per set, and a separate payload array. A way
 * scan therefore touches two cache lines of tags (16 ways x 8 B)
 * instead of walking {valid, tag, age, payload} records — the tag
 * probe sits behind every simulated LLC access and every LLC miss
 * probes the HPD again, so the layout is the single largest host-side
 * cost of a simulated memory access (see DESIGN.md §14).
 */

#pragma once

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
          tags_(sets * ways, 0), ages_(sets * ways, 0), valid_(sets, 0),
          values_(sets * ways)
    {
        hopp_assert(sets > 0 && (sets & (sets - 1)) == 0,
                    "set count must be a power of two");
        hopp_assert(ways > 0 && ways <= 64,
                    "way count must fit the per-set valid word");
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
        std::size_t i = findIndex(rawKey(tag));
        if (i == npos)
            return nullptr;
        promote(i);
        return &values_[i];
    }

    /** Look up a tag without disturbing LRU state. */
    Value *
    peek(Key tag)
    {
        std::size_t i = findIndex(rawKey(tag));
        return i == npos ? nullptr : &values_[i];
    }

    /** Const lookup without disturbing LRU state. */
    const Value *
    peek(Key tag) const
    {
        std::size_t i =
            const_cast<SetAssocCache *>(this)->findIndex(rawKey(tag));
        return i == npos ? nullptr : &values_[i];
    }

    /**
     * Insert or overwrite a tag as MRU.
     * @return the LRU victim if a valid entry had to be evicted.
     */
    std::optional<Eviction>
    insert(Key tag, Value value)
    {
        const std::uint64_t raw = rawKey(tag);
        std::size_t i = findIndex(raw);
        if (i != npos) {
            values_[i] = std::move(value);
            promote(i);
            return std::nullopt;
        }
        const std::size_t set = setIndex(raw);
        bool evicted;
        std::size_t v = victimIndex(set, &evicted);
        std::optional<Eviction> out;
        if (evicted)
            out = Eviction{Key{tags_[v]}, std::move(values_[v])};
        fill(set, v, raw, std::move(value));
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
     * choice (first invalid way, else strictly-oldest), same clock
     * advance — but in a single way scan instead of three. This is the
     * tag-array pattern of the per-access hot path (LLC, HPD), where
     * the redundant scans were a measurable share of a simulated
     * access; the split entry points remain for callers that probe
     * without filling.
     */
    ProbeResult
    probeInsert(Key tag, Value missValue)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        const std::size_t base = set * ways_;
        const std::uint64_t vmask = valid_[set];
        const std::uint64_t *tags = tags_.data() + base;
        const std::uint64_t *ages = ages_.data() + base;
        // One fused pass: hit probe and LRU victim tracking together,
        // so a miss (the steady state of a streaming LLC) needs no
        // second scan. Victim rule matches victimIndex(): first
        // invalid way, else the strictly-oldest valid one.
        std::size_t v = 0;
        std::uint64_t vage = 0;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (tags[w] == raw && (vmask >> w) & 1) {
                promote(base + w);
                return {&values_[base + w], true, false};
            }
            if (ages[w] > vage) {
                vage = ages[w];
                v = w;
            }
        }
        bool evicted = true;
        const std::uint64_t full =
            ways_ == 64 ? ~0ull : (1ull << ways_) - 1;
        if (vmask != full) {
            v = static_cast<std::size_t>(std::countr_one(vmask));
            valid_[set] = vmask | (1ull << v);
            ++live_;
            evicted = false;
        }
        v += base;
        fill(set, v, raw, std::move(missValue));
        return {&values_[v], false, evicted};
    }

    /**
     * Remove a tag if present.
     * @return the removed payload.
     */
    std::optional<Value>
    erase(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        std::size_t i = findIndex(raw);
        if (i == npos)
            return std::nullopt;
        valid_[setIndex(raw)] &= ~(1ull << (i % ways_));
        --live_;
        return std::move(values_[i]);
    }

    /** Drop every entry. */
    void
    clear()
    {
        for (auto &v : valid_)
            v = 0;
        live_ = 0;
        clock_ = 0;
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

    std::size_t
    setIndex(std::uint64_t raw) const
    {
        // Precomputed at construction: the tag lookup sits on the
        // per-access LLC hit path, where even the subtraction counts.
        return static_cast<std::size_t>(raw & setMask_);
    }

    /** Flat index of the valid line holding @p raw, or npos. */
    std::size_t
    findIndex(std::uint64_t raw)
    {
        const std::size_t set = setIndex(raw);
        const std::size_t base = set * ways_;
        const std::uint64_t vmask = valid_[set];
        const std::uint64_t *tags = tags_.data() + base;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (tags[w] == raw && (vmask >> w) & 1)
                return base + w;
        }
        return npos;
    }

    /**
     * Replacement choice in @p set: the first invalid way, else the
     * strictly-oldest valid one. Books the occupancy change; the
     * caller writes tag/age/payload via fill().
     */
    std::size_t
    victimIndex(std::size_t set, bool *evicted)
    {
        const std::uint64_t vmask = valid_[set];
        const std::uint64_t full =
            ways_ == 64 ? ~0ull : (1ull << ways_) - 1;
        if (vmask != full) {
            std::size_t w =
                static_cast<std::size_t>(std::countr_one(vmask));
            valid_[set] = vmask | (1ull << w);
            ++live_;
            *evicted = false;
            return set * ways_ + w;
        }
        const std::uint64_t *ages = ages_.data() + set * ways_;
        std::size_t v = 0;
        for (std::size_t w = 1; w < ways_; ++w) {
            if (ages[w] > ages[v])
                v = w;
        }
        *evicted = true;
        return set * ways_ + v;
    }

    void
    fill(std::size_t set, std::size_t idx, std::uint64_t raw,
         Value value)
    {
        (void)set;
        tags_[idx] = raw;
        values_[idx] = std::move(value);
        promote(idx);
    }

    void
    promote(std::size_t idx)
    {
        // A global logical clock gives true LRU without per-set
        // shuffles; ages decrease over time, so the oldest entry
        // carries the numerically largest age.
        ages_[idx] = ~(clock_++);
    }

    std::size_t sets_;
    std::uint64_t setMask_; //!< sets_ - 1, precomputed for setIndex()
    std::size_t ways_;
    std::vector<std::uint64_t> tags_; //!< sets x ways raw keys
    std::vector<std::uint64_t> ages_; //!< sets x ways LRU stamps
    std::vector<std::uint64_t> valid_; //!< one bit per way, per set
    std::vector<Value> values_;        //!< sets x ways payloads
    std::size_t live_ = 0;
    std::uint64_t clock_ = 0;
};

} // namespace hopp::mem

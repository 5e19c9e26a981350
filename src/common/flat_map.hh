/**
 * @file
 * Open-addressed hash map keyed by std::uint64_t, for per-fault hot
 * state (e.g. the HoPP eviction advisor's last-hotness table). One
 * flat slot array, linear probing, power-of-two capacity: a lookup is
 * one mix and a short contiguous scan — no per-node allocation, no
 * pointer chasing — and the table's layout is a pure function of the
 * key sequence, so iteration order is deterministic across runs and
 * standard libraries (the mixer below is our own, not std::hash).
 *
 * Deliberately minimal: exactly the operations the simulator hot paths
 * need. Keys are values (never pointers), which keeps any behaviour
 * derived from iteration order run-to-run stable; still, consumers of
 * forEach/eraseIf must be order-insensitive, because the order is
 * hash order, not insertion order.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace hopp
{

/** Flat open-addressed map from std::uint64_t to V. */
template <typename V>
class FlatU64Map
{
  public:
    FlatU64Map() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop everything; keeps the slot array capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.used = false;
        size_ = 0;
    }

    /** Pre-size so @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = slotsFor(n);
        if (want > slots_.size())
            rehash(want);
    }

    /** Pointer to the mapped value, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        std::size_t i = mix(key) & mask_;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatU64Map *>(this)->find(key);
    }

    /** Value for @p key, default-constructing on first touch. */
    V &
    operator[](std::uint64_t key)
    {
        if (slots_.empty() || (size_ + 1) * loadDen > slots_.size() * loadNum)
            rehash(slotsFor(size_ + 1));
        std::size_t i = mix(key) & mask_;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask_;
        }
        slots_[i].used = true;
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p key. @return true when it was present. */
    bool
    erase(std::uint64_t key)
    {
        if (slots_.empty())
            return false;
        std::size_t i = mix(key) & mask_;
        while (slots_[i].used) {
            if (slots_[i].key == key) {
                shiftBack(i);
                --size_;
                return true;
            }
            i = (i + 1) & mask_;
        }
        return false;
    }

    /**
     * Remove every entry for which @p pred(key, value) holds. @return
     * the number removed. Rebuilds the table once, so a sweep is O(n)
     * regardless of how many entries die.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        std::size_t removed = 0;
        std::vector<Slot> old = std::move(slots_);
        std::size_t live = 0;
        for (const Slot &s : old) {
            if (s.used && !pred(s.key, s.value))
                ++live;
        }
        removed = size_ - live;
        // One table rebuild per prune sweep, amortized over the whole
        // sweep's erasures. hopp-analyze: allow(hotpath-alloc)
        slots_.assign(slotsFor(live), Slot{});
        mask_ = slots_.empty() ? 0 : slots_.size() - 1;
        size_ = 0;
        for (Slot &s : old) {
            if (s.used && !pred(s.key, s.value))
                insertFresh(s.key, std::move(s.value));
        }
        return removed;
    }

    /** Visit every (key, value); order is hash order, not insertion. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
        bool used = false;
    };

    // Max load factor loadNum/loadDen = 1/2: tables grown by use sit
    // between 1/4 and 1/2 full, which keeps linear-probe runs short
    // (DESIGN §14).
    static constexpr std::size_t loadNum = 1;
    static constexpr std::size_t loadDen = 2;
    static constexpr std::size_t minSlots = 16;

    /** splitmix64 finalizer: full-avalanche, stdlib-independent. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    static std::size_t
    slotsFor(std::size_t entries)
    {
        std::size_t want = minSlots;
        while (entries * loadDen > want * loadNum)
            want <<= 1;
        return want;
    }

    void
    rehash(std::size_t new_slots)
    {
        std::vector<Slot> old = std::move(slots_);
        // Geometric growth: the table reaches its high-water size in
        // O(log n) rehashes, then steady state never reallocates.
        // hopp-analyze: allow(hotpath-alloc)
        slots_.assign(new_slots, Slot{});
        mask_ = new_slots - 1;
        size_ = 0;
        for (Slot &s : old) {
            if (s.used)
                insertFresh(s.key, std::move(s.value));
        }
    }

    void
    insertFresh(std::uint64_t key, V &&value)
    {
        std::size_t i = mix(key) & mask_;
        while (slots_[i].used)
            i = (i + 1) & mask_;
        slots_[i].used = true;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
    }

    /** Backward-shift deletion starting at the emptied slot @p hole. */
    void
    shiftBack(std::size_t hole)
    {
        std::size_t i = hole; // current hole
        std::size_t j = hole; // scan cursor
        for (;;) {
            j = (j + 1) & mask_;
            if (!slots_[j].used)
                break;
            // Slot j may move into the hole at i only if its probe
            // path starts at or before i, i.e. its home position is
            // cyclically outside (i, j].
            std::size_t home = mix(slots_[j].key) & mask_;
            if (((j - home) & mask_) >= ((j - i) & mask_)) {
                slots_[i].key = slots_[j].key;
                slots_[i].value = std::move(slots_[j].value);
                i = j;
            }
        }
        slots_[i].used = false;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace hopp


/**
 * @file
 * Unit tests for the generic set-associative LRU cache that underlies
 * the LLC, the HPD table and the RPT cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "mem/set_assoc.hh"

using hopp::mem::SetAssocCache;

TEST(SetAssoc, MissThenHit)
{
    SetAssocCache<int> c(4, 2);
    EXPECT_EQ(c.touch(42), nullptr);
    EXPECT_FALSE(c.insert(42, 7).has_value());
    int *v = c.touch(42);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(c.size(), 1u);
}

TEST(SetAssoc, InsertOverwritesExistingTag)
{
    SetAssocCache<int> c(4, 2);
    c.insert(1, 10);
    c.insert(1, 20);
    EXPECT_EQ(*c.peek(1), 20);
    EXPECT_EQ(c.size(), 1u);
}

TEST(SetAssoc, EvictsLruWithinSet)
{
    // 1 set, 2 ways: keys all collide.
    SetAssocCache<int> c(1, 2);
    c.insert(1, 1);
    c.insert(2, 2);
    c.touch(1); // make 2 the LRU
    auto ev = c.insert(3, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 2u);
    EXPECT_EQ(ev->value, 2);
    EXPECT_NE(c.peek(1), nullptr);
    EXPECT_NE(c.peek(3), nullptr);
    EXPECT_EQ(c.peek(2), nullptr);
}

TEST(SetAssoc, PeekDoesNotPromote)
{
    SetAssocCache<int> c(1, 2);
    c.insert(1, 1);
    c.insert(2, 2);
    c.peek(1); // must NOT save 1 from eviction
    auto ev = c.insert(3, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 1u);
}

TEST(SetAssoc, SetsAreIndependent)
{
    // 4 sets x 1 way: tags 0..3 map to distinct sets.
    SetAssocCache<int> c(4, 1);
    for (std::uint64_t t = 0; t < 4; ++t)
        EXPECT_FALSE(c.insert(t, static_cast<int>(t)).has_value());
    EXPECT_EQ(c.size(), 4u);
    // Tag 4 collides only with tag 0.
    auto ev = c.insert(4, 4);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 0u);
}

TEST(SetAssoc, EraseRemovesEntry)
{
    SetAssocCache<int> c(4, 2);
    c.insert(9, 90);
    auto removed = c.erase(9);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(*removed, 90);
    EXPECT_EQ(c.peek(9), nullptr);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.erase(9).has_value());
}

TEST(SetAssoc, ClearDropsEverything)
{
    SetAssocCache<int> c(4, 4);
    for (std::uint64_t t = 0; t < 16; ++t)
        c.insert(t, 0);
    c.clear();
    EXPECT_EQ(c.size(), 0u);
    for (std::uint64_t t = 0; t < 16; ++t)
        EXPECT_EQ(c.peek(t), nullptr);
}

TEST(SetAssoc, ForEachVisitsAllValidEntries)
{
    SetAssocCache<int> c(8, 2);
    for (std::uint64_t t = 0; t < 10; ++t)
        c.insert(t, static_cast<int>(t));
    std::set<std::uint64_t> seen;
    c.forEach([&](std::uint64_t tag, int &) { seen.insert(tag); });
    EXPECT_EQ(seen.size(), c.size());
}

TEST(SetAssoc, CapacityFullWithoutEvictionAcrossSets)
{
    SetAssocCache<int> c(4, 4);
    // 16 tags that spread evenly over 4 sets never evict.
    for (std::uint64_t t = 0; t < 16; ++t)
        EXPECT_FALSE(c.insert(t, 1).has_value());
    EXPECT_EQ(c.size(), c.capacity());
}

TEST(SetAssocDeath, NonPowerOfTwoSetsRejected)
{
    using Cache = SetAssocCache<int>;
    EXPECT_DEATH(Cache(3, 2), "power of two");
}

// LRU property under a pseudo-random workload: after touching a key it
// must survive (ways-1) subsequent distinct insertions into its set.
TEST(SetAssoc, TouchedKeySurvivesWaysMinusOneInsertions)
{
    constexpr std::size_t ways = 8;
    SetAssocCache<int> c(1, ways);
    for (std::uint64_t t = 0; t < ways; ++t)
        c.insert(t, 0);
    c.touch(3);
    for (std::uint64_t t = 100; t < 100 + ways - 1; ++t)
        c.insert(t, 0);
    EXPECT_NE(c.peek(3), nullptr);
    c.insert(999, 0);
    EXPECT_EQ(c.peek(3), nullptr);
}

namespace
{

/**
 * Reference model: one recency list per set, MRU first, holding at
 * most `ways` (tag, value) pairs. Whatever the way layout or the LRU
 * encoding, SetAssocCache must return exactly what this model does.
 */
class ReferenceLru
{
  public:
    using Entry = std::pair<std::uint64_t, int>;

    ReferenceLru(std::size_t sets, std::size_t ways)
        : ways_(ways), sets_(sets)
    {
    }

    int *
    touch(std::uint64_t tag)
    {
        auto &l = set(tag);
        auto it = find(l, tag);
        if (it == l.end())
            return nullptr;
        l.splice(l.begin(), l, it);
        return &l.front().second;
    }

    int *
    peek(std::uint64_t tag)
    {
        auto &l = set(tag);
        auto it = find(l, tag);
        return it == l.end() ? nullptr : &it->second;
    }

    /** The evicted pair, if the set was full of other tags. */
    std::optional<Entry>
    insert(std::uint64_t tag, int value)
    {
        if (int *v = touch(tag)) {
            *v = value;
            return std::nullopt;
        }
        auto &l = set(tag);
        std::optional<Entry> out;
        if (l.size() == ways_) {
            out = l.back();
            l.pop_back();
        }
        l.emplace_front(tag, value);
        return out;
    }

    std::optional<int>
    erase(std::uint64_t tag)
    {
        auto &l = set(tag);
        auto it = find(l, tag);
        if (it == l.end())
            return std::nullopt;
        int v = it->second;
        l.erase(it);
        return v;
    }

    void
    clear()
    {
        for (auto &l : sets_)
            l.clear();
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &l : sets_)
            n += l.size();
        return n;
    }

    std::vector<Entry>
    sorted() const
    {
        std::vector<Entry> out;
        for (const auto &l : sets_)
            out.insert(out.end(), l.begin(), l.end());
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    std::list<Entry> &
    set(std::uint64_t tag)
    {
        return sets_[tag & (sets_.size() - 1)];
    }

    static std::list<Entry>::iterator
    find(std::list<Entry> &l, std::uint64_t tag)
    {
        return std::find_if(l.begin(), l.end(),
                            [tag](const Entry &e) { return e.first == tag; });
    }

    std::size_t ways_;
    std::vector<std::list<Entry>> sets_;
};

/**
 * Drive a cache and the reference with one seeded mix of every entry
 * point over a pool of 3 x ways random tags per set (so same-set tags
 * share any short partial-tag byte at 16 and 64 ways), comparing every
 * result and the full contents as it goes.
 */
void
checkAgainstReference(std::size_t sets, std::size_t ways, int ops,
                      std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << sets << "x" << ways);
    SetAssocCache<int> c(sets, ways);
    ReferenceLru ref(sets, ways);
    hopp::Pcg32 rng(seed);
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < 3 * ways * sets; ++i) {
        std::uint64_t hi = (std::uint64_t{rng.next()} << 32) | rng.next();
        pool.push_back((hi & ~(sets - 1)) | (i % sets));
    }
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t tag = pool[rng.below(pool.size())];
        const int value = static_cast<int>(rng.next() & 0xFFFF);
        const std::uint32_t kind = rng.below(1000);
        if (kind < 250) {
            int *got = c.touch(tag);
            int *want = ref.touch(tag);
            ASSERT_EQ(got != nullptr, want != nullptr) << "touch " << op;
            if (got) {
                ASSERT_EQ(*got, *want) << "touch " << op;
            }
        } else if (kind < 400) {
            const auto &cc = c;
            const int *got = cc.peek(tag);
            int *want = ref.peek(tag);
            ASSERT_EQ(got != nullptr, want != nullptr) << "peek " << op;
            if (got) {
                ASSERT_EQ(*got, *want) << "peek " << op;
            }
        } else if (kind < 650) {
            auto got = c.insert(tag, value);
            auto want = ref.insert(tag, value);
            ASSERT_EQ(got.has_value(), want.has_value()) << "insert " << op;
            if (got) {
                ASSERT_EQ(got->tag, want->first) << "insert " << op;
                ASSERT_EQ(got->value, want->second) << "insert " << op;
            }
        } else if (kind < 950) {
            auto got = c.probeInsert(tag, value);
            int *hit = ref.touch(tag);
            ASSERT_EQ(got.hit, hit != nullptr) << "probeInsert " << op;
            if (hit) {
                ASSERT_FALSE(got.evicted) << "probeInsert " << op;
                ASSERT_EQ(*got.value, *hit) << "probeInsert " << op;
            } else {
                auto ev = ref.insert(tag, value);
                ASSERT_EQ(got.evicted, ev.has_value()) << "probeInsert " << op;
                ASSERT_EQ(*got.value, value) << "probeInsert " << op;
            }
        } else if (kind < 999) {
            auto got = c.erase(tag);
            auto want = ref.erase(tag);
            ASSERT_EQ(got, want) << "erase " << op;
        } else {
            c.clear();
            ref.clear();
        }
        ASSERT_EQ(c.size(), ref.size()) << "after op " << op;
        if (op % 512 == 0) {
            std::vector<ReferenceLru::Entry> held;
            c.forEach(
                [&](std::uint64_t t, int &v) { held.emplace_back(t, v); });
            std::sort(held.begin(), held.end());
            ASSERT_EQ(held, ref.sorted()) << "contents after op " << op;
        }
    }
}

} // namespace

TEST(SetAssoc, MatchesReferenceLruOnEveryEntryPoint)
{
    // Geometries around the 16-lane chunk: one way; partial chunks
    // (2, 7, and 8, the Markov table's associativity); exactly one
    // chunk, the LLC/HPD/RPT associativity; a second chunk holding one
    // real lane (17); a padded third chunk (40); and four full chunks,
    // the whole 64-bit valid word.
    checkAgainstReference(1, 1, 20000, 1);
    checkAgainstReference(4, 2, 20000, 2);
    checkAgainstReference(2, 7, 40000, 3);
    checkAgainstReference(4, 8, 100000, 6);
    checkAgainstReference(8, 16, 200000, 4);
    checkAgainstReference(2, 17, 100000, 7);
    checkAgainstReference(2, 40, 150000, 8);
    checkAgainstReference(2, 64, 200000, 5);
}

/**
 * @file
 * Unit tests for the workload pattern primitives: page coverage,
 * stride structure, determinism, and combinators.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "workloads/patterns.hh"

using namespace hopp;
using namespace hopp::workloads;

namespace
{

/** Drain a generator into page-number visits (dedup consecutive). */
std::vector<Vpn>
pageTrace(AccessGenerator &gen, std::size_t cap = 1u << 22)
{
    std::vector<Vpn> pages;
    Access a;
    while (gen.next(a) && cap--) {
        Vpn p = pageOf(a.va);
        if (pages.empty() || pages.back() != p)
            pages.push_back(p);
    }
    return pages;
}

std::uint64_t
drainCount(AccessGenerator &gen)
{
    Access a;
    std::uint64_t n = 0;
    while (gen.next(a))
        ++n;
    return n;
}

} // namespace

TEST(SequentialScanGen, CoversAllPagesInOrder)
{
    SequentialScan::Params p;
    p.base = pageBase(Vpn{100});
    p.pages = 8;
    p.linesPerPage = 4;
    SequentialScan gen(p);
    auto pages = pageTrace(gen);
    ASSERT_EQ(pages.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(pages[i], Vpn{100 + i});
}

TEST(SequentialScanGen, AccessCountMatchesGeometry)
{
    SequentialScan::Params p;
    p.pages = 10;
    p.linesPerPage = 64;
    p.passes = 3;
    SequentialScan gen(p);
    EXPECT_EQ(drainCount(gen), 10u * 64u * 3u);
}

TEST(SequentialScanGen, StrideSkipsPages)
{
    SequentialScan::Params p;
    p.pages = 4;
    p.pageStride = 16;
    p.linesPerPage = 1;
    SequentialScan gen(p);
    auto pages = pageTrace(gen);
    EXPECT_EQ(pages, (std::vector<Vpn>{Vpn{0}, Vpn{16}, Vpn{32}, Vpn{48}}));
}

TEST(LadderGenPattern, TreadsAndRises)
{
    LadderGen::Params p;
    p.treadPages = 2;
    p.risePages = 16;
    p.treads = 3;
    p.linesPerPage = 1;
    LadderGen gen(p);
    auto pages = pageTrace(gen);
    EXPECT_EQ(pages, (std::vector<Vpn>{Vpn{0}, Vpn{1}, Vpn{16}, Vpn{17}, Vpn{32},
                            Vpn{33}}));
}

TEST(RippleGenPattern, NetProgressCoversRegion)
{
    RippleGen::Params p;
    p.pages = 64;
    p.linesPerPage = 2;
    p.seed = 3;
    RippleGen gen(p);
    auto pages = pageTrace(gen);
    std::set<Vpn> distinct(pages.begin(), pages.end());
    // The advancing front guarantees full coverage.
    EXPECT_EQ(distinct.size(), 64u);
    EXPECT_LT(*distinct.begin(), Vpn{2});
}

TEST(RippleGenPattern, HopsAreBounded)
{
    RippleGen::Params p;
    p.pages = 256;
    p.jitter = 2;
    p.linesPerPage = 1;
    p.seed = 7;
    RippleGen gen(p);
    auto pages = pageTrace(gen);
    // Each visit is within jitter of a monotonically advancing front,
    // so consecutive visits can differ by at most 2*jitter + 1.
    for (std::size_t i = 1; i < pages.size(); ++i) {
        auto d = pages[i] > pages[i - 1] ? pages[i] - pages[i - 1]
                                         : pages[i - 1] - pages[i];
        EXPECT_LE(d, 2u * p.jitter + 1u) << "at " << i;
    }
}

TEST(GatherGenPattern, MixesSequentialAndGathers)
{
    GatherGen::Params p;
    p.seqPages = 16;
    p.seqLinesPerPage = 4;
    p.targetBase = pageBase(Vpn{1000});
    p.targetPages = 32;
    p.gatherPerLine = 1.0; // one gather per sequential line
    GatherGen gen(p);
    Access a;
    unsigned seq = 0, gather = 0;
    while (gen.next(a)) {
        if (pageOf(a.va) >= Vpn{1000})
            ++gather;
        else
            ++seq;
    }
    EXPECT_EQ(seq, 16u * 4u);
    EXPECT_EQ(gather, seq);
}

TEST(HotColdGenPattern, SkewFavoursHotPages)
{
    HotColdGen::Params p;
    p.pages = 100;
    p.accesses = 20000;
    p.zipfTheta = 1.0;
    p.linesPerVisit = 1;
    HotColdGen gen(p);
    std::vector<unsigned> counts(100, 0);
    Access a;
    while (gen.next(a))
        ++counts[pageOf(a.va).raw()];
    EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(ShortRunsGenPattern, RunsStayInRegionAndGcScans)
{
    ShortRunsGen::Params p;
    p.pages = 128;
    p.runs = 40;
    p.runPagesMin = 2;
    p.runPagesMax = 6;
    p.gcEvery = 10;
    p.gcFraction = 0.5;
    p.linesPerPage = 1;
    p.seed = 5;
    ShortRunsGen gen(p);
    auto pages = pageTrace(gen);
    for (Vpn v : pages)
        EXPECT_LT(v, Vpn{128});
    // GC bursts produce runs of ~64 consecutive pages: find one.
    unsigned longest = 1, cur = 1;
    for (std::size_t i = 1; i < pages.size(); ++i) {
        cur = pages[i] == pages[i - 1] + 1 ? cur + 1 : 1;
        longest = std::max(longest, cur);
    }
    EXPECT_GE(longest, 60u);
}

TEST(QuicksortGenPattern, TouchesWholeArrayAndTerminates)
{
    QuicksortGen::Params p;
    p.pages = 64;
    p.cutoffPages = 4;
    p.linesPerPage = 2;
    QuicksortGen gen(p);
    auto pages = pageTrace(gen, 1u << 20);
    std::set<Vpn> distinct(pages.begin(), pages.end());
    EXPECT_EQ(distinct.size(), 64u);
    // Partitioning alternates ends: early trace hops between the two
    // halves of the range.
    EXPECT_EQ(pages[0], Vpn{0});
    EXPECT_EQ(pages[1], Vpn{63});
}

TEST(PermutationGenPattern, VisitsEveryPageOncePerPass)
{
    PermutationGen::Params p;
    p.pages = 64;
    p.linesPerPage = 2;
    p.passes = 1;
    p.seed = 3;
    PermutationGen gen(p);
    auto pages = pageTrace(gen);
    std::set<Vpn> distinct(pages.begin(), pages.end());
    EXPECT_EQ(pages.size(), 64u);
    EXPECT_EQ(distinct.size(), 64u);
}

TEST(PermutationGenPattern, OrderIsIrregularButRepeatsAcrossPasses)
{
    PermutationGen::Params p;
    p.pages = 128;
    p.linesPerPage = 1;
    p.passes = 2;
    p.seed = 9;
    PermutationGen gen(p);
    auto pages = pageTrace(gen);
    ASSERT_EQ(pages.size(), 256u);
    // Pass 2 replays pass 1 exactly (fixed pointer graph).
    for (std::size_t i = 0; i < 128; ++i)
        EXPECT_EQ(pages[i], pages[128 + i]);
    // The order is not sorted (it is a nontrivial permutation).
    unsigned unit_strides = 0;
    for (std::size_t i = 1; i < 128; ++i)
        unit_strides += pages[i] == pages[i - 1] + 1;
    EXPECT_LT(unit_strides, 16u);
}

TEST(PermutationGenPattern, SeedChangesTheGraph)
{
    PermutationGen::Params p;
    p.pages = 64;
    p.linesPerPage = 1;
    p.seed = 1;
    PermutationGen a(p);
    p.seed = 2;
    PermutationGen b(p);
    auto pa = pageTrace(a);
    auto pb = pageTrace(b);
    EXPECT_NE(pa, pb);
}

TEST(GatherGenPattern, FixedSequenceRepeatsAcrossPasses)
{
    GatherGen::Params p;
    p.seqPages = 8;
    p.seqLinesPerPage = 4;
    p.targetBase = pageBase(Vpn{1000});
    p.targetPages = 64;
    p.gatherPerLine = 1.0;
    p.passes = 2;
    GatherGen gen(p);
    std::vector<Vpn> gathers;
    Access a;
    while (gen.next(a)) {
        if (pageOf(a.va) >= Vpn{1000})
            gathers.push_back(pageOf(a.va));
    }
    ASSERT_EQ(gathers.size() % 2, 0u);
    std::size_t half = gathers.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        EXPECT_EQ(gathers[i], gathers[half + i]) << i;
}

TEST(PhasedGenCombinator, RunsPhasesInSequence)
{
    std::vector<GeneratorPtr> phases;
    SequentialScan::Params a;
    a.pages = 2;
    a.linesPerPage = 1;
    phases.push_back(std::make_unique<SequentialScan>(a));
    SequentialScan::Params b;
    b.base = pageBase(Vpn{100});
    b.pages = 2;
    b.linesPerPage = 1;
    phases.push_back(std::make_unique<SequentialScan>(b));
    PhasedGen gen(std::move(phases));
    auto pages = pageTrace(gen);
    EXPECT_EQ(pages, (std::vector<Vpn>{Vpn{0}, Vpn{1}, Vpn{100}, Vpn{101}}));
}

TEST(InterleaveGenCombinator, AlternatesBursts)
{
    std::vector<GeneratorPtr> subs;
    SequentialScan::Params a;
    a.pages = 4;
    a.linesPerPage = 1;
    subs.push_back(std::make_unique<SequentialScan>(a));
    SequentialScan::Params b;
    b.base = pageBase(Vpn{100});
    b.pages = 4;
    b.linesPerPage = 1;
    subs.push_back(std::make_unique<SequentialScan>(b));
    InterleaveGen gen(std::move(subs), /*burst=*/2);
    auto pages = pageTrace(gen);
    EXPECT_EQ(pages, (std::vector<Vpn>{Vpn{0}, Vpn{1}, Vpn{100}, Vpn{101}, Vpn{2},
                            Vpn{3}, Vpn{102}, Vpn{103}}));
}

TEST(InterleaveGenCombinator, DrainsUnevenSubstreams)
{
    std::vector<GeneratorPtr> subs;
    SequentialScan::Params a;
    a.pages = 1;
    a.linesPerPage = 1;
    subs.push_back(std::make_unique<SequentialScan>(a));
    SequentialScan::Params b;
    b.base = pageBase(Vpn{100});
    b.pages = 5;
    b.linesPerPage = 1;
    subs.push_back(std::make_unique<SequentialScan>(b));
    InterleaveGen gen(std::move(subs), 1);
    EXPECT_EQ(drainCount(gen), 6u);
}

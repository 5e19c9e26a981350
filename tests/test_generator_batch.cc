/**
 * @file
 * Randomized oracle for AccessGenerator::nextBatch: for every concrete
 * generator and combinator, draining through nextBatch with arbitrary
 * (randomized) block sizes must reproduce the exact access sequence
 * that repeated next() calls produce — including partial final blocks,
 * phases that end mid-block, and InterleaveGen sub-stream exhaustion
 * mid-burst. The Machine pump drains every thread through nextBatch,
 * so a run's access stream stands on this equivalence.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "workloads/generator.hh"
#include "workloads/patterns.hh"

using namespace hopp;
using namespace hopp::workloads;

namespace
{

using Factory = std::function<GeneratorPtr()>;

/**
 * Build the generator twice from the same factory; drain one via
 * next() and the other via nextBatch() with block sizes drawn from
 * @p seed, and require identical sequences. Also checks that
 * end-of-stream is sticky for both drains.
 */
void
expectBatchMatchesNext(const Factory &make, std::uint64_t seed,
                       std::size_t max_block = 64)
{
    GeneratorPtr ref = make();
    GeneratorPtr bat = make();

    std::vector<Access> expect;
    {
        Access a;
        while (ref->next(a))
            expect.push_back(a);
        EXPECT_FALSE(ref->next(a)) << "next() end-of-stream not sticky";
    }

    Pcg32 rng(seed);
    std::vector<Access> block(max_block);
    std::vector<Access> got;
    got.reserve(expect.size());
    for (;;) {
        std::size_t n =
            1 + rng.below(static_cast<std::uint32_t>(max_block));
        std::size_t filled = bat->nextBatch(block.data(), n);
        ASSERT_LE(filled, n);
        got.insert(got.end(), block.begin(),
                   block.begin() + static_cast<std::ptrdiff_t>(filled));
        ASSERT_LE(got.size(), expect.size())
            << "nextBatch produced surplus accesses";
        if (filled < n)
            break;
    }
    EXPECT_EQ(bat->nextBatch(block.data(), block.size()), 0u)
        << "nextBatch end-of-stream not sticky";

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].va, expect[i].va) << "diverged at access " << i;
        ASSERT_EQ(got[i].write, expect[i].write)
            << "diverged at access " << i;
    }
}

/** Exercise several block-size distributions per generator. */
void
checkAllSeeds(const Factory &make)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        expectBatchMatchesNext(make, seed, 64);
        expectBatchMatchesNext(make, seed, 5); // tiny, many partials
    }
    expectBatchMatchesNext(make, 3, 4096); // one oversized block
}

/** A generator that does NOT override nextBatch: the base default. */
class CountingGen : public AccessGenerator
{
  public:
    explicit CountingGen(std::uint64_t n) : n_(n) {}

    bool
    next(Access &out) override
    {
        if (i_ >= n_)
            return false;
        out.va = VirtAddr{i_ * lineBytes};
        out.write = (i_ & 1) != 0;
        ++i_;
        return true;
    }

  private:
    std::uint64_t n_;
    std::uint64_t i_ = 0;
};

} // namespace

TEST(GeneratorBatch, DefaultImplementationLoopsNext)
{
    checkAllSeeds([] { return std::make_unique<CountingGen>(1000); });
    // Degenerate streams: empty, single access.
    checkAllSeeds([] { return std::make_unique<CountingGen>(0); });
    checkAllSeeds([] { return std::make_unique<CountingGen>(1); });
}

TEST(GeneratorBatch, SequentialScan)
{
    checkAllSeeds([] {
        SequentialScan::Params p;
        p.base = pageBase(Vpn{64});
        p.pages = 37;
        p.pageStride = 3;
        p.linesPerPage = 5;
        p.passes = 3;
        p.write = true;
        return std::make_unique<SequentialScan>(p);
    });
    checkAllSeeds([] {
        SequentialScan::Params p;
        p.base = pageBase(Vpn{8});
        p.pages = 16;
        p.linesPerPage = 7;
        p.passes = 2;
        return std::make_unique<SequentialScan>(p);
    });
}

TEST(GeneratorBatch, Ladder)
{
    checkAllSeeds([] {
        LadderGen::Params p;
        p.base = pageBase(Vpn{512});
        p.treadPages = 5;
        p.risePages = 11;
        p.treads = 7;
        p.linesPerPage = 3;
        p.passes = 2;
        p.crossStream = true;
        return std::make_unique<LadderGen>(p);
    });
}

TEST(GeneratorBatch, Ripple)
{
    checkAllSeeds([] {
        RippleGen::Params p;
        p.base = pageBase(Vpn{1024});
        p.pages = 61;
        p.linesPerPage = 9;
        p.passes = 2;
        p.jitter = 3;
        p.hopChance = 0.5;
        p.seed = 99;
        return std::make_unique<RippleGen>(p);
    });
}

TEST(GeneratorBatch, Gather)
{
    checkAllSeeds([] {
        GatherGen::Params p;
        p.seqBase = pageBase(Vpn{2048});
        p.seqPages = 23;
        p.seqLinesPerPage = 11;
        p.targetBase = pageBase(Vpn{4096});
        p.targetPages = 40;
        p.gatherPerLine = 0.7;
        p.passes = 2;
        p.seed = 5;
        return std::make_unique<GatherGen>(p);
    });
}

TEST(GeneratorBatch, HotCold)
{
    checkAllSeeds([] {
        HotColdGen::Params p;
        p.base = pageBase(Vpn{300});
        p.pages = 50;
        p.accesses = 777;
        p.linesPerVisit = 3;
        p.seed = 17;
        return std::make_unique<HotColdGen>(p);
    });
}

TEST(GeneratorBatch, ShortRuns)
{
    checkAllSeeds([] {
        ShortRunsGen::Params p;
        p.base = pageBase(Vpn{600});
        p.pages = 120;
        p.runs = 19;
        p.runPagesMin = 2;
        p.runPagesMax = 9;
        p.linesPerPage = 6;
        p.gcEvery = 5;
        p.alignPages = 4;
        p.seed = 23;
        return std::make_unique<ShortRunsGen>(p);
    });
}

TEST(GeneratorBatch, Permutation)
{
    checkAllSeeds([] {
        PermutationGen::Params p;
        p.base = pageBase(Vpn{900});
        p.pages = 43;
        p.linesPerPage = 5;
        p.passes = 3;
        p.seed = 11;
        return std::make_unique<PermutationGen>(p);
    });
}

TEST(GeneratorBatch, Quicksort)
{
    checkAllSeeds([] {
        QuicksortGen::Params p;
        p.base = pageBase(Vpn{1500});
        p.pages = 96;
        p.cutoffPages = 6;
        p.linesPerPage = 4;
        return std::make_unique<QuicksortGen>(p);
    });
}

TEST(GeneratorBatch, PhasedHandsOverBetweenPhases)
{
    checkAllSeeds([] {
        std::vector<GeneratorPtr> phases;
        SequentialScan::Params a;
        a.base = pageBase(Vpn{0});
        a.pages = 13;
        a.linesPerPage = 5;
        phases.push_back(std::make_unique<SequentialScan>(a));
        // A zero-length phase in the middle (no passes) must be skipped.
        SequentialScan::Params b;
        b.base = pageBase(Vpn{50});
        b.pages = 4;
        b.passes = 0;
        phases.push_back(std::make_unique<SequentialScan>(b));
        HotColdGen::Params c;
        c.base = pageBase(Vpn{100});
        c.pages = 20;
        c.accesses = 131;
        c.seed = 3;
        phases.push_back(std::make_unique<HotColdGen>(c));
        return std::make_unique<PhasedGen>(std::move(phases));
    });
}

TEST(GeneratorBatch, InterleaveExhaustsSubStreamsMidBurst)
{
    // Sub-stream lengths chosen so none is a multiple of the burst:
    // every sub-stream dies mid-burst, the round-robin must skip the
    // dead one and keep draining the remainder.
    for (unsigned burst : {1u, 3u, 7u}) {
        checkAllSeeds([burst] {
            std::vector<GeneratorPtr> subs;
            for (std::uint64_t len : {41u, 5u, 152u}) {
                SequentialScan::Params p;
                p.base = pageBase(Vpn{1000 + 100 * len});
                p.pages = len;
                p.linesPerPage = 1;
                subs.push_back(std::make_unique<SequentialScan>(p));
            }
            return std::make_unique<InterleaveGen>(std::move(subs),
                                                   burst);
        });
    }
}

TEST(GeneratorBatch, NestedCombinators)
{
    // The apps.cc shape: phases of interleaved sub-streams.
    checkAllSeeds([] {
        auto mkphase = [](std::uint64_t base, unsigned burst) {
            std::vector<GeneratorPtr> subs;
            SequentialScan::Params p;
            p.base = pageBase(Vpn{base});
            p.pages = 31;
            p.linesPerPage = 6;
            p.passes = 2;
            subs.push_back(std::make_unique<SequentialScan>(p));
            PermutationGen::Params q;
            q.base = pageBase(Vpn{base + 64});
            q.pages = 17;
            q.linesPerPage = 4;
            q.passes = 3;
            q.seed = base;
            subs.push_back(std::make_unique<PermutationGen>(q));
            return std::make_unique<InterleaveGen>(std::move(subs),
                                                   burst);
        };
        std::vector<GeneratorPtr> phases;
        phases.push_back(mkphase(0, 5));
        phases.push_back(mkphase(4096, 2));
        return std::make_unique<PhasedGen>(std::move(phases));
    });
}

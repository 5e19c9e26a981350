/**
 * @file
 * Access-pattern primitives matching the paper's stream taxonomy
 * (§II-B): simple streams (fixed page stride), ladder streams
 * (repetitive tread + rise, e.g. blocked matrix kernels), ripple
 * streams (stride-1 distorted by out-of-order and cross-stream hops),
 * plus irregular building blocks (zipf gathers, hot/cold, short runs)
 * used by the application models.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "workloads/generator.hh"

namespace hopp::workloads
{

/**
 * Simple stream: scan a region of pages with a fixed page stride,
 * touching a configurable number of lines per page, repeated for a
 * number of passes.
 */
class SequentialScan : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t pages = 1;      //!< region length in pages
        std::int64_t pageStride = 1;  //!< stride between visited pages
        unsigned linesPerPage = 64;   //!< lines touched per page visit
        unsigned passes = 1;          //!< full scans of the region
        bool write = false;
        bool backward = false;        //!< scan from the top down
    };

    explicit SequentialScan(const Params &p);

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    Params p_;
    std::uint64_t visits_;   // page visits per pass
    std::uint64_t visit_ = 0;
    unsigned line_ = 0;
    unsigned pass_ = 0;
};

/**
 * Ladder stream (paper Fig. 2): repeated treads of consecutive pages
 * followed by a rise to the next repetition, as blocked matrix kernels
 * (HPL) produce.
 */
class LadderGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t treadPages = 4;  //!< pages touched per tread
        std::uint64_t risePages = 32;  //!< page distance between treads
        std::uint64_t treads = 16;     //!< treads per pass
        unsigned linesPerPage = 64;
        unsigned passes = 1;

        /**
         * Visit tread pages in cross-stream order (even offsets, then
         * odd), as Fig. 2's "concentrated accesses across streams": the
         * within-tread strides then vary, so no dominant stride exists
         * and only LSP identifies the pattern.
         */
        bool crossStream = false;
    };

    explicit LadderGen(const Params &p) : p_(p) {}

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    Params p_;
    std::uint64_t tread_ = 0;
    // Footprint-relative page cursor, not a VPN. hopp-analyze: allow(raw-int-addr)
    std::uint64_t page_ = 0;
    unsigned line_ = 0;
    unsigned pass_ = 0;
};

/**
 * Ripple stream (paper Fig. 3): net stride-1 progress distorted by
 * bounded out-of-order hops and cross-stream excursions, as stencil /
 * multigrid kernels (NPB-MG) produce.
 */
class RippleGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t pages = 64;
        unsigned linesPerPage = 16;
        unsigned passes = 1;
        /** Max |hop| in pages around the advancing front. */
        unsigned jitter = 2;
        /** Probability of an out-of-order hop at each page step. */
        double hopChance = 0.4;
        std::uint64_t seed = 1;
    };

    explicit RippleGen(const Params &p) : p_(p), rng_(p.seed) {}

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    Params p_;
    Pcg32 rng_;
    std::uint64_t front_ = 0;
    unsigned line_ = 0;
    unsigned pass_ = 0;
    std::int64_t pendingHop_ = 0;
};

/**
 * Sequential scan of an index region with probabilistic zipf-skewed
 * gathers into a target region — graph edge traversal (GraphX) and
 * sparse mat-vec (NPB-CG) shape.
 */
class GatherGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr seqBase;
        std::uint64_t seqPages = 64;
        unsigned seqLinesPerPage = 64;
        VirtAddr targetBase;
        std::uint64_t targetPages = 64;
        /** Gather accesses per sequential line access. */
        double gatherPerLine = 0.5;
        double zipfTheta = 0.8;
        unsigned passes = 1;

        /**
         * Replay the same gather sequence every pass, as iterating
         * over a fixed edge list / sparse matrix does. Correlation
         * (Markov) prefetching can learn such repeats from the full
         * trace; fault-only history cannot.
         */
        bool fixedSequence = true;
        std::uint64_t seed = 1;
    };

    explicit GatherGen(const Params &p);

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    Params p_;
    Pcg32 rng_;
    ZipfSampler zipf_;
    // Footprint-relative page cursor, not a VPN. hopp-analyze: allow(raw-int-addr)
    std::uint64_t page_ = 0;
    unsigned line_ = 0;
    unsigned pass_ = 0;
    double gatherDebt_ = 0.0;
    bool pendingReset_ = false; //!< fixed-sequence rng reset deferred
                                //!< until the old pass's gathers drain
};

/**
 * Zipf-popularity random page accesses: hot/cold irregular traffic
 * with no stream structure (interference, §II-B limitation 3).
 */
class HotColdGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t pages = 64;
        std::uint64_t accesses = 1024;
        double zipfTheta = 0.9;
        unsigned linesPerVisit = 4;
        std::uint64_t seed = 1;
    };

    explicit HotColdGen(const Params &p);

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    Params p_;
    Pcg32 rng_;
    ZipfSampler zipf_;
    std::uint64_t count_ = 0;
    // Footprint-relative page cursor, not a VPN. hopp-analyze: allow(raw-int-addr)
    std::uint64_t page_ = 0;
    unsigned line_ = 0;
};

/**
 * Short sequential runs at random offsets with periodic full-region
 * scan bursts — the JVM/Spark allocation-area + GC shape (§VI-B: many
 * short streams; repetitive patterns stop before identification).
 */
class ShortRunsGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t pages = 256;
        std::uint64_t runs = 64;
        std::uint64_t runPagesMin = 4;
        std::uint64_t runPagesMax = 24;
        unsigned linesPerPage = 32;
        /** Every gcEvery runs, scan a fraction of the region (GC). */
        std::uint64_t gcEvery = 16;
        double gcFraction = 0.5;

        /**
         * Run starts are aligned to this many pages, as JVM
         * allocation buffers (TLABs) are slab-aligned; with 64-page
         * slabs, consecutive runs land outside HoPP's Δ_stream
         * clustering window, so short streams end cleanly instead of
         * polluting a merged stream.
         */
        std::uint64_t alignPages = 64;
        std::uint64_t seed = 1;
    };

    explicit ShortRunsGen(const Params &p) : p_(p), rng_(p.seed) {}

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    void startRun();

    Params p_;
    Pcg32 rng_;
    std::uint64_t run_ = 0;
    std::uint64_t runStart_ = 0;
    std::uint64_t runLen_ = 0;
    // Footprint-relative page cursor, not a VPN. hopp-analyze: allow(raw-int-addr)
    std::uint64_t page_ = 0;
    unsigned line_ = 0;
    bool inGc_ = false;
    bool started_ = false;
};

/**
 * Pointer chasing over a fixed pseudo-random permutation of pages
 * (linked records, B-tree leaf chains, hash-bucket walks): every pass
 * visits the pages in the same irregular order. No stride detector can
 * cover it; a correlation (Markov) prefetcher trained on the full
 * trace can.
 */
class PermutationGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t pages = 256;
        unsigned linesPerPage = 48;
        unsigned passes = 1;
        std::uint64_t seed = 1;
    };

    explicit PermutationGen(const Params &p);

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    Params p_;
    std::vector<std::uint32_t> order_; // fixed visiting permutation
    std::uint64_t idx_ = 0;
    unsigned line_ = 0;
    unsigned pass_ = 0;
};

/**
 * Quicksort partition traffic: two pointers scanning toward each other
 * (interleaved +1 and -1 page streams), recursing over sub-ranges.
 */
class QuicksortGen : public AccessGenerator
{
  public:
    struct Params
    {
        VirtAddr base;
        std::uint64_t pages = 256;
        std::uint64_t cutoffPages = 8; //!< switch to sequential below
        unsigned linesPerPage = 64;
    };

    explicit QuicksortGen(const Params &p) : p_(p), stack_{{0, p.pages}}
    {
    }

    bool next(Access &out) override;
    std::size_t nextBatch(Access *out, std::size_t n) override;

  private:
    struct Range
    {
        std::uint64_t lo;
        std::uint64_t hi; // exclusive
    };

    Params p_;
    std::vector<Range> stack_;
    // Partition state
    bool partitioning_ = false;
    std::uint64_t left_ = 0, right_ = 0;
    bool fromLeft_ = true;
    unsigned line_ = 0;
    // Sequential (cutoff) state
    bool scanning_ = false;
    // Footprint-relative scan cursor, not a VPN. hopp-analyze: allow(raw-int-addr)
    std::uint64_t scanPage_ = 0, scanEnd_ = 0;
    Range cur_{0, 0};
};

} // namespace hopp::workloads


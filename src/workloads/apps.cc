#include "workloads/apps.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "workloads/patterns.hh"

namespace hopp::workloads
{

namespace
{

/** Heap base of thread t: regions far apart so streams never collide. */
constexpr VirtAddr
threadBase(unsigned t)
{
    return VirtAddr{0x10'0000'0000ull} + t * 0x1'0000'0000ull;
}

/** Scaled page count (minimum 16 to keep generators sane). */
std::uint64_t
sp(const WorkloadScale &s, std::uint64_t pages)
{
    auto v = static_cast<std::uint64_t>(
        static_cast<double>(pages) * s.footprint);
    return std::max<std::uint64_t>(16, v);
}

/** Scaled iteration count (minimum 1). */
unsigned
it(const WorkloadScale &s, unsigned iters)
{
    auto v = static_cast<unsigned>(
        std::lround(static_cast<double>(iters) * s.iterations));
    return std::max(1u, v);
}

// -------------------------------------------------------------------
// Per-application factories. Each returns the generator of thread t.
// -------------------------------------------------------------------

/** OMP K-means: contiguous array, repeated full scans (pure simple
 *  stream), one partition per thread + tiny hot centroid block. */
GeneratorPtr
kmeansOmpThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    std::uint64_t part = sp(s, 1024); // pages per thread
    SequentialScan::Params scan;
    scan.base = threadBase(t);
    scan.pages = part;
    scan.passes = it(s, 8);
    scan.linesPerPage = 64;
    HotColdGen::Params cent;
    cent.base = threadBase(16); // shared centroid block
    cent.pages = 16;
    cent.accesses = part * scan.passes / 8;
    cent.zipfTheta = 0.6;
    cent.linesPerVisit = 2;
    cent.seed = seed + t;
    std::vector<GeneratorPtr> subs;
    subs.push_back(std::make_unique<SequentialScan>(scan));
    subs.push_back(std::make_unique<HotColdGen>(cent));
    return std::make_unique<InterleaveGen>(std::move(subs), 256);
}

/**
 * QuickSort: two-pointer partitions recursing over the array. The
 * partition walk is fixed by the array size, so the access stream does
 * not depend on the seed.
 */
GeneratorPtr
quicksortThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    (void)seed;
    QuicksortGen::Params p;
    p.base = threadBase(t);
    p.pages = sp(s, 2048);
    p.cutoffPages = 8;
    return std::make_unique<QuicksortGen>(p);
}

/** HPL: blocked factorization; ladder streams (tread + rise). */
GeneratorPtr
hplThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    (void)seed;
    LadderGen::Params p;
    p.base = threadBase(t);
    // Cross-stream treads (Fig. 2): within-tread strides vary, so no
    // dominant stride exists in a 16-deep history and only LSP
    // identifies the pattern (Fig. 18's HPL ablation).
    p.treadPages = 3;
    p.risePages = 16;
    p.treads = sp(s, 1024) / p.risePages;
    p.linesPerPage = 64;
    p.passes = it(s, 10);
    p.crossStream = true;
    return std::make_unique<LadderGen>(p);
}

/** NPB-CG: sequential sparse-matrix scan + zipf gathers into x. */
GeneratorPtr
npbCgThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    GatherGen::Params p;
    p.seqBase = threadBase(t);
    p.seqPages = sp(s, 768);
    p.seqLinesPerPage = 64;
    p.targetBase = threadBase(16) + 0x1000'0000ull; // shared x vector
    p.targetPages = sp(s, 256);
    p.gatherPerLine = 0.3;
    p.zipfTheta = 0.7;
    p.passes = it(s, 6);
    p.seed = seed + t;
    return std::make_unique<GatherGen>(p);
}

/** NPB-FT: transpose phases; interleaved large-stride simple streams. */
GeneratorPtr
npbFtThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    (void)seed;
    std::vector<GeneratorPtr> subs;
    std::uint64_t stride = 16;
    std::uint64_t visits = sp(s, 1024) / stride;
    for (unsigned k = 0; k < 4; ++k) {
        SequentialScan::Params p;
        // Each transpose stream reads a distant row band: streams live
        // in separate address subspaces, so they cluster into separate
        // STT entries (Δ_stream = 64) rather than one mixed pattern.
        p.base = threadBase(t) + k * 0x1000'0000ull;
        p.pages = visits;
        p.pageStride = static_cast<std::int64_t>(stride);
        p.linesPerPage = 64;
        p.passes = it(s, 10);
        subs.push_back(std::make_unique<SequentialScan>(p));
    }
    return std::make_unique<InterleaveGen>(std::move(subs), 64);
}

/** NPB-LU: wavefront sweeps; short-tread ladders + forward scans. */
GeneratorPtr
npbLuThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    (void)seed;
    std::vector<GeneratorPtr> subs;
    LadderGen::Params lad;
    lad.base = threadBase(t);
    lad.treadPages = 2;
    lad.risePages = 16;
    lad.treads = sp(s, 512) / lad.risePages;
    lad.linesPerPage = 32;
    lad.passes = it(s, 8);
    subs.push_back(std::make_unique<LadderGen>(lad));
    SequentialScan::Params seq;
    seq.base = threadBase(t) + 0x4000'0000ull;
    seq.pages = sp(s, 256);
    seq.passes = it(s, 8);
    seq.linesPerPage = 64;
    subs.push_back(std::make_unique<SequentialScan>(seq));
    return std::make_unique<InterleaveGen>(std::move(subs), 128);
}

/** NPB-MG: multigrid V-cycles; ripple streams over nested grids. */
GeneratorPtr
npbMgThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    std::vector<GeneratorPtr> cycles;
    unsigned vcycles = it(s, 4);
    for (unsigned c = 0; c < vcycles; ++c) {
        std::uint64_t levels[] = {sp(s, 1024), sp(s, 256), sp(s, 64),
                                  sp(s, 256), sp(s, 1024)};
        for (std::uint64_t pages : levels) {
            RippleGen::Params p;
            p.base = threadBase(t);
            p.pages = pages;
            p.linesPerPage = 16;
            p.passes = 1;
            p.jitter = 2;
            p.hopChance = 0.4;
            p.seed = seed + t * 97 + c;
            cycles.push_back(std::make_unique<RippleGen>(p));
        }
    }
    return std::make_unique<PhasedGen>(std::move(cycles));
}

/** NPB-IS: sequential key scan + random bucket scatter. */
GeneratorPtr
npbIsThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    std::vector<GeneratorPtr> subs;
    SequentialScan::Params keys;
    keys.base = threadBase(t);
    keys.pages = sp(s, 1024);
    keys.passes = it(s, 6);
    keys.linesPerPage = 64;
    subs.push_back(std::make_unique<SequentialScan>(keys));
    HotColdGen::Params buckets;
    buckets.base = threadBase(t) + 0x4000'0000ull;
    buckets.pages = sp(s, 512);
    buckets.accesses = keys.pages * keys.passes / 4;
    buckets.zipfTheta = 0.4;
    buckets.linesPerVisit = 1;
    buckets.seed = seed + t;
    subs.push_back(std::make_unique<HotColdGen>(buckets));
    return std::make_unique<InterleaveGen>(std::move(subs), 32);
}

/** GraphX jobs: 3 growing phases (11/22/33 GB thirds, §VI), each a
 *  vertex-scan + zipf edge-gather mix with JVM short-run noise. */
GeneratorPtr
graphxThread(const WorkloadScale &s, unsigned t, std::uint64_t seed,
             double theta, double gather_per_line, unsigned passes)
{
    std::vector<GeneratorPtr> phases;
    std::uint64_t full = sp(s, 1536); // per-thread final footprint
    for (unsigned phase = 1; phase <= 3; ++phase) {
        std::uint64_t pages = full * phase / 3;
        std::vector<GeneratorPtr> subs;
        GatherGen::Params g;
        g.seqBase = threadBase(t);
        g.seqPages = pages * 2 / 3;
        g.seqLinesPerPage = 48;
        g.targetBase = threadBase(t) + 0x4000'0000ull;
        g.targetPages = std::max<std::uint64_t>(16, pages / 3);
        g.gatherPerLine = gather_per_line;
        g.zipfTheta = theta;
        g.passes = it(s, passes);
        g.seed = seed + t * 131 + phase;
        subs.push_back(std::make_unique<GatherGen>(g));
        ShortRunsGen::Params jvm;
        jvm.base = threadBase(t) + 0x8000'0000ull;
        jvm.pages = std::max<std::uint64_t>(64, pages / 4);
        jvm.runs = 48 * phase;
        jvm.runPagesMin = 4;
        jvm.runPagesMax = 16;
        jvm.linesPerPage = 24;
        jvm.gcEvery = 24;
        jvm.gcFraction = 0.5;
        jvm.seed = seed + t * 313 + phase;
        subs.push_back(std::make_unique<ShortRunsGen>(jvm));
        phases.push_back(
            std::make_unique<InterleaveGen>(std::move(subs), 192));
    }
    return std::make_unique<PhasedGen>(std::move(phases));
}

/** Spark K-means: staged, each stage writes a fresh memory area (§VI-B)
 *  => many short streams + GC scans. */
GeneratorPtr
sparkKmeansThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    std::vector<GeneratorPtr> stages;
    unsigned n_stages = it(s, 4);
    std::uint64_t area = sp(s, 512); // fresh area per stage
    for (unsigned st = 0; st < n_stages; ++st) {
        VirtAddr base = threadBase(t) + st * (area * pageBytes);
        std::vector<GeneratorPtr> subs;
        SequentialScan::Params scan;
        scan.base = base;
        scan.pages = area;
        scan.passes = 2;
        scan.linesPerPage = 48;
        subs.push_back(std::make_unique<SequentialScan>(scan));
        ShortRunsGen::Params runs;
        runs.base = base;
        runs.pages = area;
        runs.runs = 96;
        runs.runPagesMin = 2;
        runs.runPagesMax = 12;
        runs.linesPerPage = 24;
        runs.gcEvery = 32;
        runs.gcFraction = 0.6;
        runs.seed = seed + t * 71 + st;
        subs.push_back(std::make_unique<ShortRunsGen>(runs));
        stages.push_back(
            std::make_unique<InterleaveGen>(std::move(subs), 128));
    }
    return std::make_unique<PhasedGen>(std::move(stages));
}

/** Spark Bayes: large gather-heavy JVM job. */
GeneratorPtr
sparkBayesThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    std::vector<GeneratorPtr> subs;
    GatherGen::Params g;
    g.seqBase = threadBase(t);
    g.seqPages = sp(s, 1024);
    g.seqLinesPerPage = 40;
    g.targetBase = threadBase(t) + 0x4000'0000ull;
    g.targetPages = sp(s, 384);
    g.gatherPerLine = 0.45;
    g.zipfTheta = 0.85;
    g.passes = it(s, 5);
    g.seed = seed + t * 11;
    subs.push_back(std::make_unique<GatherGen>(g));
    ShortRunsGen::Params jvm;
    jvm.base = threadBase(t) + 0x8000'0000ull;
    jvm.pages = sp(s, 256);
    jvm.runs = 256;
    jvm.runPagesMin = 3;
    jvm.runPagesMax = 14;
    jvm.linesPerPage = 24;
    jvm.gcEvery = 40;
    jvm.gcFraction = 0.5;
    jvm.seed = seed + t * 17;
    subs.push_back(std::make_unique<ShortRunsGen>(jvm));
    return std::make_unique<InterleaveGen>(std::move(subs), 160);
}

/** Pointer chasing: fixed pseudo-random page permutation revisited
 *  every pass (linked records / index walks). Invisible to stride
 *  detectors; covered by the correlation tier. */
GeneratorPtr
linkedlistThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    PermutationGen::Params p;
    p.base = threadBase(t);
    p.pages = sp(s, 1536);
    p.linesPerPage = 48;
    p.passes = it(s, 6);
    p.seed = seed + t;
    return std::make_unique<PermutationGen>(p);
}

/** §VI-E microbenchmark: per-thread 2 GB-scaled array, read-sum every
 *  8-byte block of every page; pure simple stream, no interference. */
GeneratorPtr
microbenchThread(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    (void)seed;
    SequentialScan::Params p;
    p.base = threadBase(t);
    p.pages = sp(s, 1024);
    p.passes = it(s, 6);
    p.linesPerPage = 64;
    return std::make_unique<SequentialScan>(p);
}

struct AppDef
{
    const char *name;
    unsigned threads;
    std::uint64_t basePages; // footprint before scaling
    bool jvm;
    GeneratorPtr (*factory)(const WorkloadScale &, unsigned,
                            std::uint64_t);
};

GeneratorPtr
graphxPr(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    return graphxThread(s, t, seed, 0.9, 0.35, 4);
}

GeneratorPtr
graphxCc(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    return graphxThread(s, t, seed, 0.6, 0.25, 4);
}

GeneratorPtr
graphxBfs(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    return graphxThread(s, t, seed, 0.8, 0.3, 3);
}

GeneratorPtr
graphxLp(const WorkloadScale &s, unsigned t, std::uint64_t seed)
{
    return graphxThread(s, t, seed, 0.7, 0.3, 4);
}

const AppDef appDefs[] = {
    {"kmeans-omp", 2, 2 * 1024 + 16, false, kmeansOmpThread},
    {"quicksort", 1, 2048, false, quicksortThread},
    // Footprints count *touched* pages: the HPL/FT/LU access patterns
    // are sparse within their address regions.
    {"hpl", 2, 2 * 192, false, hplThread},
    {"npb-cg", 2, 2 * 768 + 256, false, npbCgThread},
    {"npb-ft", 2, 2 * 256, false, npbFtThread},
    {"npb-lu", 2, 2 * 320, false, npbLuThread},
    {"npb-mg", 2, 2 * 1024, false, npbMgThread},
    {"npb-is", 2, 2 * (1024 + 512), false, npbIsThread},
    {"graphx-pr", 4, 4 * (1536 + 512 + 384), true, graphxPr},
    {"graphx-cc", 4, 4 * (1536 + 512 + 384), true, graphxCc},
    {"graphx-bfs", 4, 4 * (1536 + 512 + 384), true, graphxBfs},
    {"graphx-lp", 4, 4 * (1536 + 512 + 384), true, graphxLp},
    {"spark-kmeans", 3, 3 * 4 * 512, true, sparkKmeansThread},
    {"spark-bayes", 4, 4 * (1024 + 384 + 256), true, sparkBayesThread},
    {"microbench", 2, 2 * 1024, false, microbenchThread},
    {"linkedlist", 1, 1536, false, linkedlistThread},
};

} // namespace

Workload
makeWorkload(const std::string &name, const WorkloadScale &scale,
             std::uint64_t seed)
{
    for (const auto &def : appDefs) {
        if (name != def.name)
            continue;
        Workload w;
        w.name = def.name;
        w.jvm = def.jvm;
        w.footprintPages = sp(scale, def.basePages);
        for (unsigned t = 0; t < def.threads; ++t) {
            auto *factory = def.factory;
            w.threads.push_back([factory, scale, t, seed] {
                return factory(scale, t, seed);
            });
        }
        return w;
    }
    hopp_fatal("unknown workload '%s'", name.c_str());
}

namespace
{

/** Synthetic scenarios that are not part of the paper's Table IV. */
bool
isSynthetic(const char *name)
{
    return std::string(name) == "microbench" ||
           std::string(name) == "linkedlist";
}

} // namespace

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> out;
    for (const auto &def : appDefs) {
        if (!isSynthetic(def.name))
            out.push_back(def.name);
    }
    return out;
}

std::vector<std::string>
knownWorkloadNames()
{
    std::vector<std::string> out;
    for (const auto &def : appDefs)
        out.push_back(def.name);
    return out;
}

std::vector<std::string>
nonJvmWorkloadNames()
{
    std::vector<std::string> out;
    for (const auto &def : appDefs) {
        if (!def.jvm && !isSynthetic(def.name))
            out.push_back(def.name);
    }
    return out;
}

std::vector<std::string>
sparkWorkloadNames()
{
    std::vector<std::string> out;
    for (const auto &def : appDefs) {
        if (def.jvm)
            out.push_back(def.name);
    }
    return out;
}

} // namespace hopp::workloads

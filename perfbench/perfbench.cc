/**
 * @file
 * perfbench: the repository benchmark (see README.md in this directory).
 *
 *   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
 *             [--quick] [--work-dir DIR]
 *
 * One single-threaded process. Untraced repetitions give the end-to-end
 * metrics; with --trace 1 a separate traced pass records a
 * span around every call the benchmark makes into the simulator and
 * derives the per-layer metrics from those spans. Spans stay in memory
 * and are written at exit as Chrome trace_event JSON
 * (DIR/<workload>-spans.json), which `hopp_trace --check --summary`
 * accepts.
 *
 * Every repetition is one operation. It fails when the machine's
 * invariants do not hold, when its stats document differs from the
 * first repetition's (or the traced pass differs from the untraced
 * one), when replay cell 0 is not byte-equal to the recording run's
 * MC-side stats, or when any trace I/O status is not Ok.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics (end-to-end metrics with --trace 0, per-layer metrics
 * with --trace 1).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/trace_check.hh"
#include "obs/trace_writer.hh"
#include "runner/machine.hh"
#include "runner/replay_engine.hh"
#include "runner/stats_report.hh"
#include "workloads/apps.hh"

using namespace hopp;

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Quantile @p q of @p v, interpolating between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

// ---------------------------------------------------------------------
// Workloads

/** One benchmark workload: an (app, system, local-memory ratio). */
struct Spec
{
    const char *name;
    const char *app;
    runner::SystemKind system;
    double ratio;
    /** Record the run once per repetition and replay it over the grid. */
    bool replay;
};

const Spec specs[] = {
    {"seq-stream", "microbench", runner::SystemKind::Hopp, 0.5, false},
    {"graph-gather", "graphx-pr", runner::SystemKind::Hopp, 0.5, false},
    {"sort-writeback", "quicksort", runner::SystemKind::Fastswap, 0.5,
     false},
    {"replay-sweep", "npb-mg", runner::SystemKind::Hopp, 0.5, true},
};

/**
 * The 28-cell policy grid: cell 0 is the recorded configuration, the
 * rest cross every non-empty three-tier subset with the Markov tier and
 * huge-batch issue on/off.
 */
std::vector<runner::ReplayConfig>
replayGrid()
{
    std::vector<runner::ReplayConfig> cells;
    cells.emplace_back();
    const core::HoppConfig def;
    for (unsigned mask = 1; mask <= core::tiers::all; ++mask) {
        for (unsigned mkv : {0u, core::tiers::markov}) {
            for (bool batch : {false, true}) {
                if (mask == def.tierMask && mkv == 0 &&
                    batch == def.batch.enabled) {
                    continue; // cell 0 already covers it
                }
                runner::ReplayConfig c;
                c.hopp.tierMask = mask | mkv;
                c.hopp.batch.enabled = batch;
                cells.push_back(c);
            }
        }
    }
    return cells;
}

// ---------------------------------------------------------------------
// Spans

/**
 * In-memory span log: name, start, end, parent and repetition id per
 * span. Written once, at exit, as Chrome trace_event 'X' events in
 * start order (so timestamps are monotonic, as hopp_trace requires).
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
        unsigned rep;
        std::uint64_t count; //!< work units done inside the span
    };

    SpanLog() : epoch_(Clock::now()) {}

    void setRep(unsigned rep) { rep_ = rep; }

    int
    open(const char *name)
    {
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(
            Span{name, nsBetween(epoch_, Clock::now()), 0, parent, rep_, 0});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /** Close span @p id; @return its duration in ns. */
    std::int64_t
    close(int id, std::uint64_t count)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.endNs = nsBetween(epoch_, Clock::now());
        s.count = count;
        stack_.pop_back();
        return s.endNs - s.startNs;
    }

    std::string
    chromeJson(const std::string &other_data) const
    {
        std::string out = "{\"traceEvents\":[\n";
        char buf[320];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                "\"args\":{\"rep\":%u,\"span\":%zu,\"parent\":%d,"
                "\"count\":%llu}}",
                i ? ",\n" : "", s.name, static_cast<double>(s.startNs) / 1e3,
                static_cast<double>(s.endNs - s.startNs) / 1e3, s.rep, i,
                s.parent, static_cast<unsigned long long>(s.count));
            out += buf;
        }
        out += "\n],\n\"otherData\":";
        out += other_data;
        out += "}\n";
        return out;
    }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    unsigned rep_ = 0;
};

/**
 * Scoped span; a no-op without a log, so the untraced repetitions run
 * the very same code with no clock reads beyond their own timers.
 */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name)
        : log_(log), id_(log ? log->open(name) : -1)
    {
    }
    ~Scope() { end(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setCount(std::uint64_t n) { count_ = n; }

    /** Close now; @return the duration in ns (0 without a log). */
    std::int64_t
    end()
    {
        if (log_ && id_ >= 0) {
            ns_ = log_->close(id_, count_);
            id_ = -1;
        }
        return ns_;
    }

  private:
    SpanLog *log_;
    int id_;
    std::uint64_t count_ = 0;
    std::int64_t ns_ = 0;
};

// ---------------------------------------------------------------------
// Correctness gate

/** Operations attempted and failed; a failure names its reason. */
struct Gate
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;

    void
    record(const std::vector<std::string> &problems, const char *workload)
    {
        ++ops;
        if (problems.empty())
            return;
        ++failed;
        for (const auto &p : problems) {
            std::fprintf(stderr, "perfbench: %s op %llu failed: %s\n",
                         workload, static_cast<unsigned long long>(ops),
                         p.c_str());
        }
    }
};

// ---------------------------------------------------------------------
// One live run

/** Everything one Machine run yields. */
struct LiveOut
{
    double setupS = 0;  //!< makeWorkload + Machine ctor + prepare()
    double runS = 0;    //!< Machine::run()
    std::uint64_t accesses = 0;
    std::uint64_t events = 0;
    Tick makespan;
    double accuracy = 0;
    double coverage = 0;
    std::string digest; //!< stats + MC-side stats + makespan
    std::string mcSide; //!< MC-side stats (HoPP systems only)
    std::map<std::string, double> stats;
    std::uint64_t records = 0; //!< replay records written, if recording
    std::uint64_t traceBytes = 0;
    std::vector<std::string> problems;
};

LiveOut
runLive(const Spec &spec, std::uint64_t seed,
        const workloads::WorkloadScale &scale,
        const std::string &record_path, SpanLog *log)
{
    LiveOut out;
    runner::MachineConfig cfg;
    cfg.system = spec.system;
    cfg.localMemRatio = spec.ratio;
    cfg.recordTracePath = record_path;

    auto t0 = Clock::now();
    Scope setup(log, "runner.setup");
    runner::Machine m(cfg);
    m.addWorkload(workloads::makeWorkload(spec.app, scale, seed));
    m.prepare();
    setup.end();
    auto t1 = Clock::now();
    runner::RunResult r;
    {
        Scope run(log, "runner.Machine.run");
        r = m.run();
    }
    auto t2 = Clock::now();
    out.setupS = static_cast<double>(nsBetween(t0, t1)) / 1e9;
    out.runS = static_cast<double>(nsBetween(t1, t2)) / 1e9;

    {
        Scope check(log, "runner.checkInvariants");
        check::Report rep = m.checkInvariants();
        if (!rep.ok())
            out.problems.push_back("invariants: " + rep.summary());
    }
    {
        Scope stats(log, "runner.statsJson");
        out.digest = runner::statsJson(m);
        if (auto *h = m.hoppSystem())
            out.mcSide = core::mcSideStatsJson(h->pipeline());
    }
    out.digest += out.mcSide;
    out.digest += "makespan " + std::to_string(r.makespan.raw()) + "\n";

    for (const auto &a : r.apps)
        out.accesses += a.accesses;
    out.events = m.eventQueue().executed();
    out.makespan = r.makespan;
    out.accuracy = r.systemAccuracy;
    out.coverage = r.coverage;
    for (const auto &set : runner::collectStats(m)) {
        for (const auto &v : set.values())
            out.stats[v.name] = v.value;
    }
    if (!record_path.empty()) {
        if (!m.traceRecordOk())
            out.problems.push_back("trace recording failed");
        out.records = m.traceWriter()->records();
        out.traceBytes = m.traceWriter()->bytesWritten();
    }
    return out;
}

// ---------------------------------------------------------------------
// One replay pass

/** The outcome of replaying one recorded trace. */
struct ReplayOut
{
    double openS = 0;   //!< reader open + engine build
    double replayS = 0; //!< ReplayEngine::run()
    std::uint64_t hotPages = 0;
    double accuracy = 0; //!< cell 0 oracle ledger
    double coverage = 0;
    std::string digest; //!< cell 0 MC-side stats + oracle ledger
    std::vector<std::string> problems;
};

ReplayOut
replayOnce(const std::string &path,
           const std::vector<runner::ReplayConfig> &cells,
           const std::string &live_mc_side, SpanLog *log,
           const char *span_name)
{
    ReplayOut out;
    Scope pass(log, span_name);
    auto t0 = Clock::now();
    trace::TraceReader reader;
    trace::TraceIoStatus st = reader.open(path);
    if (st != trace::TraceIoStatus::Ok) {
        out.problems.push_back(std::string("trace open: ") +
                               trace::traceIoStatusName(st));
        return out;
    }
    runner::ReplayEngine engine(cells);
    auto t1 = Clock::now();
    {
        Scope run(log, "runner.ReplayEngine.run");
        st = engine.run(reader);
    }
    auto t2 = Clock::now();
    out.openS = static_cast<double>(nsBetween(t0, t1)) / 1e9;
    out.replayS = static_cast<double>(nsBetween(t1, t2)) / 1e9;
    if (st != trace::TraceIoStatus::Ok) {
        out.problems.push_back(std::string("replay: ") +
                               trace::traceIoStatusName(st));
    }
    out.hotPages = engine.pipeline().hpdTotals().hotPages;
    out.accuracy = engine.result(0).accuracy();
    out.coverage = engine.result(0).coverage();
    out.digest = engine.mcStatsJson(0) + engine.oracleJson(0);
    if (!live_mc_side.empty() && engine.mcStatsJson(0) != live_mc_side)
        out.problems.push_back("replay cell 0 differs from the live run");
    pass.setCount(engine.result(0).records);
    return out;
}

// ---------------------------------------------------------------------
// Measurement

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    bool quick = false;
    std::string workDir = ".";
};

/** A metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

// Keeps the calibration chase observable, so it is never folded away.
volatile std::uint32_t calibrationSink = 0;

/**
 * Host-noise anchor: the wall time of a fixed-work loop, a dependent
 * pointer chase around one random 4 MiB cycle (median of 5). It is
 * memory-latency bound like the simulator, so cache and memory
 * contention from other tenants slows it as it slows the simulator.
 */
double
calibrationLoopMs()
{
    static const std::vector<std::uint32_t> next = [] {
        // Sattolo's shuffle: one cycle through every slot.
        std::vector<std::uint32_t> v(1u << 20);
        for (std::uint32_t i = 0; i < v.size(); ++i)
            v[i] = i;
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::size_t i = v.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(v[i], v[x % i]);
        }
        return v;
    }();
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = Clock::now();
        std::uint32_t at = 0;
        for (int k = 0; k < (1 << 20); ++k)
            at = next[at];
        calibrationSink = at;
        ms.push_back(static_cast<double>(nsBetween(t0, Clock::now())) / 1e6);
    }
    return median(ms);
}

/** Results of one workload. */
struct WorkloadResult
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    Gate gate;
};

double
statOr0(const std::map<std::string, double> &stats, const char *key)
{
    auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One untraced repetition of a workload: its timings and outputs. */
struct Rep
{
    LiveOut live;       //!< the workload's run (the recording run on replay)
    ReplayOut replay;   //!< replay workloads only
    double setupS = 0;
    double opS = 0;     //!< the timed operation: run or 28-cell replay
};

Rep
oneRep(const Spec &spec, std::uint64_t seed,
       const workloads::WorkloadScale &scale, const std::string &trc,
       const std::vector<runner::ReplayConfig> &cells, SpanLog *log)
{
    Rep rep;
    rep.live = runLive(spec, seed, scale, spec.replay ? trc : "", log);
    rep.setupS = rep.live.setupS;
    rep.opS = rep.live.runS;
    if (spec.replay) {
        rep.replay =
            replayOnce(trc, cells, rep.live.mcSide, log, "replay.cells_28");
        // Recording counts toward set-up; the replay pass is the op.
        rep.setupS += rep.live.runS + rep.replay.openS;
        rep.opS = rep.replay.replayS;
    }
    return rep;
}

std::vector<std::string>
repProblems(const Rep &rep, const Rep &ref, bool replay)
{
    std::vector<std::string> p = rep.live.problems;
    p.insert(p.end(), rep.replay.problems.begin(),
             rep.replay.problems.end());
    if (rep.live.digest != ref.live.digest)
        p.push_back("stats differ from the first repetition");
    if (replay && rep.replay.digest != ref.replay.digest)
        p.push_back("replay stats differ from the first repetition");
    return p;
}

/**
 * Decode-only pass over a recorded trace; @return the summed ns of the
 * nextBatch calls (the "trace.decode" span adds the open).
 */
std::int64_t
decodeOnly(const std::string &path, SpanLog *log, std::uint64_t &records,
           std::vector<std::string> &problems)
{
    Scope pass(log, "trace.decode");
    trace::TraceReader reader;
    trace::TraceIoStatus st = reader.open(path);
    if (st != trace::TraceIoStatus::Ok) {
        problems.push_back(std::string("trace open: ") +
                           trace::traceIoStatusName(st));
        return 0;
    }
    std::vector<trace::ReplayRecord> buf(4096);
    std::int64_t ns = 0;
    for (;;) {
        Scope call(log, "trace.TraceReader.nextBatch");
        std::size_t n = reader.nextBatch(buf.data(), buf.size());
        call.setCount(n);
        ns += call.end();
        if (n == 0)
            break;
    }
    if (reader.status() != trace::TraceIoStatus::Ok) {
        problems.push_back(std::string("decode: ") +
                           trace::traceIoStatusName(reader.status()));
    }
    records = reader.recordsDecoded();
    pass.setCount(records);
    return ns;
}

/** Host costs one traced repetition isolates. */
struct TracedRep
{
    double genNsPerAccess = 0;
    double llcProbeNs = 0;
    double runS = 0; //!< the traced op: Machine::run, or 28-cell replay
    double decodeNsPerRecord = 0;
    double pipelineNsPerRecord = 0;
    double cellNsPerHotPage = 0;
    double bytesPerRecord = 0;
    std::uint64_t records = 0;
};

/**
 * One traced repetition: isolated generator drain and LLC feed, the
 * workload's run with spans around each call, a recording of it, a
 * decode-only pass, and 1-cell and 28-cell replays of that recording.
 */
TracedRep
tracedRep(const Spec &spec, std::uint64_t seed,
          const workloads::WorkloadScale &scale, const std::string &trc,
          const std::vector<runner::ReplayConfig> &cells,
          const Rep &ref, SpanLog &log, std::vector<std::string> &problems)
{
    TracedRep t;
    Scope pass(&log, "bench.traced_pass");

    {
        // Generators and the LLC probe, isolated: the same generators
        // the machine would build, drained block by block with the
        // machine's quantum, each block then fed to a standalone LLC of
        // the machine's geometry.
        Scope drain(&log, "workloads.drain");
        const runner::MachineConfig mcfg;
        workloads::Workload w =
            workloads::makeWorkload(spec.app, scale, seed);
        mem::Llc llc(mcfg.llc);
        std::vector<workloads::Access> block(mcfg.quantum);
        std::int64_t gen_ns = 0, llc_ns = 0;
        std::uint64_t accesses = 0;
        for (const auto &make : w.threads) {
            workloads::GeneratorPtr gen = make();
            for (;;) {
                Scope gen_call(&log, "workloads.nextBatch");
                std::size_t n = gen->nextBatch(block.data(), block.size());
                gen_call.setCount(n);
                gen_ns += gen_call.end();
                if (n == 0)
                    break;
                Scope probe(&log, "mem.Llc.access");
                for (std::size_t i = 0; i < n; ++i)
                    llc.access(PhysAddr{block[i].va.raw()});
                probe.setCount(n);
                llc_ns += probe.end();
                accesses += n;
                if (n < block.size())
                    break;
            }
        }
        drain.setCount(accesses);
        // Reading the LLC's counters also keeps its probes observable.
        if (llc.hits() + llc.misses() != accesses)
            problems.push_back("standalone LLC count differs from probes");
        t.genNsPerAccess = static_cast<double>(gen_ns) /
                           static_cast<double>(accesses);
        t.llcProbeNs = static_cast<double>(llc_ns) /
                       static_cast<double>(accesses);
    }

    // The workload's own operation, with spans around each call.
    Rep traced = oneRep(spec, seed, scale, trc, cells, &log);
    std::vector<std::string> p = repProblems(traced, ref, spec.replay);
    for (auto &s : p)
        problems.push_back("traced pass: " + s);
    t.runS = traced.opS;

    // The recording the replay-side layers are measured on: the replay
    // workload's run already recorded; a live workload records a
    // separate run, which must not change a single stat either.
    LiveOut rec = traced.live;
    if (!spec.replay) {
        Scope record(&log, "runner.record");
        rec = runLive(spec, seed, scale, trc, &log);
        for (auto &s : rec.problems)
            problems.push_back("recording run: " + s);
        if (rec.digest != ref.live.digest)
            problems.push_back("recording changed the run's stats");
    }
    t.records = rec.records;
    t.bytesPerRecord = rec.records ? static_cast<double>(rec.traceBytes) /
                                         static_cast<double>(rec.records)
                                   : 0.0;

    std::uint64_t decoded = 0;
    std::int64_t decode_ns = decodeOnly(trc, &log, decoded, problems);
    if (decoded != rec.records)
        problems.push_back("decoded record count differs from written");
    double records = static_cast<double>(std::max<std::uint64_t>(decoded, 1));
    t.decodeNsPerRecord = static_cast<double>(decode_ns) / records;

    ReplayOut one = replayOnce(trc, {runner::ReplayConfig{}}, rec.mcSide,
                               &log, "replay.cells_1");
    problems.insert(problems.end(), one.problems.begin(), one.problems.end());
    ReplayOut many = traced.replay;
    if (!spec.replay) {
        many = replayOnce(trc, cells, rec.mcSide, &log, "replay.cells_28");
        problems.insert(problems.end(), many.problems.begin(),
                        many.problems.end());
    }
    t.pipelineNsPerRecord =
        (one.replayS * 1e9 - static_cast<double>(decode_ns)) / records;
    double extra = static_cast<double>(cells.size() - 1) *
                   static_cast<double>(std::max<std::uint64_t>(
                       one.hotPages, 1));
    t.cellNsPerHotPage = (many.replayS - one.replayS) * 1e9 / extra;
    return t;
}

std::string
workFile(const Options &opt, const Spec &spec, const char *suffix)
{
    return opt.workDir + "/" + spec.name + suffix;
}

WorkloadResult
runWorkload(const Spec &spec, const Options &opt)
{
    WorkloadResult res;
    workloads::WorkloadScale scale;
    if (opt.quick) {
        scale.footprint = 0.2;
        scale.iterations = 0.2;
    }
    const std::string trc = workFile(opt, spec, ".trc");
    const std::vector<runner::ReplayConfig> cells = replayGrid();
    const double calib_start = calibrationLoopMs();

    // One run simulates `inputs` input sets, derived from --seed: the
    // simulated metrics are their mean, which keeps a run's figures
    // steady across seeds without fixing the inputs.
    const unsigned inputs = opt.quick ? 2 : 16;
    auto input_seed = [&](unsigned j) { return opt.seed * inputs + j; };

    // Untraced repetitions. One repetition is a round over every input
    // set; its throughput is the round's total work over its total
    // time, which averages out host noise shorter than a round. Rounds
    // repeat until the time budget is spent. A warm-up run of input 0
    // comes first, untimed; the first run of each input is the
    // reference every later one must reproduce bit for bit.
    std::vector<Rep> refs;
    refs.push_back(oneRep(spec, input_seed(0), scale, trc, cells, nullptr));
    res.gate.record(repProblems(refs[0], refs[0], spec.replay), spec.name);
    std::vector<double> setup_s, acc_per_s, rec_cells_per_s;
    std::vector<double> op_s0, run_ns_per_access0; // input 0 only
    auto start = Clock::now();
    do {
        double accesses = 0, run_s = 0, record_cells = 0, op_s = 0;
        for (unsigned j = 0; j < inputs; ++j) {
            Rep rep = oneRep(spec, input_seed(j), scale, trc, cells, nullptr);
            if (refs.size() == j)
                refs.push_back(rep);
            res.gate.record(repProblems(rep, refs[j], spec.replay),
                            spec.name);
            setup_s.push_back(rep.setupS);
            if (j == 0) {
                op_s0.push_back(rep.opS);
                run_ns_per_access0.push_back(
                    rep.live.runS * 1e9 /
                    static_cast<double>(rep.live.accesses));
            }
            accesses += static_cast<double>(rep.live.accesses);
            run_s += rep.live.runS;
            op_s += rep.opS;
            // A live run feeds its MC-side stream through one in-line
            // policy cell: MC accesses x 1 cell.
            record_cells +=
                spec.replay
                    ? static_cast<double>(rep.live.records * cells.size())
                    : statOr0(rep.live.stats, "mc.reads") +
                          statOr0(rep.live.stats, "mc.writes");
        }
        acc_per_s.push_back(accesses / run_s);
        rec_cells_per_s.push_back(record_cells / op_s);
    } while (static_cast<double>(nsBetween(start, Clock::now())) / 1e9 <
             opt.seconds);
    const double rss = peakRssMb();
    double makespan_ms = 0, accuracy = 0, coverage = 0;
    for (const Rep &r : refs) {
        makespan_ms += static_cast<double>(r.live.makespan.raw()) / 1e6;
        accuracy += spec.replay ? r.replay.accuracy : r.live.accuracy;
        coverage += spec.replay ? r.replay.coverage : r.live.coverage;
    }

    // Throughputs are the upper quartile of the per-round values, not
    // the median. On a shared host the simulator alternates for seconds
    // at a time between an uncontended and a contended speed (about
    // 1.7x apart on a 4-vCPU VM). The median jumps between the two once
    // the contended share of a run nears one half; the upper quartile
    // holds until it nears three quarters. The full distribution is
    // printed above the metrics.
    res.endToEnd = {
        {"accesses_per_s", quantile(acc_per_s, 0.75), "1/s"},
        {"record_cells_per_s", quantile(rec_cells_per_s, 0.75), "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss, "MB"},
        {"sim_makespan_ms", makespan_ms / inputs, "sim_ms"},
        {"prefetch_accuracy", accuracy / inputs, "ratio"},
        {"prefetch_coverage", coverage / inputs, "ratio"},
    };

    std::printf("%s: app %s, system %s, ratio %.2f, seed %llu, %u input "
                "sets, %zu timed rounds\n",
                spec.name, spec.app, runner::systemName(spec.system),
                spec.ratio, static_cast<unsigned long long>(opt.seed),
                inputs, acc_per_s.size());
    for (const auto &[name, v] :
         {std::pair{"accesses_per_s", acc_per_s},
          std::pair{"record_cells_per_s", rec_cells_per_s},
          std::pair{"setup_s", setup_s}}) {
        std::printf("%s: min %.6g, q1 %.6g, median %.6g, q3 %.6g, max %.6g "
                    "over %zu samples\n",
                    name, quantile(v, 0), quantile(v, 0.25), median(v),
                    quantile(v, 0.75), quantile(v, 1), v.size());
    }
    const Rep &ref = refs[0];

    SpanLog log;
    if (opt.trace) {
        // The traced pass runs input 0; its untraced counterparts are
        // input 0's timed repetitions.
        std::vector<TracedRep> traced;
        const unsigned traced_reps = opt.quick ? 1 : 3;
        for (unsigned k = 0; k < traced_reps; ++k) {
            log.setRep(k + 1);
            std::vector<std::string> p;
            traced.push_back(tracedRep(spec, input_seed(0), scale, trc,
                                       cells, ref, log, p));
            res.gate.record(p, spec.name);
        }
        auto med = [&](double TracedRep::*field) {
            std::vector<double> v;
            for (const auto &t : traced)
                v.push_back(t.*field);
            return median(v);
        };
        const auto &st = ref.live.stats;
        const double accesses =
            static_cast<double>(std::max<std::uint64_t>(ref.live.accesses, 1));
        const double llc_probes =
            statOr0(st, "llc.hits") + statOr0(st, "llc.misses");
        const double gen = med(&TracedRep::genNsPerAccess);
        const double llc = med(&TracedRep::llcProbeNs);
        const double pipe = med(&TracedRep::pipelineNsPerRecord);
        const bool hopp_live = spec.system == runner::SystemKind::Hopp;
        const double records = static_cast<double>(traced[0].records);
        // Untraced ns per access of the live run (on the replay
        // workload, the recording run), minus the isolated shares.
        const double residual = median(run_ns_per_access0) - gen -
                                llc * llc_probes / accesses -
                                (hopp_live ? pipe * records / accesses : 0);
        const double overhead = med(&TracedRep::runS) / median(op_s0) - 1.0;

        res.perLayer = {
            {"workloads.gen_ns_per_access", gen, "ns"},
            {"mem.llc_probe_ns", llc, "ns"},
            {"mem.llc_hit_rate",
             llc_probes > 0 ? statOr0(st, "llc.hits") / llc_probes : 0.0,
             "ratio"},
            {"mem.mc_reads", statOr0(st, "mc.reads"), "count"},
            {"vm.faults_cold", statOr0(st, "vms.faults_cold"), "count"},
            {"vm.faults_remote", statOr0(st, "vms.faults_remote"), "count"},
            {"vm.faults_swapcache_hit",
             statOr0(st, "vms.faults_swapcache_hit"), "count"},
            {"vm.faults_inflight_wait",
             statOr0(st, "vms.faults_inflight_wait"), "count"},
            {"vm.remote_fault_p99_ns",
             statOr0(st, "latency.remote_fault.p99_ns"), "sim_ns"},
            {"vm.inflight_wait_p99_ns",
             statOr0(st, "latency.inflight_wait.p99_ns"), "sim_ns"},
            {"vm.evictions", statOr0(st, "vms.evictions"), "count"},
            {"vm.writebacks", statOr0(st, "vms.writebacks"), "count"},
            {"vm.reclaim_direct", statOr0(st, "vms.reclaim_direct"),
             "count"},
            {"net.read_queue_delay_mean_ns",
             statOr0(st, "net.read.queue_delay_mean_ns"), "sim_ns"},
            {"net.write_queue_delay_mean_ns",
             statOr0(st, "net.write.queue_delay_mean_ns"), "sim_ns"},
            {"net.read_bytes", statOr0(st, "net.read.bytes"), "B"},
            {"net.write_bytes", statOr0(st, "net.write.bytes"), "B"},
            {"remote.demand_reads", statOr0(st, "remote.demand_reads"),
             "count"},
            {"remote.prefetch_reads", statOr0(st, "remote.prefetch_reads"),
             "count"},
            {"prefetch.completed", statOr0(st, "prefetch.completed"),
             "count"},
            {"prefetch.hits", statOr0(st, "prefetch.hits"), "count"},
            {"sim.events_executed", static_cast<double>(ref.live.events),
             "count"},
            {"hopp.pipeline_ns_per_record", pipe, "ns"},
            {"hopp.hpd_hot_ratio", statOr0(st, "hopp.hpd.hot_ratio"),
             "ratio"},
            {"hopp.rpt_cache_hit_rate", statOr0(st, "hopp.rpt.hit_rate"),
             "ratio"},
            {"hopp.stt_streams_seeded",
             statOr0(st, "hopp.stt.streams_seeded"), "count"},
            {"hopp.trainer_no_pattern",
             statOr0(st, "hopp.trainer.no_pattern"), "count"},
            {"hopp.exec_deduped", statOr0(st, "hopp.exec.deduped"),
             "count"},
            {"hopp.ring_dropped", statOr0(st, "hopp.ring.dropped"),
             "count"},
        };
        for (const char *tier : {"ssp", "lsp", "rsp", "mkv"}) {
            for (const char *what : {"issued", "hits"}) {
                std::string key =
                    std::string("hopp.tier.") + tier + "." + what;
                res.perLayer.push_back(
                    {std::string("hopp.tier_") + tier + "_" + what,
                     statOr0(st, key.c_str()), "count"});
            }
        }
        res.perLayer.push_back({"hopp.cell_ns_per_hot_page",
                                med(&TracedRep::cellNsPerHotPage), "ns"});
        res.perLayer.push_back({"trace.decode_ns_per_record",
                                med(&TracedRep::decodeNsPerRecord), "ns"});
        res.perLayer.push_back(
            {"trace.bytes_per_record", traced[0].bytesPerRecord, "B"});
        res.perLayer.push_back(
            {"runner.residual_ns_per_access", residual, "ns"});
        res.perLayer.push_back(
            {"bench.tracing_overhead_frac", overhead, "ratio"});
    }

    const double calib_end = calibrationLoopMs();
    std::printf("anchor: nproc %ld, calibration loop %.3f ms at start, "
                "%.3f ms at end\n",
                sysconf(_SC_NPROCESSORS_ONLN), calib_start, calib_end);
    if (opt.trace) {
        // Spans out, then read back through the repository's own
        // trace_event validator.
        char other[256];
        std::snprintf(other, sizeof(other),
                      "{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%ld,"
                      "\"calib_loop_ms_start\":%.6f,"
                      "\"calib_loop_ms_end\":%.6f}",
                      spec.name, static_cast<unsigned long long>(opt.seed),
                      sysconf(_SC_NPROCESSORS_ONLN), calib_start, calib_end);
        const std::string spans_path = workFile(opt, spec, "-spans.json");
        const std::string doc = log.chromeJson(other);
        std::vector<std::string> p;
        obs::json::Value root;
        std::string err;
        if (!obs::writeFile(spans_path, doc))
            p.push_back("cannot write " + spans_path);
        else if (!obs::json::parse(doc, root, &err))
            p.push_back("span file is not JSON: " + err);
        else if (auto c = obs::checkTrace(root); !c.ok())
            p.push_back("span file rejected: " + c.errors.front());
        res.gate.record(p, spec.name);
        std::printf("spans: %s\n", spans_path.c_str());
    }
    std::remove(trc.c_str());
    return res;
}

void
appendMetric(std::string &out, bool &first, const std::string &name,
             const Metric &m)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit);
    out += buf;
    first = false;
}

void
printMetrics(const char *workload, const char *kind,
             const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics) {
        std::printf("%-16s %-10s %-32s %.6g %s\n", workload, kind,
                    m.name.c_str(), m.value, m.unit);
    }
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 [--quick] [--work-dir DIR]\n"
                 "workloads: seq-stream graph-gather sort-writeback "
                 "replay-sweep\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto number = [&](auto parse) {
            std::string v = value();
            char *end = nullptr;
            auto n = parse(v.c_str(), &end);
            if (v.empty() || *end != '\0')
                usage(argv[0]);
            return n;
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = number([](const char *s, char **e) {
                return std::strtoull(s, e, 10);
            });
        else if (a == "--seconds")
            opt.seconds = number([](const char *s, char **e) {
                return std::strtod(s, e);
            });
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--quick")
            opt.quick = true;
        else if (a == "--work-dir")
            opt.workDir = value();
        else
            usage(argv[0]);
    }

    std::vector<const Spec *> run;
    for (const auto &s : specs) {
        if (opt.workload == "all" || opt.workload == s.name)
            run.push_back(&s);
    }
    if (run.empty() || !(opt.seconds > 0))
        usage(argv[0]);

    bool all = run.size() > 1;
    std::uint64_t ops = 0, failed = 0;
    std::string metrics;
    bool first = true;
    for (const Spec *s : run) {
        WorkloadResult r = runWorkload(*s, opt);
        printMetrics(s->name, "end-to-end", r.endToEnd);
        printMetrics(s->name, "per-layer", r.perLayer);
        std::printf("%-16s ops %llu failed_ops %llu\n", s->name,
                    static_cast<unsigned long long>(r.gate.ops),
                    static_cast<unsigned long long>(r.gate.failed));
        ops += r.gate.ops;
        failed += r.gate.failed;
        for (const auto &m : opt.trace ? r.perLayer : r.endToEnd) {
            appendMetric(metrics, first,
                         all ? std::string(s->name) + "/" + m.name : m.name,
                         m);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

/**
 * @file
 * Simulator-core steady-state throughput benchmark.
 *
 * Five measurements, one canonical JSON artifact (BENCH_simcore.json):
 *
 * 1. Event dispatch: a ring of in-flight "RDMA read" completions — the
 *    dominant event on the fault/prefetch path — driven through the
 *    production sim::EventQueue with templated completion callbacks
 *    landing in inline-storage events.
 *
 * 2. Sweep scaling: a 16-config (workload, system, ratio) sweep run
 *    through runner::SweepPool serially and with 4 workers, recording
 *    both wall times, the speedup, and host_cpus — on a single-core
 *    host the speedup is honestly ~1, and the artifact says so.
 *
 * 3. End-to-end steady state: a full HoPP machine run (microbench
 *    workload, 50% local memory) reporting faults/sec, events/sec and
 *    wall-ns per simulated millisecond.
 *
 * 4. Trace replay: the end-to-end run again with --record-trace on,
 *    then the recorded trace replayed through runner::ReplayEngine,
 *    best of three. Reports replay throughput (records/sec), the
 *    replay speedup over re-simulating live, the on-disk compression
 *    vs the raw 16 B/record HMTT format, and whether the replayed
 *    MC-side stats matched the live run byte for byte.
 *
 * 5. Self-profile: the end-to-end run under the host self-profiler.
 *
 * The sweep's determinism and the replay's fidelity are self-checks:
 * when either fails, the artifact is still written and the exit status
 * is 1.
 *
 * Wall-clock use is deliberate and confined to bench/ (the determinism
 * lint only polices src/ and tools/): throughput numbers are exactly
 * the place where real time belongs.
 *
 * Flags: --out PATH (default BENCH_simcore.json), --quick (CI smoke).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hh"
#include "runner/machine.hh"
#include "runner/replay_engine.hh"
#include "runner/sweep_pool.hh"
#include "sim/event_queue.hh"
#include "workloads/apps.hh"

using namespace hopp;

namespace
{

double
wallSeconds(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * The fabric idiom (net/rdma.hh): the callback type flows through a
 * template parameter straight into the event's fixed inline storage —
 * zero allocations end to end.
 */
template <typename F>
void
inlineReadAsync(sim::EventQueue &q, Duration lat, F &&done)
{
    Tick completion = q.now() + lat;
    q.schedule(completion,
               [done = std::forward<F>(done), completion]() mutable {
                   done(completion);
               });
}

/**
 * One in-flight "read": the completion handler records the result and
 * issues the next read, exactly the steady-state shape of demand
 * faults and prefetch streams. The callback captures the actor plus a
 * (slot, vpn) pair, like the tree's completion closures.
 */
struct InlineActor
{
    sim::EventQueue &q;
    std::uint64_t budget;
    std::uint64_t acc = 0;

    void
    onDone(Tick t, std::uint64_t slot, std::uint64_t vpn)
    {
        acc += t.raw() ^ slot ^ vpn;
        if (budget == 0)
            return;
        --budget;
        inlineReadAsync(q, Duration{1 + (acc & 7)},
                        [this, slot = slot + 1, vpn = vpn + 2](Tick c) {
                            onDone(c, slot, vpn);
                        });
    }
};

/** Event-queue dispatch throughput, best of three trials. */
double
dispatchEventsPerSec(std::uint64_t events_per_trial)
{
    // 16 in-flight completions: the fabric keeps a modest number of
    // reads outstanding (per-app fault + prefetch windows), so the
    // queue stays shallow and the per-event closure cost dominates —
    // the quantity this benchmark isolates.
    constexpr int actors = 16;
    constexpr int trials = 3;
    double best = 0;
    for (int trial = 0; trial < trials; ++trial) {
        sim::EventQueue q;
        std::vector<InlineActor> ring(
            actors, InlineActor{q, events_per_trial / actors});
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < actors; ++i)
            ring[i].onDone(Tick{static_cast<std::uint64_t>(1 + i)}, 1,
                           2);
        while (q.runOne()) {
        }
        auto t1 = std::chrono::steady_clock::now();
        double rate =
            static_cast<double>(q.executed()) / wallSeconds(t0, t1);
        if (rate > best)
            best = rate;
    }
    return best;
}

struct SweepScaling
{
    std::uint64_t configs;
    unsigned jobs;
    unsigned hostCpus;
    double serialWallSec;
    double parallelWallSec;
    double speedup;
    bool deterministic;
};

SweepScaling
sweepScalingBench(bool quick)
{
    // The hopp_sweep.determinism ctest's grid: 2 workloads x 2 systems
    // x 4 ratios = 16 fully independent configurations.
    struct Cell
    {
        const char *workload;
        runner::SystemKind system;
        double ratio;
    };
    std::vector<Cell> cells;
    for (const char *w : {"microbench", "linkedlist"})
        for (auto s :
             {runner::SystemKind::Fastswap, runner::SystemKind::Hopp})
            for (double r : {0.2, 0.4, 0.6, 0.8})
                cells.push_back(Cell{w, s, r});

    workloads::WorkloadScale scale;
    scale.footprint = quick ? 0.1 : 0.3;
    scale.iterations = quick ? 0.2 : 0.5;
    auto task = [&](std::size_t i) {
        runner::MachineConfig cfg;
        cfg.system = cells[i].system;
        cfg.localMemRatio = cells[i].ratio;
        runner::Machine m(cfg);
        m.addWorkload(
            workloads::makeWorkload(cells[i].workload, scale, 43));
        return m.run().makespan;
    };

    SweepScaling s;
    s.configs = cells.size();
    s.jobs = 4;
    s.hostCpus = runner::SweepPool::hardwareJobs();

    auto t0 = std::chrono::steady_clock::now();
    auto serial =
        runner::SweepPool(1).run<Tick>(cells.size(), task);
    auto t1 = std::chrono::steady_clock::now();
    auto parallel =
        runner::SweepPool(s.jobs).run<Tick>(cells.size(), task);
    auto t2 = std::chrono::steady_clock::now();

    s.serialWallSec = wallSeconds(t0, t1);
    s.parallelWallSec = wallSeconds(t1, t2);
    s.speedup = s.serialWallSec / s.parallelWallSec;
    s.deterministic = serial == parallel;
    return s;
}

struct EndToEnd
{
    double faultsPerSec;
    double eventsPerSec;
    double wallNsPerSimMs;
    std::uint64_t faults;
    std::uint64_t events;
};

EndToEnd
endToEndSteadyState(bool quick)
{
    runner::MachineConfig cfg;
    cfg.system = runner::SystemKind::Hopp;
    cfg.localMemRatio = 0.5; // half the footprint is remote: constant
                             // fault/prefetch pressure
    workloads::WorkloadScale scale;
    scale.footprint = quick ? 0.2 : 1.0;
    scale.iterations = quick ? 0.2 : 1.0;
    runner::Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", scale));
    auto t0 = std::chrono::steady_clock::now();
    runner::RunResult r = m.run();
    auto t1 = std::chrono::steady_clock::now();
    double wall = wallSeconds(t0, t1);
    double sim_ms = static_cast<double>(r.makespan.raw()) / 1e6;
    EndToEnd e;
    e.faults = m.vms().stats().faults();
    e.events = m.eventQueue().executed();
    e.faultsPerSec = static_cast<double>(e.faults) / wall;
    e.eventsPerSec = static_cast<double>(e.events) / wall;
    e.wallNsPerSimMs = wall * 1e9 / sim_ms;
    return e;
}

struct TraceReplay
{
    std::uint64_t records;
    std::uint64_t traceBytes;
    std::uint64_t cells; //!< policy cells evaluated per replay pass
    double bytesPerRecord;
    double compressionRatio; //!< vs the raw 16 B/record HMTT format
    double liveWallSec;
    double liveRecordsPerSec;
    double replayRecordsPerSec; //!< cells x records / wall, best of 3
    double replaySpeedup;       //!< replay vs live, records/sec
    bool identicalResults;      //!< MC-side stats byte-identical
};

/**
 * 4. Trace replay (DESIGN.md §15): record the end-to-end run's
 *    MC-side input stream, then sweep a policy grid over it in one
 *    ReplayEngine fan-out pass. "Live" throughput charges the
 *    recording run's whole wall time to its record count — that is
 *    exactly what a policy sweep pays per configuration without
 *    replay — and replay throughput is cells x records over the
 *    pass's wall time, since one pass evaluates every cell. Cell 0 is
 *    the recorded configuration; its stats document must stay
 *    byte-identical to the live run's (the fidelity contract).
 */
TraceReplay
traceReplayBench(bool quick)
{
    const std::string path = "bench_trace_replay.trc";
    runner::MachineConfig cfg;
    cfg.system = runner::SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    cfg.recordTracePath = path;
    workloads::WorkloadScale scale;
    scale.footprint = quick ? 0.2 : 1.0;
    scale.iterations = quick ? 0.2 : 1.0;
    runner::Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", scale));
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto t1 = std::chrono::steady_clock::now();

    TraceReplay tr{};
    tr.liveWallSec = wallSeconds(t0, t1);
    tr.records = m.traceWriter()->records();
    tr.traceBytes = m.traceWriter()->bytesWritten();
    tr.bytesPerRecord = static_cast<double>(tr.traceBytes) /
                        static_cast<double>(tr.records);
    tr.compressionRatio =
        static_cast<double>(16 * tr.records) /
        static_cast<double>(tr.traceBytes);
    tr.liveRecordsPerSec =
        static_cast<double>(tr.records) / tr.liveWallSec;
    std::string live =
        core::mcSideStatsJson(m.hoppSystem()->pipeline());

    // The policy grid: cell 0 is the recorded configuration (so the
    // fidelity contract stays checkable), the rest cross every
    // non-empty three-tier subset with the Markov tier and huge-batch
    // issue on/off — the sweep a paper-style software ablation
    // actually runs (tiers and batching are software knobs, so every
    // cell shares the recorded hardware frontend).
    std::vector<runner::ReplayConfig> cells;
    cells.emplace_back();
    for (unsigned mask = 1; mask <= core::tiers::all; ++mask) {
        for (unsigned mkv : {0u, core::tiers::markov}) {
            for (bool batch : {false, true}) {
                if (mask == core::HoppConfig{}.tierMask && mkv == 0 &&
                    batch == core::HoppConfig{}.batch.enabled) {
                    continue; // cell 0 already covers it
                }
                runner::ReplayConfig c;
                c.hopp.tierMask = mask | mkv;
                c.hopp.batch.enabled = batch;
                cells.push_back(c);
            }
        }
    }
    tr.cells = cells.size();

    constexpr int trials = 3;
    tr.identicalResults = true;
    for (int i = 0; i < trials; ++i) {
        trace::TraceReader reader;
        if (reader.open(path) != trace::TraceIoStatus::Ok) {
            tr.identicalResults = false;
            break;
        }
        runner::ReplayEngine engine(cells);
        auto r0 = std::chrono::steady_clock::now();
        trace::TraceIoStatus st = engine.run(reader);
        auto r1 = std::chrono::steady_clock::now();
        double rate = static_cast<double>(tr.cells * tr.records) /
                      wallSeconds(r0, r1);
        if (rate > tr.replayRecordsPerSec)
            tr.replayRecordsPerSec = rate;
        tr.identicalResults &= st == trace::TraceIoStatus::Ok &&
                               engine.mcStatsJson(0) == live;
    }
    tr.replaySpeedup = tr.replayRecordsPerSec / tr.liveRecordsPerSec;
    std::remove(path.c_str());
    return tr;
}

/**
 * 5. Self-profile: the end-to-end run again, this time with the host
 *    self-profiler armed, reporting where the simulator's own wall
 *    time goes (dispatch vs page walk vs fault path vs LLC vs ...).
 *    The attributed fraction is the profiler's coverage acceptance
 *    gate: the zones must explain >= 90% of Machine::run() wall time.
 */
obs::prof::Report
selfProfileBench(bool quick)
{
    obs::prof::reset();
    obs::prof::enable(true);

    runner::MachineConfig cfg;
    cfg.system = runner::SystemKind::Hopp;
    cfg.localMemRatio = 0.5;
    workloads::WorkloadScale scale;
    scale.footprint = quick ? 0.2 : 1.0;
    scale.iterations = quick ? 0.2 : 1.0;
    runner::Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("microbench", scale));
    m.run();

    obs::prof::enable(false);
    return obs::prof::collect();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_simcore.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[++i];
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const std::uint64_t dispatch_events = quick ? 1'000'000 : 8'000'000;

    std::printf("simcore benchmark (%s)\n", quick ? "quick" : "full");
    double inline_eps = dispatchEventsPerSec(dispatch_events);
    std::printf("  dispatch: %.3fM ev/s\n", inline_eps / 1e6);

    SweepScaling s = sweepScalingBench(quick);
    std::printf("  sweep: %llu configs, serial %.2fs, %u jobs %.2fs, "
                "speedup %.2fx on %u host cpu(s)%s\n",
                (unsigned long long)s.configs, s.serialWallSec, s.jobs,
                s.parallelWallSec, s.speedup, s.hostCpus,
                s.deterministic ? "" : " [NONDETERMINISTIC!]");

    EndToEnd e = endToEndSteadyState(quick);
    std::printf("  end-to-end: %.0f faults/s, %.3fM ev/s, %.0f wall-ns "
                "per sim-ms\n",
                e.faultsPerSec, e.eventsPerSec / 1e6, e.wallNsPerSimMs);

    TraceReplay tr = traceReplayBench(quick);
    std::printf("  trace replay: %llu-cell sweep %.2fM rec/s (live "
                "%.2fM rec/s, speedup %.1fx), %.2f B/rec (%.2fx vs "
                "raw)%s\n",
                (unsigned long long)tr.cells,
                tr.replayRecordsPerSec / 1e6,
                tr.liveRecordsPerSec / 1e6, tr.replaySpeedup,
                tr.bytesPerRecord, tr.compressionRatio,
                tr.identicalResults ? "" : " [RESULTS DIVERGE!]");

    obs::prof::Report p = selfProfileBench(quick);
    std::printf("  self-profile: %.1f%% of %.3f ms attributed to "
                "zones\n",
                100.0 * p.attributedFraction(),
                static_cast<double>(p.wallNs()) / 1e6);

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    // Canonical artifact: fixed key order, schema documented in
    // DESIGN.md §9.
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"hopp-bench-simcore-v1\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
    std::fprintf(f, "  \"event_dispatch\": {\n");
    std::fprintf(f, "    \"events_per_trial\": %llu,\n",
                 (unsigned long long)dispatch_events);
    std::fprintf(f, "    \"inline_events_per_sec\": %.0f\n", inline_eps);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sweep_scaling\": {\n");
    std::fprintf(f, "    \"configs\": %llu,\n",
                 (unsigned long long)s.configs);
    std::fprintf(f, "    \"jobs\": %u,\n", s.jobs);
    std::fprintf(f, "    \"host_cpus\": %u,\n", s.hostCpus);
    std::fprintf(f, "    \"serial_wall_sec\": %.3f,\n",
                 s.serialWallSec);
    std::fprintf(f, "    \"parallel_wall_sec\": %.3f,\n",
                 s.parallelWallSec);
    std::fprintf(f, "    \"speedup\": %.3f,\n", s.speedup);
    std::fprintf(f, "    \"deterministic\": %s\n",
                 s.deterministic ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"end_to_end\": {\n");
    std::fprintf(f, "    \"workload\": \"microbench\",\n");
    std::fprintf(f, "    \"local_mem_ratio\": 0.5,\n");
    std::fprintf(f, "    \"faults\": %llu,\n",
                 (unsigned long long)e.faults);
    std::fprintf(f, "    \"events\": %llu,\n",
                 (unsigned long long)e.events);
    std::fprintf(f, "    \"faults_per_sec\": %.0f,\n", e.faultsPerSec);
    std::fprintf(f, "    \"events_per_sec\": %.0f,\n", e.eventsPerSec);
    std::fprintf(f, "    \"wall_ns_per_sim_ms\": %.0f\n",
                 e.wallNsPerSimMs);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"trace_replay\": {\n");
    std::fprintf(f, "    \"workload\": \"microbench\",\n");
    std::fprintf(f, "    \"local_mem_ratio\": 0.5,\n");
    std::fprintf(f, "    \"records\": %llu,\n",
                 (unsigned long long)tr.records);
    std::fprintf(f, "    \"trace_bytes\": %llu,\n",
                 (unsigned long long)tr.traceBytes);
    std::fprintf(f, "    \"cells\": %llu,\n",
                 (unsigned long long)tr.cells);
    std::fprintf(f, "    \"bytes_per_record\": %.3f,\n",
                 tr.bytesPerRecord);
    std::fprintf(f, "    \"compression_ratio\": %.3f,\n",
                 tr.compressionRatio);
    std::fprintf(f, "    \"live_wall_sec\": %.3f,\n", tr.liveWallSec);
    std::fprintf(f, "    \"live_records_per_sec\": %.0f,\n",
                 tr.liveRecordsPerSec);
    std::fprintf(f, "    \"replay_records_per_sec\": %.0f,\n",
                 tr.replayRecordsPerSec);
    std::fprintf(f, "    \"replay_speedup\": %.3f,\n",
                 tr.replaySpeedup);
    std::fprintf(f, "    \"identical_results\": %s\n",
                 tr.identicalResults ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"self_profile\": {\n");
    std::fprintf(f, "    \"wall_ns\": %llu,\n",
                 (unsigned long long)p.wallNs());
    std::fprintf(f, "    \"attributed_ns\": %llu,\n",
                 (unsigned long long)p.attributedNs());
    std::fprintf(f, "    \"attributed_fraction\": %.4f,\n",
                 p.attributedFraction());
    std::fprintf(f, "    \"zones\": [\n");
    for (unsigned z = 0; z < obs::prof::zoneCount; ++z) {
        const auto &s = p.zones[z];
        std::fprintf(
            f,
            "      {\"zone\": \"%s\", \"total_ns\": %llu, "
            "\"self_ns\": %llu, \"count\": %llu}%s\n",
            obs::prof::zoneName(static_cast<obs::prof::Zone>(z)),
            (unsigned long long)s.totalNs,
            (unsigned long long)p.selfNs(
                static_cast<obs::prof::Zone>(z)),
            (unsigned long long)s.count,
            z + 1 < obs::prof::zoneCount ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", out.c_str());
    if (!s.deterministic || !tr.identicalResults) {
        std::fprintf(stderr, "bench_simcore: self-check failed (see "
                             "sweep_scaling.deterministic and "
                             "trace_replay.identical_results)\n");
        return 1;
    }
    return 0;
}

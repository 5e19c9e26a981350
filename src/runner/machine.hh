/**
 * @file
 * Machine assembly: wires DRAM, LLC, memory controller, VMS, RDMA
 * fabric, remote node, the system-under-test's prefetcher(s) and
 * HoPP's hardware/software into one event-driven simulation, runs the
 * configured workloads as per-thread actors, and collects the metrics
 * every benchmark reports.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariants.hh"
#include "hopp/hopp_system.hh"
#include "mem/llc.hh"
#include "net/rdma.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "prefetch/depthn.hh"
#include "prefetch/leap.hh"
#include "prefetch/readahead.hh"
#include "prefetch/stats.hh"
#include "prefetch/vma.hh"
#include "remote/swap_backend.hh"
#include "runner/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "trace/trace_file.hh"
#include "vm/vms.hh"
#include "workloads/apps.hh"

namespace hopp::runner
{

/** Which disaggregated-memory system drives the machine. */
enum class SystemKind
{
    Local,      //!< everything fits in local DRAM (baseline CT_local)
    NoPrefetch, //!< Fastswap data path without prefetching (Fig. 17)
    Fastswap,   //!< swap-offset readahead
    Leap,       //!< majority-based prefetching
    Vma,        //!< VMA (virtual-address) readahead
    DepthN,     //!< fixed-depth early PTE injection
    Hopp,       //!< HoPP engine alongside Fastswap readahead (§V)
    HoppOnly,   //!< HoPP engine with no fault-driven prefetcher
};

/** Printable system name. */
const char *systemName(SystemKind k);

/** The system systemName() spells as @p name; nullopt if none is. */
std::optional<SystemKind> parseSystem(std::string_view name);

/** Full machine configuration. */
struct MachineConfig
{
    SystemKind system = SystemKind::Fastswap;

    /** cgroup limit as a fraction of each app's footprint (§VI-B). */
    double localMemRatio = 0.5;

    /** Depth for SystemKind::DepthN. */
    unsigned depth = 32;

    mem::LlcConfig llc{/*capacityBytes=*/512 << 10, /*ways=*/16};
    net::LinkConfig link;
    vm::VmsConfig vms;
    core::HoppConfig hopp;

    /** Extra uncharged DRAM frames beyond the cgroup limits. */
    static constexpr std::uint64_t dramSlackFrames = 512;

    /**
     * Accesses one thread buffers per block: the step loop refills the
     * per-thread block with one AccessGenerator::nextBatch call per
     * `quantum` accesses. Purely host-side amortization — the yield
     * checks stay per-access regardless (see DESIGN.md §14).
     */
    static constexpr unsigned quantum = 512;

    /**
     * Per-thread software TLB caching VPN -> PageInfo* for resident
     * pages (vm/tlb.hh). Host-side accelerator only: results are
     * bit-identical with it off (the cross-check test relies on that);
     * turn it off to isolate a suspected translation bug.
     */
    bool tlb = true;

    /**
     * Flight recorder: record structured trace events across every
     * layer (fault spans, prefetch issue->fill, reclaim passes, link
     * transfers, HoPP drains, sampled counters). Off by default; when
     * off, components hold a null tracer and the instrumentation is a
     * branch on a cold pointer.
     */
    bool trace = false;

    /**
     * Periodic metrics sampling interval in simulated ns; 0 disables.
     * When enabled, a MetricsSampler snapshots the registered gauges
     * (resident frames, swapcache, in-flight prefetches, LRU lengths,
     * remote slots, RPT occupancy, queue depth, HoPP outstanding)
     * every period; export with Machine::metricsSampler()->toCsv().
     */
    Duration metricsPeriod = 0;

    /**
     * Debug hook: run the src/check structural validators (event-queue
     * monotonicity, VMS cross-consistency, LLC occupancy, RPT/STT
     * accounting) every time this many further events have executed,
     * plus once after the run drains; any violation panics with the
     * full list. 0 disables. Costs a full state walk per pass, so keep
     * it for debugging and CI, not for sweeps.
     */
    std::uint64_t checkInterval = 0;

    /**
     * When non-empty, record the MC-side input stream (initial
     * page-table snapshot, every MC access, every PTE event) to this
     * path in the blocked replay-trace format, for later offline
     * policy sweeps with hopp-replay (DESIGN.md §15).
     */
    std::string recordTracePath;
};

/** Per-application outcome. */
struct AppResult
{
    Pid pid;
    std::string name;
    Tick completion;           //!< slowest thread's finish time
    std::uint64_t accesses = 0;
};

/** Everything a benchmark needs from one run. */
struct RunResult
{
    std::vector<AppResult> apps;
    Tick makespan;

    // §VI-A metrics (all origins combined).
    double accuracy = 0.0;
    double coverage = 0.0;
    double dramHitCoverage = 0.0;

    /**
     * Accuracy of the *system's own* prefetcher: the HoPP engine's
     * aggregate tier accuracy on Hopp machines (what Fig. 10/13 plot
     * for HoPP), equal to `accuracy` elsewhere.
     */
    double systemAccuracy = 0.0;

    vm::VmsStats vms;
    std::uint64_t demandRemote = 0;
    std::uint64_t prefetchReads = 0;
    std::uint64_t writebacks = 0;

    /** Completion of one app by name (fatal when absent). */
    Tick completionOf(const std::string &name) const;
};

/**
 * One simulated machine running one experiment.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Add an application (becomes pid 1, 2, ...). */
    void addWorkload(const workloads::Workload &w);

    /**
     * Construct all components without running, so callers can attach
     * extra observers (e.g. an McObserver on the memory controller)
     * before the first application event. Idempotent; run() calls it.
     */
    void prepare();

    /** Build, run to completion, and collect results. */
    RunResult run();

    // Component access after run() for detailed benches.
    vm::Vms &vms() { return *vms_; }
    prefetch::PrefetchStats &prefetchStats() { return stats_; }
    remote::SwapBackend &backend() { return *backend_; }
    mem::Dram &dram() { return *dram_; }
    mem::Llc &llc() { return *llc_; }
    mem::MemCtrl &memCtrl() { return *mc_; }
    net::RdmaFabric &fabric() { return *fabric_; }
    sim::EventQueue &eventQueue() { return eq_; }

    /** The HoPP system (nullptr unless system is Hopp/HoppOnly). */
    core::HoppSystem *hoppSystem() { return hoppSystem_.get(); }

    /** The flight recorder (empty unless cfg.trace). */
    obs::Tracer &tracer() { return tracer_; }

    /** The metrics sampler (nullptr unless cfg.metricsPeriod > 0). */
    obs::MetricsSampler *metricsSampler() { return metrics_.get(); }

    /** The trace writer (nullptr unless cfg.recordTracePath is set). */
    trace::TraceWriter *traceWriter() { return traceWriter_.get(); }

    /** False when recording was requested but writing/closing failed. */
    bool traceRecordOk() const { return traceRecordOk_; }

    /** Fault-path latency histograms (always collected). */
    obs::FaultLatency &faultLatency() { return latency_; }

    /**
     * Run every applicable invariant validator once and return the
     * accumulated report (empty when the machine state is consistent).
     * The periodic checkInterval hook is this plus Report::enforce().
     */
    check::Report checkInvariants();

  private:
    struct Thread
    {
        Pid pid;
        workloads::GeneratorPtr gen;
        Tick now;
        Tick completion;
        std::uint64_t accesses = 0;
        bool done = false;
        /// Per-thread translation cache; registered as a PTE hook so
        /// eviction and injection-revoke shoot it down. Lives
        /// here (threads are unique_ptr-stable) so its address can sit
        /// in the VMS hook list for the machine's lifetime.
        vm::Tlb tlb;
        /// Access block the pump fills and drains; sized to
        /// MachineConfig::quantum once in build() so the steady-state
        /// loop never allocates.
        std::vector<workloads::Access> block;
        /// Drain cursor into block: [blockPos, blockLen) is buffered
        /// but not yet executed. A refill that comes back short marks
        /// end-of-stream (the nextBatch contract).
        std::size_t blockPos = 0;
        std::size_t blockLen = 0;
    };

    void build();

    /**
     * The run loop: a two-level scheduler. Application threads are NOT
     * events — the pump picks the thread with the smallest local time
     * and drains its access block until the runner-up horizon (the
     * next other thread or pending event) is reached, dispatching
     * queued events only when one is due no later than every thread.
     * Interleaving is therefore still globally time-ordered at access
     * granularity (identical yield points to the historical design
     * where each thread timeslice was an event), but the per-access
     * schedule/dispatch round trip through the event heap — one event
     * per access in the thread ping-pong steady state — is gone.
     *
     * The drain segment is fused into the loop body rather than split
     * into a step() helper: two equally-paced threads yield to each
     * other after every access, so per-segment machinery is per-access
     * machinery. Threads are addressed by index, never by a reference
     * held across segments, so container growth between runs can never
     * leave a dangling Thread reference (Thread objects themselves are
     * unique_ptr-stable for the TLB hook registration).
     */
    void pump();
    void maybeCheck();

    MachineConfig cfg_;
    std::vector<workloads::Workload> apps_;

    sim::EventQueue eq_;
    std::unique_ptr<mem::Dram> dram_;
    std::unique_ptr<mem::MemCtrl> mc_;
    std::unique_ptr<mem::Llc> llc_;
    std::unique_ptr<net::RdmaFabric> fabric_;
    std::unique_ptr<remote::RemoteNode> node_;
    std::unique_ptr<remote::SwapBackend> backend_;
    std::unique_ptr<vm::Vms> vms_;
    std::unique_ptr<prefetch::Prefetcher> prefetcher_;
    std::unique_ptr<core::HoppSystem> hoppSystem_;
    prefetch::PrefetchStats stats_;
    obs::Tracer tracer_;
    std::unique_ptr<trace::TraceWriter> traceWriter_;
    std::unique_ptr<TraceRecorder> recorder_;
    bool traceRecordOk_ = true;
    std::unique_ptr<obs::MetricsSampler> metrics_;
    obs::FaultLatency latency_;
    std::vector<std::unique_ptr<Thread>> threads_;
    bool built_ = false;
    check::EventQueueWatch eqWatch_;
    std::uint64_t lastCheckAt_ = 0;
};

/**
 * Convenience: run one workload under one system and memory ratio.
 */
RunResult runOne(const std::string &workload, SystemKind system,
                 double local_ratio,
                 const workloads::WorkloadScale &scale = {},
                 const MachineConfig &base = {});

/** Normalized performance CT_local / CT_system for one workload. */
double normalizedPerformance(Tick ct_local, Tick ct_system);

} // namespace hopp::runner


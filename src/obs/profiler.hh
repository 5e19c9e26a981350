/**
 * @file
 * Host-side self-profiler: scoped, hierarchical wall-time attribution
 * for the simulator itself.
 *
 * The flight recorder (tracer.hh) observes *simulated* time; this
 * profiler observes where *host* wall time goes while producing it —
 * workload generation vs `Vms::access` vs the radix walk vs the LLC
 * vs event dispatch — the breakdown that host-speed work on the
 * access path needs to be steered by data.
 *
 * Model
 *  - A fixed `Zone` enum names the instrumented regions; `HOPP_PROF`
 *    drops a `ScopedZone` RAII guard that stamps `steady_clock` on
 *    entry and exit.
 *  - Each host thread owns a preallocated flat `ZoneTable` (one slot
 *    per zone plus a fixed-depth zone stack — no allocation on the
 *    record path). Tables register themselves with a process-wide
 *    registry; when a thread exits (SweepPool workers), its table is
 *    merged into a retired accumulator so no samples are lost.
 *  - `collect()` merges live + retired tables into a `Report`;
 *    `toJson(report)` renders the deterministic-ordered JSON that
 *    `hopp-run --profile-out` and `bench_simcore` emit and
 *    `hopp-report` consumes.
 *  - Re-entrant zones (e.g. a zone entered again underneath itself)
 *    count every entry but only the outermost activation accumulates
 *    wall time, so totals never double-count.
 *
 * Host/sim firewall
 *  - Profiler state is host-only, like the software TLB's host
 *    counters: nothing here feeds back into simulated time, stats,
 *    traces, or metrics. A byte-identity ctest
 *    (hopp_run.profiler_on_off_identical) holds run/trace/metrics/
 *    stats artifacts identical profiler-on vs profiler-off.
 *  - This header and profiler.cc are the ONLY sanctioned wall-clock
 *    site in src/ outside runner/sweep*: `hopp_lint` bans
 *    steady_clock/system_clock everywhere else in the tree.
 *  - When disabled (the constructed state), `ScopedZone` is an
 *    unarmed no-op: one predictable branch, no clock read. Defining
 *    HOPP_PROFILER_DISABLED compiles `HOPP_PROF` away entirely.
 */

#pragma once

#include <array>
// Wall-clock sanctioned here only: hopp_lint carves out obs/profiler.*
// as the one component whose *purpose* is host time.
#include <chrono>
#include <cstdint>
#include <mutex> // hopp-lint: allow(thread-primitive) table registry below
#include <string>
#include <vector>

namespace hopp::obs::prof
{

/**
 * Instrumented host-time regions. `Run` wraps the whole
 * `Machine::run()`; every other zone nests somewhere beneath it, so
 * `sum(self of all zones but Run) / total(Run)` is the attributed
 * fraction the bench acceptance gate checks.
 */
enum class Zone : std::uint8_t {
    Run,            //!< Machine::run() end to end (build/sim/collect)
    AccessPump,     //!< Machine::pump() two-level scheduler loop
    EventDispatch,  //!< EventQueue::runOne body
    WorkloadGen,    //!< generator next()/nextBatch() block refills
    VmsAccess,      //!< Vms::access/accessBatch (TLB + fast path)
    RadixWalk,      //!< page-table walk inside Vms::accessSlow
    FaultPath,      //!< non-resident handling in Vms::accessSlow
    Llc,            //!< Llc::access tag probe + fill
    Reclaim,        //!< Vms::evictOne / kswapd passes
    LinkTransfer,   //!< Link::transfer serialization
    HoppDrain,      //!< HoppSystem::drainRing (trainer feed)
    InvariantCheck, //!< check:: validators from Machine::maybeCheck
    MetricsSample,  //!< MetricsSampler gauge sweep
    MachineBuild,   //!< Machine::build component construction
    Count
};

inline constexpr unsigned zoneCount = static_cast<unsigned>(Zone::Count);

/** Stable lower-snake name of @p z (JSON keys, report rows). */
const char *zoneName(Zone z);

/** Per-zone accumulator. All times are host nanoseconds. */
struct ZoneSlot
{
    std::uint64_t totalNs = 0; //!< inclusive, outermost activations
    std::uint64_t childNs = 0; //!< time attributed to nested zones
    std::uint64_t count = 0;   //!< entries (including re-entrant ones)
    std::uint32_t active = 0;  //!< live activation depth (transient)
};

namespace detail
{

/** Runtime switch. Off by default; flipped by prof::enable(). */
inline bool g_enabled = false;

/** Host monotonic now, in ns. The profiler's single clock source. */
inline std::uint64_t
nowNs()
{
    // Reading the host clock is this component's entire job.
    // hopp-analyze: allow(hotpath-clock)
    const auto t = std::chrono::steady_clock::now();
    // hopp-analyze: allow(hotpath-clock) unit conversion of that read
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        t.time_since_epoch());
    return static_cast<std::uint64_t>(ns.count());
}

} // namespace detail

/** True while profiling is on (hot-path guard for ScopedZone). */
inline bool
enabled()
{
    return detail::g_enabled;
}

/**
 * Per-thread flat zone table: one ZoneSlot per zone and a fixed-depth
 * stack of open zones. Fully preallocated — entering/exiting a zone
 * touches only this struct and the clock.
 */
class ZoneTable
{
  public:
    inline ZoneTable();
    inline ~ZoneTable();

    ZoneTable(const ZoneTable &) = delete;
    ZoneTable &operator=(const ZoneTable &) = delete;

    /** Open-zone state a ScopedZone carries between enter and exit. */
    struct Frame
    {
        std::uint64_t startNs = 0;
        Zone zone = Zone::Count;
        Zone parent = Zone::Count;
        bool outer = false;
    };

    /** Enter @p z: push it on the zone stack and stamp the clock. */
    Frame
    enter(Zone z)
    {
        Frame f;
        f.zone = z;
        ZoneSlot &s = slots_[static_cast<unsigned>(z)];
        f.outer = s.active++ == 0;
        f.parent = depth_ > 0 && depth_ <= kMaxDepth ? stack_[depth_ - 1]
                                                     : Zone::Count;
        if (depth_ < kMaxDepth)
            stack_[depth_] = z;
        ++depth_;
        // The profiler is the sanctioned wall-clock consumer; reading
        // it here is the zone's entire job.
        // hopp-analyze: allow(hotpath-clock)
        f.startNs = detail::nowNs();
        return f;
    }

    /** Close the frame @p f: accumulate elapsed ns into its slot. */
    void
    exit(const Frame &f)
    {
        // hopp-analyze: allow(hotpath-clock) paired exit stamp
        const std::uint64_t ns = detail::nowNs() - f.startNs;
        --depth_;
        ZoneSlot &s = slots_[static_cast<unsigned>(f.zone)];
        --s.active;
        ++s.count;
        if (f.outer) {
            s.totalNs += ns;
            if (f.parent != Zone::Count && f.parent != f.zone)
                slots_[static_cast<unsigned>(f.parent)].childNs += ns;
        }
    }

    /** Slot accumulators, indexed by Zone. */
    const std::array<ZoneSlot, zoneCount> &slots() const { return slots_; }

    /** Zero all accumulators (open-zone depth is preserved). */
    void
    clearCounts()
    {
        for (ZoneSlot &s : slots_) {
            s.totalNs = 0;
            s.childNs = 0;
            s.count = 0;
        }
    }

  private:
    static constexpr unsigned kMaxDepth = 64;

    std::array<ZoneSlot, zoneCount> slots_{};
    std::array<Zone, kMaxDepth> stack_{};
    unsigned depth_ = 0;
};

namespace detail
{

/**
 * Process-wide table registry. Touched only at thread start/exit and
 * at collect/reset time — never on the zone record path — so a mutex
 * is fine (and TSan-visible).
 */
struct Registry
{
    Registry() { live.reserve(64); }

    // Registration is host-thread lifecycle, not simulation.
    // hopp-lint: allow(thread-primitive)
    std::mutex mu;
    std::vector<ZoneTable *> live;
    std::array<ZoneSlot, zoneCount> retired{};
};

/**
 * The one registry. A function-local static in an inline function is
 * a single instance across every TU, which keeps the record path
 * header-only: lower layers that drop HOPP_PROF zones need no link
 * edge to hopp_obs.
 */
inline Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace detail

// Tables register on construction (thread start) and fold their
// counts into the retired accumulator on destruction (thread exit),
// so SweepPool workers that die before collect() still report.
inline ZoneTable::ZoneTable()
{
    detail::Registry &reg = detail::registry();
    // hopp-lint: allow(thread-primitive) once per host thread
    const std::lock_guard<std::mutex> lock(reg.mu);
    // Registration is thread-start init, not the record path.
    // hopp-analyze: allow(hotpath-alloc)
    reg.live.push_back(this);
}

inline ZoneTable::~ZoneTable()
{
    detail::Registry &reg = detail::registry();
    // hopp-lint: allow(thread-primitive) once per host thread
    const std::lock_guard<std::mutex> lock(reg.mu);
    for (unsigned z = 0; z < zoneCount; ++z) {
        reg.retired[z].totalNs += slots_[z].totalNs;
        reg.retired[z].childNs += slots_[z].childNs;
        reg.retired[z].count += slots_[z].count;
    }
    for (std::size_t i = 0; i < reg.live.size(); ++i) {
        if (reg.live[i] == this) {
            reg.live.erase(reg.live.begin() +
                           static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
}

/** This thread's zone table (created and registered on first use). */
inline ZoneTable &
threadTable()
{
    thread_local ZoneTable table;
    return table;
}

/**
 * RAII zone guard. Unarmed (no clock read, no table touch) when the
 * profiler is disabled or @p when is false.
 */
class ScopedZone
{
  public:
    explicit ScopedZone(Zone z) : ScopedZone(z, true) {}

    ScopedZone(Zone z, bool when)
    {
        if (enabled() && when) {
            table_ = &threadTable();
            frame_ = table_->enter(z);
        }
    }

    ~ScopedZone()
    {
        if (table_ != nullptr)
            table_->exit(frame_);
    }

    ScopedZone(const ScopedZone &) = delete;
    ScopedZone &operator=(const ScopedZone &) = delete;

  private:
    ZoneTable *table_ = nullptr;
    ZoneTable::Frame frame_;
};

/** Merged view of every table, produced by collect(). */
struct Report
{
    std::array<ZoneSlot, zoneCount> zones{};

    /** Inclusive wall time of the Run zone. */
    std::uint64_t
    wallNs() const
    {
        return zones[static_cast<unsigned>(Zone::Run)].totalNs;
    }

    /** Self (exclusive) time of @p z: total minus nested zones. */
    std::uint64_t
    selfNs(Zone z) const
    {
        const ZoneSlot &s = zones[static_cast<unsigned>(z)];
        return s.totalNs - (s.childNs < s.totalNs ? s.childNs : s.totalNs);
    }

    /** Sum of self time over every zone except Run. */
    std::uint64_t attributedNs() const;

    /** attributedNs() / wallNs(); 0 when nothing ran. */
    double attributedFraction() const;
};

/** Turn profiling on or off (affects ScopedZone arming only). */
void enable(bool on = true);

/** Merge all live and retired tables into one report. */
Report collect();

/** Zero every accumulator, live and retired. */
void reset();

/**
 * Render @p r as the deterministic-ordered `hopp-profile-v1` JSON
 * document (zones in enum order, fixed key order).
 */
std::string toJson(const Report &r);

} // namespace hopp::obs::prof

// Token pasting so several HOPP_PROF statements can share a scope.
#define HOPP_PROF_CAT2(a, b) a##b
#define HOPP_PROF_CAT(a, b) HOPP_PROF_CAT2(a, b)

#if defined(HOPP_PROFILER_DISABLED)
#define HOPP_PROF(zone) ((void)0)
#define HOPP_PROF_IF(zone, when) ((void)0)
#else
/** Attribute the enclosing scope's host wall time to Zone::zone. */
#define HOPP_PROF(zone)                                                      \
    ::hopp::obs::prof::ScopedZone HOPP_PROF_CAT(hoppProfScope_, __LINE__)(   \
        ::hopp::obs::prof::Zone::zone)
/** As HOPP_PROF, but armed only when @p when is true. */
#define HOPP_PROF_IF(zone, when)                                             \
    ::hopp::obs::prof::ScopedZone HOPP_PROF_CAT(hoppProfScope_, __LINE__)(   \
        ::hopp::obs::prof::Zone::zone, (when))
#endif

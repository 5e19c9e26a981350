/**
 * @file
 * Always-on black-box flight ring: the last N significant simulator
 * events (faults, reclaim decisions, prefetch injections, link
 * completions, invariant-check entries), recorded unconditionally at
 * ~ns cost and dumped as deterministic JSONL when something dies.
 *
 * The tracer (tracer.hh) is opt-in and buffers everything; the black
 * box is the opposite trade: always recording, fixed memory, and only
 * ever *read* post-mortem. It turns "sweep job 137 of 16k panicked"
 * into an actionable last-1024-events report.
 *
 * Mechanics
 *  - One `BlackBox` per host thread (`obs::blackbox()`), so SweepPool
 *    workers never contend and each crash dump is exactly the dying
 *    run's tail. `Machine::run()` clears the calling thread's ring at
 *    start, so a dump spans one run.
 *  - `record()` is a handful of stores into a preallocated
 *    `std::array` ring — no allocation, no branches beyond the index
 *    wrap — cheap enough to stay on even in Release sweeps.
 *  - Dump paths: `check::` invariant failures and DCHECK/hopp_assert
 *    aborts funnel through `hopp::detail::terminateWithMessage`,
 *    where the crash hook installed by `blackbox()` writes the ring
 *    to `$HOPP_BLACKBOX_OUT` (or stderr); `Machine::dumpForensics()`
 *    writes it on demand.
 *  - The JSONL lines are Chrome-trace instant events, so a dump opens
 *    with `hopp_trace --summary` and parses with `obs/json.hh`.
 *
 * Determinism: entries carry simulated ticks and deterministic
 * payloads only — a dump of the same (config, seed) run is
 * byte-identical. No wall-clock anywhere.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace hopp::obs
{

/** What a black-box entry records. */
enum class BbKind : std::uint8_t {
    FaultCold,       //!< first touch of an untouched page
    FaultSwapHit,    //!< fault served from the swap cache
    FaultWait,       //!< fault joined an in-flight remote read
    FaultRemote,     //!< full remote demand read
    Evict,           //!< reclaim victim written back / dropped
    PrefetchIssue,   //!< prefetch read issued to the backend
    PrefetchInject,  //!< prefetched page injected/adopted into a VMS
    PrefetchFill,    //!< prefetch completion landed
    LinkTransfer,    //!< link serialization completed
    HoppDrain,       //!< HPD ring drained into the trainer
    InvariantCheck,  //!< check:: pass entered (last-known-good marker)
    InvariantViolation, //!< check:: validator recorded a failure
};

/** Stable dotted name of @p k (JSONL event names). */
inline const char *
bbKindName(BbKind k)
{
    switch (k) {
    case BbKind::FaultCold:
        return "fault.cold";
    case BbKind::FaultSwapHit:
        return "fault.swap_hit";
    case BbKind::FaultWait:
        return "fault.wait";
    case BbKind::FaultRemote:
        return "fault.remote";
    case BbKind::Evict:
        return "reclaim.evict";
    case BbKind::PrefetchIssue:
        return "prefetch.issue";
    case BbKind::PrefetchInject:
        return "prefetch.inject";
    case BbKind::PrefetchFill:
        return "prefetch.fill";
    case BbKind::LinkTransfer:
        return "link.transfer";
    case BbKind::HoppDrain:
        return "hopp.drain";
    case BbKind::InvariantCheck:
        return "check.enter";
    case BbKind::InvariantViolation:
        return "check.violation";
    }
    return "unknown";
}

/** One ring entry: a timestamped kind plus two payload words. */
struct BlackBoxEvent
{
    Tick ts;               //!< simulated time of the event
    std::uint64_t seq = 0; //!< global record index (never wraps)
    std::uint64_t a = 0;   //!< payload (vpn/frame/bytes/… per kind)
    std::uint64_t b = 0;   //!< payload (completion tick/count/…)
    std::uint32_t pid = 0; //!< owning process, 0 when machine-level
    BbKind kind = BbKind::InvariantCheck;
};

/**
 * Fixed-size, allocation-free ring of the last `capacity` events.
 * All state is inline; recording never touches the allocator.
 */
class BlackBox
{
  public:
    static constexpr std::size_t capacity = 1024;

    /** Append one entry, overwriting the oldest once full. */
    void
    record(BbKind kind, Tick ts, std::uint32_t pid, std::uint64_t a,
           std::uint64_t b)
    {
        BlackBoxEvent &e = ring_[seq_ % capacity];
        e.ts = ts;
        e.seq = seq_;
        e.a = a;
        e.b = b;
        e.pid = pid;
        e.kind = kind;
        ++seq_;
    }

    /** Entries currently held (≤ capacity). */
    std::size_t
    size() const
    {
        return seq_ < capacity ? static_cast<std::size_t>(seq_) : capacity;
    }

    /** Total entries ever recorded (dump header, wrap detection). */
    std::uint64_t totalRecorded() const { return seq_; }

    /** Entry @p i in oldest-to-newest order; i < size(). */
    const BlackBoxEvent &
    event(std::size_t i) const
    {
        const std::uint64_t oldest = seq_ - size();
        return ring_[(oldest + i) % capacity];
    }

    /** Forget everything (start of a Machine run). */
    void clear() { seq_ = 0; }

    /**
     * Render the ring as JSONL of Chrome-trace instant events (one
     * object per line, fixed key order) — readable by `hopp_trace
     * --summary` and `obs/json.hh`.
     *
     * Lines are emitted in (tick, seq) order, not append order: some
     * records legitimately carry scheduled ticks ahead of the context
     * that recorded them (a serialized prefetch batch stamps each
     * issue tick, a fill stamps its completion), and the batched pump
     * lets threads record fault entries ahead of the event queue's
     * clock, so append order is causal but not time-ordered. Sorting
     * at dump time keeps the recorded truth while satisfying the
     * trace contract (`hopp_trace` rejects backwards timestamps);
     * `seq` breaks ties so equal-tick lines keep record order and the
     * dump stays deterministic.
     */
    std::string
    toJsonl() const
    {
        std::array<const BlackBoxEvent *, capacity> order;
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            order[i] = &event(i);
        std::sort(order.begin(), order.begin() + n,
                  [](const BlackBoxEvent *x, const BlackBoxEvent *y) {
                      if (x->ts != y->ts)
                          return x->ts < y->ts;
                      return x->seq < y->seq;
                  });

        std::string out;
        out.reserve(n * 128);
        char buf[192];
        for (std::size_t i = 0; i < n; ++i) {
            const BlackBoxEvent &e = *order[i];
            // Unit-change boundary: ticks leave the tagged domain
            // for the trace file. hopp-analyze: allow(raw, raw-int-addr)
            const unsigned long long tick = e.ts.raw();
            std::snprintf(
                buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"bb\",\"ph\":\"i\","
                "\"ts\":%llu.%03llu,\"pid\":0,\"tid\":%u,\"s\":\"t\","
                "\"args\":{\"seq\":%llu,\"tick\":%llu,\"a\":%llu,"
                "\"b\":%llu}}\n",
                bbKindName(e.kind), tick / 1000, tick % 1000, e.pid,
                static_cast<unsigned long long>(e.seq), tick,
                static_cast<unsigned long long>(e.a),
                static_cast<unsigned long long>(e.b));
            out += buf;
        }
        return out;
    }

  private:
    std::array<BlackBoxEvent, capacity> ring_{};
    std::uint64_t seq_ = 0;
};

namespace detail
{

/** The calling thread's ring (defined here for the hook below). */
inline BlackBox &
threadRing()
{
    thread_local BlackBox ring;
    return ring;
}

/**
 * Crash-hook body: write the dying thread's ring to the path named by
 * HOPP_BLACKBOX_OUT, or to stderr when unset. Runs after the panic
 * message prints and before abort(); see logging.cc.
 */
inline void
blackBoxCrashDump()
{
    const BlackBox &bb = threadRing();
    if (bb.size() == 0)
        return;
    const std::string jsonl = bb.toJsonl();
    const char *path = std::getenv("HOPP_BLACKBOX_OUT");
    if (path != nullptr && *path != '\0') {
        std::FILE *f = std::fopen(path, "w");
        if (f != nullptr) {
            std::fwrite(jsonl.data(), 1, jsonl.size(), f);
            std::fclose(f);
            std::fprintf(stderr,
                         "[blackbox] wrote last %zu events to %s\n",
                         bb.size(), path);
            return;
        }
        std::fprintf(stderr, "[blackbox] cannot open %s; dumping here\n",
                     path);
    }
    std::fprintf(stderr, "[blackbox] last %zu events:\n%s", bb.size(),
                 jsonl.c_str());
}

} // namespace detail

/**
 * The calling thread's black box. First use on a thread installs the
 * process-wide crash hook so panics dump the ring automatically.
 */
inline BlackBox &
blackbox()
{
    thread_local bool hooked =
        (hopp::detail::setCrashHook(&detail::blackBoxCrashDump), true);
    (void)hooked;
    return detail::threadRing();
}

} // namespace hopp::obs

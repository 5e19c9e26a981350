/**
 * @file
 * Flight-recorder core: an in-memory structured event buffer every
 * simulated component can append to through a nullable `Tracer*`
 * handle.
 *
 * Events follow the Chrome trace_event model so a recorded run opens
 * directly in Perfetto / chrome://tracing:
 *
 *   B/E  duration begin/end (genuinely nested spans, e.g. HPD drain)
 *   X    complete span with explicit duration (fault handling, link
 *        transfers — spans whose begin and end are known at once)
 *   i    instant marker
 *   C    counter sample (queue depths, miss-stream counts)
 *   b/e  async span matched by id (prefetch issue -> fill, which
 *        overlap freely across pages)
 *
 * All timestamps are simulator ticks (ns since simulation start) —
 * never wall-clock time — so traces are byte-deterministic across
 * runs; `hopp_analyze` bans std::chrono in src/obs to keep it that way.
 *
 * Zero-cost-when-disabled: components hold a `Tracer*` that defaults
 * to nullptr and test it inline before every record call; the Tracer
 * itself early-returns (and allocates nothing) while disabled, so an
 * accidentally-threaded handle on a disabled tracer is still free.
 *
 * Event names and categories are `const char*` and must point at
 * string literals (the buffer stores the pointers, not copies).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hopp::obs
{

/**
 * Stable thread/track ids for the Perfetto timeline. Application
 * fault spans run on the faulting process' own track (tid = pid);
 * machine-level components use ids far above any 16-bit-range pid
 * count a machine configures in practice.
 */
namespace track
{
inline constexpr std::uint32_t machine = 0;    //!< whole-run span
inline constexpr std::uint32_t sim = 60000;    //!< event queue
inline constexpr std::uint32_t mem = 60001;    //!< MC miss stream
inline constexpr std::uint32_t netRead = 60002;
inline constexpr std::uint32_t netWrite = 60003;
inline constexpr std::uint32_t hopp = 60004;   //!< software plane
inline constexpr std::uint32_t kswapd = 60005; //!< background reclaim

/** Track of a process' fault spans. */
inline std::uint32_t
ofPid(Pid pid)
{
    // Track-id packing for the trace file. hopp-analyze: allow(raw)
    return pid.raw();
}
} // namespace track

/** One recorded trace event (16-byte-ish POD, buffered in order). */
struct TraceEvent
{
    Tick ts;                  //!< simulated time of the event
    Duration dur = 0;         //!< span length ('X' only)
    std::uint64_t value = 0;  //!< counter value ('C') or async id (b/e)
    std::uint64_t seq = 0;    //!< record order, tie-break within a tick
    const char *cat = "";     //!< category (component), string literal
    const char *name = "";    //!< event name, string literal
    std::uint32_t tid = 0;    //!< timeline track
    char ph = 'i';            //!< trace_event phase
};

/**
 * The flight recorder: appends events while enabled, does nothing
 * (not even an allocation) while disabled.
 */
class Tracer
{
  public:
    /**
     * Turn recording on (or off). Off is the constructed state. The
     * first enable reserves the event buffer up front so steady-state
     * recording does not allocate on the simulator hot path; growth
     * past the reservation is amortized doubling.
     */
    void
    enable(bool on = true)
    {
        enabled_ = on;
        if (on && events_.capacity() == 0)
            events_.reserve(initialCapacity);
    }

    /** True while recording. */
    bool enabled() const { return enabled_; }

    /** Begin a nested duration span on @p tid. */
    void
    begin(const char *cat, const char *name, Tick ts,
          std::uint32_t tid = track::machine)
    {
        push('B', cat, name, ts, 0, 0, tid);
    }

    /** End the innermost open span with the same name on @p tid. */
    void
    end(const char *cat, const char *name, Tick ts,
        std::uint32_t tid = track::machine)
    {
        push('E', cat, name, ts, 0, 0, tid);
    }

    /** Record a complete span: [ts, ts + dur) on @p tid. */
    void
    complete(const char *cat, const char *name, Tick ts, Duration dur,
             std::uint32_t tid = track::machine)
    {
        push('X', cat, name, ts, dur, 0, tid);
    }

    /** Record an instant marker. */
    void
    instant(const char *cat, const char *name, Tick ts,
            std::uint32_t tid = track::machine)
    {
        push('i', cat, name, ts, 0, 0, tid);
    }

    /** Record a counter sample. */
    void
    counter(const char *cat, const char *name, Tick ts,
            std::uint64_t value)
    {
        push('C', cat, name, ts, 0, value, track::machine);
    }

    /** Begin an async span matched to its end by @p id. */
    void
    asyncBegin(const char *cat, const char *name, Tick ts,
               std::uint64_t id)
    {
        push('b', cat, name, ts, 0, id, track::machine);
    }

    /** End the async span opened with the same (cat, name, id). */
    void
    asyncEnd(const char *cat, const char *name, Tick ts,
             std::uint64_t id)
    {
        push('e', cat, name, ts, 0, id, track::machine);
    }

    /**
     * Deterministic id source for async spans (monotonic, starts at
     * 1; 0 is never returned so callers can use it as "no span").
     */
    std::uint64_t nextAsyncId() { return ++asyncIds_; }

    /** Recorded events in record order (unsorted). */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Number of recorded events. */
    std::size_t size() const { return events_.size(); }

    /** Buffer capacity, exposed for the zero-allocation test. */
    std::size_t bufferCapacity() const { return events_.capacity(); }

    /**
     * Events sorted by (ts, seq). Threads record fault spans at their
     * local time, which can run ahead of the event queue within a
     * quantum, so record order is not globally time-ordered; the
     * stable (ts, seq) sort restores the monotonic timeline the trace
     * format wants, deterministically.
     */
    std::vector<TraceEvent>
    sorted() const
    {
        std::vector<TraceEvent> out = events_;
        std::sort(out.begin(), out.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      if (a.ts != b.ts)
                          return a.ts < b.ts;
                      return a.seq < b.seq;
                  });
        return out;
    }

    /** Drop all recorded events (keeps enabled state and ids). */
    void clear() { events_.clear(); }

  private:
    /// First-enable reservation: steady runs stay within it, so the
    /// per-event push below never reallocates on the hot path.
    static constexpr std::size_t initialCapacity = 4096;

    void
    push(char ph, const char *cat, const char *name, Tick ts,
         Duration dur, std::uint64_t value, std::uint32_t tid)
    {
        if (!enabled_)
            return;
        TraceEvent e;
        e.ts = ts;
        e.dur = dur;
        e.value = value;
        e.seq = seq_++;
        e.cat = cat;
        e.name = name;
        e.tid = tid;
        e.ph = ph;
        events_.push_back(e);
    }

    std::vector<TraceEvent> events_;
    std::uint64_t seq_ = 0;
    std::uint64_t asyncIds_ = 0;
    bool enabled_ = false;
};

} // namespace hopp::obs


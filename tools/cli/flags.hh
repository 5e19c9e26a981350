/**
 * @file
 * Range checks for the numeric flags hopp-run, hopp-sweep, hopp-replay
 * and hopp_trace share (--tiers only hopp-run and hopp-replay take,
 * --seed only hopp-run and hopp-sweep, --jobs only hopp-sweep and
 * hopp-replay, --depth, --check and --metrics-period only hopp-run,
 * --threshold, --pid and --tick-per-instr only hopp-replay, --top only
 * hopp_trace). Each value is parsed whole, by parseReal() or
 * parseWhole(), so trailing garbage fails its check rather than
 * leaving a numeric prefix. Each CLI calls checkFlags() once its
 * arguments are parsed and before it builds anything: past that point
 * an out-of-range value surfaces as an uncaught exception, a deep
 * assertion or a degenerate run. Unknown --workload and --system names
 * are rejected the same way, through rejectName().
 */

#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace hopp::cli
{

/** The checked flags' values; the defaults are in range. */
struct FlagValues
{
    std::vector<double> ratios = {0.5};    //!< --ratio (each), via parseReal()
    double scale = 1.0;                    //!< --scale, likewise
    double iterations = 1.0;               //!< --iterations, likewise
    unsigned channels = 1;                 //!< --channels, via parseWhole()
    unsigned depth = 1;                    //!< --depth, likewise
    std::vector<unsigned> tiers = {};      //!< --tiers, likewise
    std::uint64_t metricsPeriod = 1;       //!< --metrics-period, likewise
    std::vector<unsigned> thresholds = {}; //!< --threshold, likewise
    std::uint64_t pid = 1;                 //!< --pid, likewise
    Duration tickPerInstr = 1;             //!< --tick-per-instr, likewise
    // Raw parseWhole() results: nullopt is the bad value (and 0 for
    // --top, which must list something).
    std::optional<std::uint64_t> seed = 0;  //!< --seed
    std::optional<std::uint64_t> check = 0; //!< --check (0 = off)
    std::optional<unsigned> jobs = 1;       //!< --jobs (0 = all cores)
    std::optional<unsigned> top = 1;        //!< --top
};

/**
 * A whole-number flag's value: the number when all of @p text is a
 * whole decimal number that fits T, else nullopt. A flag whose 0 is
 * out of range takes value_or(0), so its range check covers garbage
 * too; checkFlags() rejects nullopt for the rest.
 */
template <typename T>
inline std::optional<T>
parseWhole(const char *text)
{
    T value = 0;
    const char *end = text + std::strlen(text);
    auto [stop, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || stop != end)
        return std::nullopt;
    return value;
}

/**
 * A real-valued flag's value: the number when all of @p text is a
 * decimal number, else NaN, which every checkFlags() comparison
 * rejects.
 */
inline double
parseReal(const char *text)
{
    double value = 0;
    const char *end = text + std::strlen(text);
    auto [stop, ec] = std::from_chars(text, end, value);
    return ec == std::errc{} && stop == end
               ? value
               : std::numeric_limits<double>::quiet_NaN();
}

/**
 * 0 when every flag is in range. Otherwise print one stderr line
 * naming the first bad flag and return 2, the usage exit status.
 */
inline int
checkFlags(const char *tool, const FlagValues &v)
{
    const char *why = nullptr;
    for (double r : v.ratios)
        if (!why && !(r > 0.0 && r <= 1.0))
            why = "--ratio must be a number in (0, 1]";
    if (!why && !(v.scale > 0.0))
        why = "--scale must be a number > 0";
    if (!why && !(v.iterations > 0.0))
        why = "--iterations must be a number > 0";
    if (!why && !std::has_single_bit(v.channels))
        why = "--channels must be a power of two (1, 2, 4, ...)";
    if (!why && !(v.depth >= 1 && v.depth <= 1024))
        why = "--depth must be a whole number in 1..1024";
    for (unsigned t : v.tiers)
        if (!why && !(t >= 1 && t <= 15))
            why = "--tiers must be a whole number in 1..15 "
                  "(SSP=1, LSP=2, RSP=4, Markov=8)";
    if (!why && v.metricsPeriod < 1)
        why = "--metrics-period must be a whole number of ns >= 1";
    for (unsigned t : v.thresholds)
        if (!why && t < 1)
            why = "--threshold must be a whole number >= 1";
    if (!why && !(v.pid >= 1 && v.pid <= 0xFFFF))
        why = "--pid must be a whole number in 1..65535 "
              "(the RPT's 16-bit field)";
    if (!why && v.tickPerInstr < 1)
        why = "--tick-per-instr must be a whole number of ns >= 1";
    if (!why && !v.seed)
        why = "--seed must be a whole number";
    if (!why && !v.check)
        why = "--check must be a whole number of events (0 = off)";
    if (!why && !v.jobs)
        why = "--jobs must be a whole number (0 = all cores)";
    if (!why && !(v.top && *v.top >= 1))
        why = "--top must be a whole number >= 1";
    if (!why)
        return 0;
    std::fprintf(stderr, "%s: %s\n", tool, why);
    return 2;
}

/**
 * Reject @p value for a name-valued @p flag (--workload, --system)
 * that names nothing: one stderr line, and 2, as checkFlags() does.
 */
inline int
rejectName(const char *tool, const char *flag, const char *value)
{
    std::fprintf(stderr, "%s: unknown %s '%s'\n", tool, flag, value);
    return 2;
}

} // namespace hopp::cli

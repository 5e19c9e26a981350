/**
 * @file
 * Range checks for the numeric flags hopp-run, hopp-sweep and
 * hopp-replay share. Each CLI calls checkFlags() once its arguments
 * are parsed and before it builds anything: past that point an
 * out-of-range value surfaces as an uncaught exception, a deep
 * assertion or a degenerate run.
 */

#pragma once

#include <bit>
#include <cstdio>
#include <vector>

namespace hopp::cli
{

/** The checked flags' values; the defaults are in range. */
struct FlagValues
{
    std::vector<double> ratios = {0.5}; //!< --ratio (each one given)
    double scale = 1.0;                 //!< --scale
    double iterations = 1.0;            //!< --iterations
    unsigned channels = 1;              //!< --channels
};

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
            why = "--ratio must be in (0, 1]";
    if (!why && !(v.scale > 0.0))
        why = "--scale must be > 0";
    if (!why && !(v.iterations > 0.0))
        why = "--iterations must be > 0";
    if (!why && !std::has_single_bit(v.channels))
        why = "--channels must be a power of two (1, 2, 4, ...)";
    if (!why)
        return 0;
    std::fprintf(stderr, "%s: %s\n", tool, why);
    return 2;
}

} // namespace hopp::cli

/**
 * @file
 * Range checks for the numeric flags hopp-run, hopp-sweep and
 * hopp-replay share (--tiers only hopp-run and hopp-replay take).
 * Each CLI calls checkFlags() once its arguments are parsed and
 * before it builds anything: past that point an out-of-range value
 * surfaces as an uncaught exception, a deep assertion or a
 * degenerate run.
 */

#pragma once

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
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
    std::vector<unsigned> tiers = {};   //!< --tiers, via parseTiers()
};

/**
 * A --tiers value: the mask when @p text is a whole decimal number,
 * else 0, which checkFlags() rejects like any mask outside 1..15.
 */
inline unsigned
parseTiers(const char *text)
{
    unsigned mask = 0;
    const char *end = text + std::strlen(text);
    auto [stop, ec] = std::from_chars(text, end, mask);
    return ec == std::errc{} && stop == end ? mask : 0;
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
            why = "--ratio must be in (0, 1]";
    if (!why && !(v.scale > 0.0))
        why = "--scale must be > 0";
    if (!why && !(v.iterations > 0.0))
        why = "--iterations must be > 0";
    if (!why && !std::has_single_bit(v.channels))
        why = "--channels must be a power of two (1, 2, 4, ...)";
    for (unsigned t : v.tiers)
        if (!why && !(t >= 1 && t <= 15))
            why = "--tiers must be a whole number in 1..15 "
                  "(SSP=1, LSP=2, RSP=4, Markov=8)";
    if (!why)
        return 0;
    std::fprintf(stderr, "%s: %s\n", tool, why);
    return 2;
}

} // namespace hopp::cli

/**
 * @file
 * The hot-page record HoPP hardware writes to reserved DRAM (step 2 of
 * Figure 4): the PID+VPN combo produced by the RPT cache, plus the
 * shared/huge flags forwarded for software policy (§III-C) and the
 * extraction timestamp.
 */

#pragma once

#include "common/types.hh"
#include "trace/trace_buffer.hh"

namespace hopp::core
{

/** One hot page delivered from the MC to HoPP software. */
struct HotPage
{
    Pid pid;
    Vpn vpn;
    Ppn ppn;
    bool shared = false;
    bool huge = false;
    Tick time;
};

/** The reserved-DRAM hot-page area. */
using HotPageRing = trace::RingBuffer<HotPage>;

/** Bytes one packed hot-page record occupies in DRAM (64-bit combo) —
 *  a size, not an address. */
// hopp-analyze: allow(raw-int-addr)
inline constexpr std::uint64_t hotPageRecordBytes = 8;

} // namespace hopp::core


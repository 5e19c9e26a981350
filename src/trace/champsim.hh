/**
 * @file
 * ChampSim trace importer: converts the 64-byte ChampSim
 * trace_instr_format stream into a HoPP replay trace, so externally
 * captured traces (SPEC, GAP, ...) become first-class scenarios for
 * hopp-replay without writing a workload generator.
 *
 * ChampSim carries virtual data addresses and no page table, so the
 * importer synthesizes an identity mapping: each page's first touch
 * emits a PteSet with ppn == vpn before the access itself, which is
 * exactly what the RPT needs to reverse-translate hot frames. Ticks
 * are synthetic (a fixed per-instruction advance).
 */

#pragma once

#include <cstdint>
#include <string>

#include "trace/trace_file.hh"

namespace hopp::trace
{

/** Knobs for the ChampSim conversion. */
struct ChampSimOptions
{
    /** PID assigned to every synthesized mapping/access. */
    std::uint64_t pid = 1;

    /** Simulated nanoseconds per ChampSim instruction. */
    Duration tickPerInstr = 4;
};

/** What a conversion produced. */
struct ChampSimImport
{
    TraceIoStatus status = TraceIoStatus::Ok;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t pages = 0; //!< distinct pages (PteSet records)
};

/**
 * Convert the (decompressed) ChampSim trace at @p in_path into a
 * Delta-codec replay trace at @p out_path.
 */
ChampSimImport importChampSim(const std::string &in_path,
                              const std::string &out_path,
                              const ChampSimOptions &opt = {});

} // namespace hopp::trace

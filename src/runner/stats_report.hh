/**
 * @file
 * gem5-style statistics report: every component contributes its
 * counters to named StatSets, collated into one dump — the
 * machine-readable companion to the benchmark tables.
 */

#pragma once

#include <string>
#include <vector>

#include "stats/json_writer.hh"
#include "stats/stats.hh"

namespace hopp::runner
{

class Machine;

/**
 * Collect every component's statistics from a machine that has
 * finished running.
 */
std::vector<stats::StatSet> collectStats(Machine &machine);

/** Render the full stats dump as text ("name value # desc" lines). */
std::string statsReport(Machine &machine);

/**
 * Every collected value under its dotted name, in collection order:
 * the members of statsJson(), for documents that embed them.
 */
stats::JsonFields statsFields(Machine &machine);

/**
 * Render the full stats dump as one flat JSON object
 * (`{"llc.hits": 123, ...}`) through stats::flatJson(),
 * deterministically: names are unique and collection order is fixed.
 * Includes the fault-latency percentiles (`latency.<class>.p50_ns`
 * ...).
 */
std::string statsJson(Machine &machine);

} // namespace hopp::runner


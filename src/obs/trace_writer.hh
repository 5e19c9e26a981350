/**
 * @file
 * Serialization of a Tracer's event buffer into Chrome trace_event
 * JSON (Perfetto / chrome://tracing), the one trace format. Strings
 * are escaped by stats::appendJsonString.
 *
 * Timestamps: the trace_event format counts microseconds; ticks are
 * nanoseconds. The writer renders `ts`/`dur` as `<us>.<ns%1000>` with
 * pure integer arithmetic, so output is byte-deterministic and
 * sub-microsecond precision survives the unit change.
 */

#pragma once

#include <string>

#include "obs/tracer.hh"

namespace hopp::obs
{

/**
 * Render the full Chrome trace: a JSON object whose "traceEvents"
 * array holds every event sorted by (ts, seq).
 */
std::string toChromeJson(const Tracer &tracer);

/**
 * Write @p content to @p path (truncating).
 * @return false (with a message on stderr) when the file cannot be
 *         opened or written.
 */
bool writeFile(const std::string &path, const std::string &content);

} // namespace hopp::obs


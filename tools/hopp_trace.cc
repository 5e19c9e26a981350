/**
 * @file
 * hopp_trace: validate and summarize flight-recorder traces.
 *
 *   hopp_trace [--check] [--summary] [--top N] FILE
 *
 * FILE is a Chrome trace_event JSON document (hopp-run --trace-out).
 * A FILE that is not JSON gets one stderr line naming it and the
 * parse error, and exit 1.
 *
 * --check    validate only: JSON well-formedness, required fields,
 *            monotonic timestamps, balanced B/E and b/e spans.
 *            Exit 0 when clean, 1 with one error per line otherwise.
 * --summary  print event counts per phase and the top spans by total
 *            time (default when no mode flag is given; implies the
 *            validation too, since the numbers come from the same
 *            walk).
 * --top N    how many span names the summary lists (default 10,
 *            at least 1).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hh"
#include "obs/json.hh"
#include "obs/trace_check.hh"

using hopp::obs::TraceCheck;
namespace json = hopp::obs::json;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--check] [--summary] [--top N] FILE\n",
                 argv0);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "hopp_trace: cannot open '%s'\n",
                     path.c_str());
        return false;
    }
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

const char *
phaseName(char ph)
{
    switch (ph) {
      case 'B': return "span begin";
      case 'E': return "span end";
      case 'X': return "complete span";
      case 'i': return "instant";
      case 'C': return "counter";
      case 'b': return "async begin";
      case 'e': return "async end";
    }
    return "?";
}

void
printSummary(const TraceCheck &c, unsigned top)
{
    std::printf("events: %zu\n", c.events);
    for (const auto &[ph, count] : c.phaseCounts) {
        std::printf("  %c (%s): %llu\n", ph, phaseName(ph),
                    static_cast<unsigned long long>(count));
    }

    std::vector<std::pair<std::string, hopp::obs::SpanTotal>> spans(
        c.spans.begin(), c.spans.end());
    std::sort(spans.begin(), spans.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.totalUs != b.second.totalUs)
                      return a.second.totalUs > b.second.totalUs;
                  return a.first < b.first;
              });
    if (!spans.empty())
        std::printf("top spans by total time:\n");
    for (std::size_t i = 0; i < spans.size() && i < top; ++i) {
        std::printf("  %-28s %12.3f us over %llu spans\n",
                    spans[i].first.c_str(), spans[i].second.totalUs,
                    static_cast<unsigned long long>(
                        spans[i].second.count));
    }

    if (!c.trackSpans.empty())
        std::printf("completed spans per track:\n");
    for (const auto &[track, count] : c.trackSpans) {
        std::printf("  track %u: %llu span(s)\n", track,
                    static_cast<unsigned long long>(count));
    }

    if (!c.counters.empty())
        std::printf("counter totals:\n");
    for (const auto &[name, total] : c.counters) {
        std::printf("  %-28s sum %.3f over %llu sample(s)\n",
                    name.c_str(), total.sum,
                    static_cast<unsigned long long>(total.samples));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool check_only = false;
    bool summary = false;
    std::optional<unsigned> top = 10;
    std::string path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--check") {
            check_only = true;
        } else if (arg == "--summary") {
            summary = true;
        } else if (arg == "--top") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            top = hopp::cli::parseWhole<unsigned>(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (int rc = hopp::cli::checkFlags("hopp_trace", {.top = top}))
        return rc;
    if (path.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (!check_only && !summary)
        summary = true;

    std::string text;
    if (!readFile(path, text))
        return 1;

    json::Value root;
    std::string err;
    if (!json::parse(text, root, &err)) {
        std::fprintf(stderr, "hopp_trace: %s: %s\n", path.c_str(),
                     err.c_str());
        return 1;
    }
    TraceCheck result = hopp::obs::checkTrace(root);

    for (const auto &e : result.errors)
        std::fprintf(stderr, "hopp_trace: %s\n", e.c_str());

    if (summary)
        printSummary(result, *top);
    if (result.ok()) {
        if (check_only)
            std::printf("%s: ok (%zu events)\n", path.c_str(),
                        result.events);
        return 0;
    }
    std::fprintf(stderr, "hopp_trace: %zu error(s) in %s\n",
                 result.errors.size(), path.c_str());
    return 1;
}

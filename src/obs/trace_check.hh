/**
 * @file
 * Structural validation and summarisation of a trace_event document —
 * the engine behind `hopp_trace --check` and the emitter tests.
 *
 * Checks performed:
 *  - every event carries ph/name/ts (and dur for 'X', id for 'b'/'e');
 *  - timestamps are monotonically non-decreasing in document order
 *    (the writer sorts, so an unsorted file indicates a broken write);
 *  - 'B'/'E' spans balance per track with LIFO name matching;
 *  - 'b'/'e' async spans pair up per (cat, name, id), none left open.
 *
 * While walking, it accumulates the summary `hopp_trace` prints:
 * per-phase event counts, per-name total span time ('X' plus matched
 * 'B'/'E' pairs), per-track completed-span counts, and per-counter
 * value sums over the 'C' samples.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace hopp::obs
{

/** Aggregate time of one span name. */
struct SpanTotal
{
    double totalUs = 0.0;
    std::uint64_t count = 0;
};

/** Aggregate of one counter series. */
struct CounterTotal
{
    double sum = 0.0;
    std::uint64_t samples = 0;
};

/** Validation outcome plus the summary data. */
struct TraceCheck
{
    std::size_t events = 0;
    std::map<char, std::uint64_t> phaseCounts;
    std::map<std::string, SpanTotal> spans; //!< per-name totals

    /** Completed spans per track: 'X' plus matched 'E'/'e' closes. */
    std::map<std::uint32_t, std::uint64_t> trackSpans;

    /** Per-counter sums over every 'C' sample's args.value. */
    std::map<std::string, CounterTotal> counters;

    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
};

namespace detail
{

/** Pending 'B' frame on one track's span stack. */
struct OpenSpan
{
    std::string name;
    double tsUs;
};

inline void
checkEvent(const json::Value &ev, std::size_t index, double &last_ts,
           std::map<std::uint32_t, std::vector<OpenSpan>> &stacks,
           std::map<std::string, double> &asyncOpen, TraceCheck &out)
{
    auto err = [&](const std::string &msg) {
        out.errors.push_back("event " + std::to_string(index) + ": " +
                             msg);
    };

    if (!ev.isObject()) {
        err("not a JSON object");
        return;
    }
    const json::Value *ph = ev.find("ph");
    const json::Value *name = ev.find("name");
    const json::Value *ts = ev.find("ts");
    if (!ph || !ph->isString() || ph->str().size() != 1) {
        err("missing or malformed \"ph\"");
        return;
    }
    if (!name || !name->isString()) {
        err("missing \"name\"");
        return;
    }
    if (!ts || !ts->isNumber()) {
        err("missing numeric \"ts\"");
        return;
    }

    char phase = ph->str()[0];
    ++out.events;
    ++out.phaseCounts[phase];

    double t = ts->number();
    if (t < last_ts)
        err("timestamp " + std::to_string(t) +
            "us goes backwards (prev " + std::to_string(last_ts) +
            "us)");
    last_ts = t;

    const json::Value *tid = ev.find("tid");
    std::uint32_t track =
        tid && tid->isNumber()
            ? static_cast<std::uint32_t>(tid->number())
            : 0;

    switch (phase) {
      case 'X': {
        const json::Value *dur = ev.find("dur");
        if (!dur || !dur->isNumber() || dur->number() < 0) {
            err("'X' event without a non-negative \"dur\"");
            break;
        }
        SpanTotal &s = out.spans[name->str()];
        s.totalUs += dur->number();
        ++s.count;
        ++out.trackSpans[track];
        break;
      }
      case 'B':
        stacks[track].push_back(OpenSpan{name->str(), t});
        break;
      case 'E': {
        auto &stack = stacks[track];
        if (stack.empty()) {
            err("'E' \"" + name->str() + "\" on track " +
                std::to_string(track) + " with no open span");
            break;
        }
        if (stack.back().name != name->str()) {
            err("'E' \"" + name->str() + "\" does not match open 'B' \"" +
                stack.back().name + "\" on track " +
                std::to_string(track));
            break;
        }
        SpanTotal &s = out.spans[stack.back().name];
        s.totalUs += t - stack.back().tsUs;
        ++s.count;
        ++out.trackSpans[track];
        stack.pop_back();
        break;
      }
      case 'b':
      case 'e': {
        const json::Value *id = ev.find("id");
        if (!id || !id->isString()) {
            err("async event without string \"id\"");
            break;
        }
        const json::Value *cat = ev.find("cat");
        std::string key = (cat && cat->isString() ? cat->str() : "") +
                          "/" + name->str() + "/" + id->str();
        if (phase == 'b') {
            if (asyncOpen.count(key)) {
                err("async 'b' reuses live id " + id->str());
                break;
            }
            asyncOpen[key] = t;
        } else {
            auto it = asyncOpen.find(key);
            if (it == asyncOpen.end()) {
                err("async 'e' \"" + name->str() + "\" id " + id->str() +
                    " without matching 'b'");
                break;
            }
            SpanTotal &s = out.spans[name->str()];
            s.totalUs += t - it->second;
            ++s.count;
            ++out.trackSpans[track];
            asyncOpen.erase(it);
        }
        break;
      }
      case 'C': {
        const json::Value *args = ev.find("args");
        const json::Value *value =
            args && args->isObject() ? args->find("value") : nullptr;
        if (value && value->isNumber()) {
            CounterTotal &c = out.counters[name->str()];
            c.sum += value->number();
            ++c.samples;
        }
        break;
      }
      case 'i':
        break;
      default:
        err(std::string("unknown phase '") + phase + "'");
    }
}

} // namespace detail

/**
 * Validate a parsed Chrome trace document: an object holding a
 * "traceEvents" array, or a bare array of events, walked in document
 * order.
 */
inline TraceCheck
checkTrace(const json::Value &root)
{
    TraceCheck out;
    const json::Value *events = &root;
    if (root.isObject()) {
        events = root.find("traceEvents");
        if (!events || !events->isArray()) {
            out.errors.push_back(
                "document has no \"traceEvents\" array");
            return out;
        }
    } else if (!root.isArray()) {
        out.errors.push_back("document is neither object nor array");
        return out;
    }
    double last_ts = 0.0;
    std::map<std::uint32_t, std::vector<detail::OpenSpan>> stacks;
    std::map<std::string, double> asyncOpen;
    for (std::size_t i = 0; i < events->items().size(); ++i)
        detail::checkEvent(events->items()[i], i, last_ts, stacks,
                           asyncOpen, out);
    for (const auto &[track, stack] : stacks) {
        for (const auto &open : stack)
            out.errors.push_back("unbalanced span \"" + open.name +
                                 "\" left open on track " +
                                 std::to_string(track));
    }
    for (const auto &[key, ts] : asyncOpen)
        out.errors.push_back("async span " + key + " never ended");
    return out;
}

} // namespace hopp::obs


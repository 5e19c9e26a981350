/**
 * @file
 * Per-file pass: determinism, type-discipline, observability and
 * simulation-core rules that need one file at a time, not the tree.
 *
 * The simulator's paper-figure reproducibility rests on every run being
 * a pure function of the configuration and seed. These rules flag the
 * constructs that historically break that property:
 *
 *   raw-rand          a host RNG (std::rand/srand/random/drand48/
 *                     mt19937 ...) — use hopp::Pcg32.
 *   random-device     std::random_device — hardware entropy makes runs
 *                     unrepeatable.
 *   wall-clock        std::chrono and its clocks / gettimeofday /
 *                     time() / clock() — all simulated time must be
 *                     sim::EventQueue ticks. Host time is measured
 *                     from outside the simulator, by perfbench/.
 *   unordered-iter    range-for or begin() iteration over a variable
 *                     declared as std::unordered_map/unordered_set in
 *                     the file or its sibling header — iteration order
 *                     is unspecified, so order-sensitive consumers
 *                     diverge across stdlibs.
 *   ptr-key           std::map/std::set keyed by a pointer — iteration
 *                     follows allocation addresses, which ASLR
 *                     randomises run to run.
 *
 * Type discipline (the static half of common/types.hh):
 *
 *   raw-int-addr      a raw std::uint64_t / unsigned long long declared
 *                     in a header with an address/page/tick vocabulary
 *                     name (pa, va, vpn, ppn, pfn, addr, tick, page).
 *   page-shift        manual `<< pageShift` / `>> pageShift` outside
 *                     common/types.hh — use pageOf()/pageBase().
 *   raw               .raw() unwrapping of a tagged type; the escape
 *                     hatch is for serialization/stats boundaries and
 *                     carries an allow with its justification.
 *
 * Layer rules, keyed on the file's module:
 *
 *   obs-chrono        any std::chrono (or <chrono> include) under
 *                     obs/ — traces must stay byte-deterministic, so
 *                     timestamps are ticks.
 *   sim-std-function  std::function under sim/ — the event core is
 *                     allocation-free; closures go through
 *                     sim::InlineEvent or a template parameter.
 *   thread-primitive  std::thread / mutex / atomic / futures anywhere
 *                     but runner/sweep* — simulation code is
 *                     single-threaded by contract; host parallelism is
 *                     whole runs behind runner::SweepPool.
 *
 * The clock, RNG and thread names live in one list each (hazardAt),
 * read by these rules and by the hotpath-clock / -rng / -thread sinks
 * alike. Rules match lexed code tokens, or comment-stripped,
 * literal-blanked line text, so prose and string payloads never match.
 */

#pragma once

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/model.hh"

namespace hopp::analysis
{

enum class Hazard
{
    Clock,
    Rng,
    Thread,
};

/**
 * The name `code[i]` spells when it is one of hazard `h`'s, else "".
 * Each hazard has names flagged wherever they appear, names flagged
 * only when called as a free function, and std names flagged as
 * `std::name...` (a prefix, so std::atomic covers atomic_flag,
 * atomic_ref and atomic_thread_fence) or as exactly `name<...>` — a
 * member called `thread` stays clean. Narrowing a list weakens both the
 * tree-wide rule and its hot-path sink.
 */
inline std::string
hazardAt(const std::vector<CodeToken> &code, std::size_t i, Hazard h)
{
    struct Names
    {
        std::vector<std::string> anyUse, calls, stdNames;
    };
    static const Names names[] = {
        // Hazard::Clock: all of <chrono>, and every C time source.
        {{"chrono", "system_clock", "steady_clock", "high_resolution_clock",
          "utc_clock", "tai_clock", "gps_clock", "file_clock"},
         {"time", "clock", "gettimeofday", "clock_gettime", "timespec_get"},
         {}},
        // Hazard::Rng: every <random> engine and the C library RNGs.
        {{"random_device", "default_random_engine", "minstd_rand0",
          "minstd_rand", "mt19937", "mt19937_64", "ranlux24_base",
          "ranlux48_base", "ranlux24", "ranlux48", "knuth_b", "drand48",
          "erand48", "lrand48", "nrand48", "mrand48", "jrand48", "srand48"},
         {"rand", "srand", "rand_r", "random", "srandom"},
         {}},
        // Hazard::Thread: <thread>, <mutex>, <atomic>, <future> & co.
        {{},
         {},
         {"thread", "this_thread", "jthread", "mutex", "timed_mutex",
          "recursive_mutex", "recursive_timed_mutex", "shared_mutex",
          "shared_timed_mutex", "atomic", "condition_variable",
          "lock_guard", "unique_lock", "shared_lock", "scoped_lock",
          "future", "shared_future", "promise", "packaged_task", "async",
          "latch", "barrier", "counting_semaphore", "binary_semaphore",
          "once_flag", "call_once"}},
    };
    const Names &n = names[static_cast<int>(h)];
    if (code[i].kind != TokKind::Ident)
        return "";
    const std::string &x = code[i].text;
    auto in = [&](const std::vector<std::string> &list) {
        return std::find(list.begin(), list.end(), x) != list.end();
    };
    auto prefixed = [&](const std::vector<std::string> &list) {
        for (const auto &p : list)
            if (x.rfind(p, 0) == 0)
                return true;
        return false;
    };
    // Neighbouring token text; indices before the first token wrap
    // past code.size() and read as "".
    auto tok = [&](std::size_t at) -> const std::string & {
        static const std::string none;
        return at < code.size() ? code[at].text : none;
    };
    bool member =
        tok(i - 1) == "." || (tok(i - 1) == ">" && tok(i - 2) == "-");
    bool std_qualified =
        tok(i - 1) == ":" && tok(i - 2) == ":" && tok(i - 3) == "std";
    if (in(n.anyUse) || (in(n.calls) && tok(i + 1) == "(" && !member) ||
        (std_qualified && prefixed(n.stdNames)) ||
        (tok(i + 1) == "<" && in(n.stdNames)))
        return x;
    return "";
}

namespace file_rules_detail
{

inline bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Offsets of `word` in `line` with no identifier character beside it. */
inline std::vector<std::size_t>
wordsAt(const std::string &line, const std::string &word)
{
    std::vector<std::size_t> at;
    for (std::size_t pos = line.find(word); pos != std::string::npos;
         pos = line.find(word, pos + word.size())) {
        std::size_t end = pos + word.size();
        if ((pos == 0 || !isIdentChar(line[pos - 1])) &&
            (end >= line.size() || !isIdentChar(line[end])))
            at.push_back(pos);
    }
    return at;
}

/**
 * Names declared as unordered containers in a code-token stream.
 * Token-based: multi-line declarations are seen whole.
 */
inline void
recordUnorderedDecls(const std::vector<CodeToken> &code,
                     std::vector<std::string> &names)
{
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::Ident ||
            (code[i].text != "unordered_map" &&
             code[i].text != "unordered_set"))
            continue;
        if (code[i + 1].text != "<")
            continue;
        // Walk to the matching '>' of the template argument list.
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < code.size(); ++j) {
            if (code[j].text == "<")
                ++depth;
            else if (code[j].text == ">" && --depth == 0)
                break;
        }
        if (j >= code.size())
            continue;
        // The declared name is the next identifier (skip &, *); stop at
        // statement punctuation, which means this was a type mention,
        // not a declaration.
        for (++j; j < code.size(); ++j) {
            if (code[j].kind == TokKind::Ident) {
                names.push_back(code[j].text);
                break;
            }
            if (code[j].text != "&" && code[j].text != "*")
                break;
        }
    }
}

/** Lowercased word-split of an identifier (camelCase and snake_case). */
inline std::vector<std::string>
identWords(const std::string &ident)
{
    std::vector<std::string> words;
    std::string cur;
    for (char c : ident) {
        if (c == '_' || std::isupper(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                words.push_back(cur);
            cur.clear();
        }
        if (c != '_')
            cur += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    }
    if (!cur.empty())
        words.push_back(cur);
    return words;
}

/**
 * True when an identifier names an address/page/tick quantity. Matches
 * whole words only, so counts like `hotPages` or `footprintPages` stay
 * clean while `pageKey`, `fault_addr` or `tick` are flagged.
 */
inline bool
addrVocabIdent(const std::string &ident)
{
    static const std::set<std::string> vocab = {
        "pa", "va", "vpn", "ppn", "pfn", "addr", "address", "tick", "page"};
    for (const auto &w : identWords(ident))
        if (vocab.count(w))
            return true;
    return false;
}

/**
 * The address-vocabulary name a raw 64-bit integer declares on `line`
 * (the parameter, member, or function name after the type), or "".
 */
inline std::string
rawIntAddrName(const std::string &line)
{
    for (std::string type : {"uint64_t", "unsigned long long"}) {
        for (std::size_t pos : wordsAt(line, type)) {
            std::size_t i = pos + type.size();
            while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                                       line[i] == '&' || line[i] == '*'))
                ++i;
            std::size_t start = i;
            while (i < line.size() && isIdentChar(line[i]))
                ++i;
            std::string name = line.substr(start, i - start);
            if (!name.empty() && addrVocabIdent(name))
                return name;
        }
    }
    return "";
}

/** True when `pageShift` appears as the right operand of << or >>. */
inline bool
hasManualPageShift(const std::string &line)
{
    for (std::size_t pos : wordsAt(line, "pageShift")) {
        std::size_t op = pos < 2 ? std::string::npos
                                 : line.find_last_not_of(" \t", pos - 1);
        if (op != std::string::npos && op >= 1 &&
            (line.compare(op - 1, 2, "<<") == 0 ||
             line.compare(op - 1, 2, ">>") == 0))
            return true;
    }
    return false;
}

/**
 * True when `piece` starts at a path component of `rel`: "obs/" is in
 * obs/tracer.hh and in a single-file root's tests/fx/obs/x.cc alike.
 */
inline bool
pathHas(const std::string &rel, const std::string &piece)
{
    return rel.rfind(piece, 0) == 0 ||
           rel.find("/" + piece) != std::string::npos;
}

} // namespace file_rules_detail

/** Run every per-file rule over every file of `tree`. */
inline void
fileRulesPass(SourceTree &tree)
{
    using namespace file_rules_detail;
    for (const SourceFile &f : tree.files) {
        const std::vector<CodeToken> &code = f.code;
        // Path carve-out: the sweep pool is the one sanctioned home
        // for host threads; the basename prefix covers files split out
        // beside it.
        bool in_sweep = pathHas(f.rel, "runner/sweep");
        bool in_obs = pathHas(f.rel, "obs/");
        bool in_sim = pathHas(f.rel, "sim/");
        bool is_types_hh = pathHas(f.rel, "common/types.hh");

        // One finding per (line, rule): a line naming two clocks is
        // one wall-clock hazard.
        std::set<std::pair<int, std::string>> seen;
        auto emit = [&](int line, const char *rule, std::string msg) {
            if (seen.emplace(line, rule).second)
                tree.report(f, line, rule, std::move(msg));
        };

        // --- Token rules (multi-line aware) --------------------------

        // Members declared in the class header are iterated from the
        // .cc: the sibling header's declarations count too.
        std::vector<std::string> unordered;
        if (!f.header) {
            std::string stem = f.rel.substr(0, f.rel.rfind('.'));
            for (const SourceFile &g : tree.files)
                if (g.root == f.root &&
                    (g.rel == stem + ".hh" || g.rel == stem + ".hpp")) {
                    recordUnorderedDecls(g.code, unordered);
                    break;
                }
        }
        recordUnorderedDecls(code, unordered);

        for (std::size_t i = 0; i < code.size(); ++i) {
            const CodeToken &t = code[i];
            std::string next = i + 1 < code.size() ? code[i + 1].text : "";
            int line = t.line;

            // A for-header naming an unordered container (range-for
            // sequence or begin()/end() calls alike).
            if (t.kind == TokKind::Ident && t.text == "for" && next == "(") {
                std::size_t close = matchForward(code, i + 1);
                for (std::size_t j = i + 2; j < close; ++j) {
                    if (code[j].kind == TokKind::Ident &&
                        std::find(unordered.begin(), unordered.end(),
                                  code[j].text) != unordered.end()) {
                        emit(line, "unordered-iter",
                             "iteration over unordered container '" +
                                 code[j].text +
                                 "' has unspecified order; sort keys "
                                 "first or justify order-insensitivity "
                                 "with an allow comment");
                        break;
                    }
                }
            }

            // std::map< K / std::set< K with a '*' in the key argument.
            if (t.text == "std" && i + 4 < code.size() &&
                code[i + 1].text == ":" && code[i + 2].text == ":" &&
                (code[i + 3].text == "map" || code[i + 3].text == "set") &&
                code[i + 4].text == "<") {
                int depth = 0;
                for (std::size_t j = i + 4; j < code.size(); ++j) {
                    const std::string &s = code[j].text;
                    if (s == "<") {
                        ++depth;
                    } else if (s == ">") {
                        if (--depth == 0)
                            break;
                    } else if ((depth == 1 && s == ",") || s == ";" ||
                               s == "{") {
                        break; // past the key argument
                    } else if (s == "*") {
                        emit(line, "ptr-key",
                             "std::map/std::set keyed by a pointer "
                             "iterates in allocation-address order, "
                             "which ASLR randomises");
                        break;
                    }
                }
            }

            if (t.text == "." && next == "raw" && i + 2 < code.size() &&
                code[i + 2].text == "(") {
                emit(line, "raw",
                     ".raw() unwraps a tagged type; confine it to "
                     "serialization/stats boundaries and justify with "
                     "hopp-analyze: allow(raw)");
            }

            std::string name = hazardAt(code, i, Hazard::Rng);
            if (name == "random_device") {
                emit(line, "random-device",
                     "std::random_device draws hardware entropy; runs "
                     "become unrepeatable");
            } else if (!name.empty()) {
                emit(line, "raw-rand",
                     "host RNG '" + name +
                         "'; use hopp::Pcg32 seeded from the workload "
                         "seed");
            }

            name = hazardAt(code, i, Hazard::Clock);
            if (!name.empty()) {
                emit(line, "wall-clock",
                     "'" + name +
                         "' reads wall-clock time; simulated time must "
                         "come from sim::EventQueue ticks (host timing "
                         "belongs in perfbench/, outside the simulator)");
            }

            name = hazardAt(code, i, Hazard::Thread);
            if (!name.empty() && !in_sweep) {
                emit(line, "thread-primitive",
                     "std::" + name +
                         " outside runner/sweep*; simulation code is "
                         "single-threaded by contract — host "
                         "parallelism goes through runner::SweepPool");
            }
        }

        // --- Line rules over comment-stripped, literal-blanked text --

        for (std::size_t n = 0; n < f.lines.size(); ++n) {
            const std::string &text = f.lines[n];
            int line = static_cast<int>(n + 1);

            std::string ident = f.header ? rawIntAddrName(text) : "";
            if (!ident.empty()) {
                emit(line, "raw-int-addr",
                     "raw 64-bit integer '" + ident +
                         "' carries address/page/tick vocabulary; use "
                         "the tagged types in common/types.hh");
            }
            if (!is_types_hh && hasManualPageShift(text)) {
                emit(line, "page-shift",
                     "manual pageShift arithmetic outside "
                     "common/types.hh; use pageOf()/pageBase() so page "
                     "geometry stays centralized");
            }
            if (in_obs && !wordsAt(text, "chrono").empty()) {
                emit(line, "obs-chrono",
                     "std::chrono in the observability layer; trace "
                     "timestamps must be simulator ticks so traces "
                     "stay byte-deterministic");
            }
            if (in_sim && text.find("std::function") != std::string::npos) {
                emit(line, "sim-std-function",
                     "std::function in the simulation core; closures "
                     "must use sim::InlineEvent (or a template "
                     "parameter) so the event hot path stays "
                     "allocation-free");
            }
        }
    }
}

} // namespace hopp::analysis

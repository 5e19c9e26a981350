/**
 * @file
 * hopp_analyze — the static analyzer for the HoPP tree. It loads its
 * roots as one tree (tools/analysis/model.hh), lexes every file once
 * with the shared lexer, and runs three passes:
 *
 *   file_rules.hh     per-file determinism, type-discipline and layer
 *                     rules: host RNG / wall clock / thread
 *                     primitives, unordered iteration, pointer keys,
 *                     raw address integers, .raw() and pageShift
 *                     escapes, chrono in obs/, std::function in sim/
 *   include_graph.hh  module layering against tools/analysis/layers.conf,
 *                     rooted include paths, one guard style, and
 *                     include-cycle detection
 *   hotpath.hh        hot-path purity: no allocation / nondeterminism
 *                     sink reachable (via the call graph built from
 *                     symbols.hh + call_graph.hh) from the roots
 *                     declared in tools/analysis/hotpaths.conf
 *
 * Usage:
 *   hopp_analyze [--layers FILE] [--hotpaths FILE] [--json]
 *                [--verbose] ROOT...
 *   hopp_analyze --self-test FIXTURE_DIR
 *
 * The roots form one tree, like an include path: in `hopp_analyze src
 * tools`, tools/ includes src/ headers by their module-rooted names. A
 * ROOT may also be one file; it keeps its path as given, so the
 * per-file rules' obs/, sim/ and runner/sweep* carve-outs still apply.
 * With no --layers, the first ROOT/layers.conf is used when present;
 * with no --hotpaths, the first ROOT/hotpaths.conf — an absent implicit
 * file skips that pass (the remaining passes still run), while a file
 * named on the command line must open. --json prints the findings as a
 * machine-readable array (for CI annotations) instead of the human
 * lines. --self-test treats each immediate subdirectory of FIXTURE_DIR
 * as an independent tree and checks the emitted diagnostics against
 * `hopp-analyze-expect(rule)` markers.
 *
 * Exit codes: 0 clean, 1 violations (or self-test mismatch), 2 usage /
 * IO error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "analysis/call_graph.hh"
#include "analysis/file_rules.hh"
#include "analysis/hotpath.hh"
#include "analysis/include_graph.hh"
#include "analysis/model.hh"
#include "analysis/symbols.hh"

namespace
{

namespace fs = std::filesystem;
using namespace hopp::analysis;

struct Options
{
    std::string layersFile;
    std::string hotpathsFile;
    bool selfTest = false;
    bool verbose = false;
    bool json = false;
    std::vector<std::string> roots;
};

[[noreturn]] void
fail(const std::string &why)
{
    std::fprintf(stderr, "hopp_analyze: %s\n", why.c_str());
    std::exit(2);
}

/**
 * The config file to load: the one named on the command line, else the
 * first ROOT/<name> that exists, else "" (pass skipped).
 */
std::string
configFile(const std::string &given, const std::vector<std::string> &roots,
           const char *name)
{
    if (!given.empty()) {
        if (!fs::is_regular_file(given) || !std::ifstream(given))
            fail(given + ": cannot open");
        return given;
    }
    for (const auto &root : roots)
        if (fs::is_regular_file(fs::path(root) / name))
            return (fs::path(root) / name).string();
    return "";
}

/** Run every pass over `tree`; its diagnostics end up sorted. */
void
analyze(SourceTree &tree, const std::vector<std::string> &roots,
        const Options &opt)
{
    std::string layers = configFile(opt.layersFile, roots, "layers.conf");
    LayerConfig cfg = loadLayerConfig(layers);
    if (!cfg.error.empty())
        fail(layers + ": " + cfg.error);
    std::string hot = configFile(opt.hotpathsFile, roots, "hotpaths.conf");
    HotpathConfig hconf = loadHotpathConfig(hot);
    if (!hconf.error.empty())
        fail(hconf.error);
    if (opt.verbose) {
        std::string names;
        for (const auto &r : roots)
            names += (names.empty() ? "" : " ") + r;
        std::fprintf(
            stderr,
            "hopp_analyze: %s: %zu files, layers.conf %s, "
            "hotpaths.conf %s\n",
            names.c_str(), tree.files.size(),
            cfg.loaded ? "loaded" : "absent (layering skipped)",
            hconf.loaded ? "loaded" : "absent (hotpath skipped)");
    }

    fileRulesPass(tree);
    includeGraphPass(tree, cfg);

    if (hconf.loaded) {
        SymbolIndex sym = buildSymbolIndex(tree);
        CallGraph cg = buildCallGraph(sym);
        HotpathSummary hp;
        hotpathPass(tree, sym, cg, hconf, hp);
        if (opt.verbose) {
            std::fprintf(
                stderr,
                "hopp_analyze: call graph %zu functions; hotpath "
                "%d/%d roots matched, %d reachable functions, %d "
                "unresolved calls, %d sink sites\n",
                cg.nodes.size(), hp.matchedRoots, hp.roots,
                hp.reachable, hp.unresolved, hp.findings);
            for (std::size_t n = 0; n < cg.nodes.size(); ++n)
                for (const auto &u : cg.unresolved[n])
                    std::fprintf(stderr,
                                 "hopp_analyze:   unresolved in %s: "
                                 "%s\n",
                                 cg.nodes[n].qual().c_str(),
                                 u.c_str());
        }
    }

    std::sort(tree.diags.begin(), tree.diags.end());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Machine-readable findings: a JSON array, one object per diagnostic.
 * `path` is the location CI annotates: the root as given joined with
 * the root-relative `file` (repo-relative when the roots are), or the
 * config path for hotpath-root diags.
 */
void
printJson(const std::vector<Diag> &diags)
{
    std::printf("[");
    bool first = true;
    for (const auto &d : diags) {
        std::printf("%s\n  {\"root\": \"%s\", \"file\": \"%s\", "
                    "\"path\": \"%s\", \"line\": %d, "
                    "\"rule\": \"%s\", \"message\": \"%s\"}",
                    first ? "" : ",", jsonEscape(d.root).c_str(),
                    jsonEscape(d.file).c_str(),
                    jsonEscape(d.path()).c_str(), d.line, d.rule.c_str(),
                    jsonEscape(d.message).c_str());
        first = false;
    }
    std::printf("%s]\n", first ? "" : "\n");
}

/**
 * Self-test over fixture trees: each immediate subdirectory of
 * `fixture_dir` is analyzed on its own (with its own layers.conf /
 * hotpaths.conf, when present) and the diagnostics must match the
 * `hopp-analyze-expect` markers in its files, line by line and rule
 * by rule.
 */
int
runSelfTest(const fs::path &fixture_dir, bool verbose)
{
    if (!fs::is_directory(fixture_dir)) {
        std::fprintf(stderr, "hopp_analyze: --self-test: %s is not a "
                             "directory\n",
                     fixture_dir.string().c_str());
        return 2;
    }
    int expected = 0, emitted = 0, mismatches = 0;
    std::vector<fs::path> subdirs;
    for (const auto &entry : fs::directory_iterator(fixture_dir))
        if (entry.is_directory())
            subdirs.push_back(entry.path());
    std::sort(subdirs.begin(), subdirs.end());

    for (const auto &dir : subdirs) {
        std::vector<std::string> roots = {dir.string()};
        SourceTree tree = loadTree(roots);
        std::set<std::pair<std::string, std::pair<int, std::string>>>
            want;
        for (const auto &f : tree.files)
            for (const auto &[line, rule] : f.directives.expects)
                want.insert({f.rel, {line, rule}});
        expected += static_cast<int>(want.size());

        Options fixture_opt;
        fixture_opt.verbose = verbose;
        analyze(tree, roots, fixture_opt);
        emitted += static_cast<int>(tree.diags.size());
        for (const auto &d : tree.diags) {
            if (want.erase({d.file, {d.line, d.rule}}))
                continue;
            ++mismatches;
            std::printf("SPURIOUS %s:%d: [%s] %s\n", d.path().c_str(),
                        d.line, d.rule.c_str(), d.message.c_str());
        }
        for (const auto &[file, at] : want) {
            ++mismatches;
            std::printf("MISSING  %s/%s:%d: [%s] expected but not "
                        "emitted\n",
                        dir.string().c_str(), file.c_str(), at.first,
                        at.second.c_str());
        }
    }
    std::printf("hopp_analyze self-test: %d expected, %d emitted, %d "
                "mismatches\n",
                expected, emitted, mismatches);
    return mismatches == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hopp_analyze [--layers FILE] [--hotpaths "
                 "FILE] [--json] [--verbose] ROOT...\n"
                 "       hopp_analyze --self-test FIXTURE_DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--layers" && i + 1 < argc) {
            opt.layersFile = argv[++i];
        } else if (arg == "--hotpaths" && i + 1 < argc) {
            opt.hotpathsFile = argv[++i];
        } else if (arg == "--self-test") {
            opt.selfTest = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            opt.roots.push_back(arg);
        }
    }
    if (opt.roots.empty())
        return usage();

    if (opt.selfTest) {
        if (opt.roots.size() != 1)
            return usage();
        return runSelfTest(opt.roots[0], opt.verbose);
    }

    for (const auto &root : opt.roots)
        if (!fs::exists(root))
            fail(root + ": no such path");
    SourceTree tree = loadTree(opt.roots);
    analyze(tree, opt.roots, opt);
    if (opt.json) {
        printJson(tree.diags);
    } else {
        for (const auto &d : tree.diags)
            std::printf("%s:%d: [%s] %s\n", d.path().c_str(), d.line,
                        d.rule.c_str(), d.message.c_str());
    }
    std::size_t total = tree.diags.size();
    if (total)
        std::fprintf(stderr, "hopp_analyze: %zu violation%s\n", total,
                     total == 1 ? "" : "s");
    return total == 0 ? 0 : 1;
}

/**
 * @file
 * Include-graph pass: module layering, rooted includes, guard style,
 * and include-cycle detection.
 *
 * The architecture contract lives in a declared layer DAG
 * (tools/analysis/layers.conf for src/ and tools/). Format, one
 * declaration per line, '#' comments:
 *
 *   layer <module> [<module>...]   layers are declared bottom-up; a
 *                                  file may include its own layer and
 *                                  any layer declared before it
 *   interface <module/file.hh>     an interface header: includable
 *                                  from any layer, but may itself only
 *                                  include the bottom layer (or other
 *                                  interface headers) — the escape
 *                                  hatch stays honest
 *   allow <from> <to>              an explicit extra edge: module
 *                                  <from> may include module <to> even
 *                                  though <to> sits above it
 *
 * Rules emitted by this pass:
 *
 *   undeclared-module  a module directory (or included module) absent
 *                      from layers.conf — the DAG must stay total
 *   include-rooted     a quote include that is not module-rooted
 *                      ("dir/file.hh") or does not resolve under the
 *                      analyzed root
 *   layer              an include that jumps to a higher layer with no
 *                      declared allow edge
 *   interface-purity   an interface header including anything above
 *                      the bottom layer
 *   guard-style        a header whose first directive is not
 *                      `#pragma once` (one guard style, machine-checked)
 *   include-cycle      a cycle in the file-level quote-include graph
 */

#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace hopp::analysis
{

struct LayerConfig
{
    bool loaded = false;
    std::map<std::string, int> layerOf;          //!< module -> index
    std::set<std::string> interfaces;            //!< rel header paths
    std::set<std::pair<std::string, std::string>> allowEdges;
    std::string error;                           //!< parse failure
};

inline LayerConfig
loadLayerConfig(const std::filesystem::path &conf_path)
{
    LayerConfig cfg;
    std::ifstream in(conf_path);
    if (!in)
        return cfg;
    int layer = 0;
    int lineno = 0;
    for (std::string line; std::getline(in, line);) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream words(line);
        std::string kw;
        if (!(words >> kw))
            continue;
        if (kw == "layer") {
            std::string mod;
            int declared = 0;
            while (words >> mod) {
                cfg.layerOf[mod] = layer;
                ++declared;
            }
            if (declared)
                ++layer;
        } else if (kw == "interface") {
            std::string hdr;
            while (words >> hdr)
                cfg.interfaces.insert(hdr);
        } else if (kw == "allow") {
            std::string from, to;
            if (words >> from >> to) {
                cfg.allowEdges.emplace(from, to);
            } else {
                cfg.error = "allow needs <from> <to> (line " +
                            std::to_string(lineno) + ")";
                return cfg;
            }
        } else {
            cfg.error = "unknown keyword '" + kw + "' (line " +
                        std::to_string(lineno) + ")";
            return cfg;
        }
    }
    cfg.loaded = true;
    return cfg;
}

/**
 * Run the include-graph pass over `tree`. When `cfg.loaded` is false
 * the layering rules are skipped (rooted includes, guard style, and
 * cycles still run) — fixture trees without an architecture contract
 * stay analyzable.
 */
inline void
includeGraphPass(SourceTree &tree, const LayerConfig &cfg)
{
    // --- Per-file include edges (resolved root-relative targets) -----
    struct Edge
    {
        std::size_t from;   //!< index into tree.files
        std::string target; //!< resolved rel path
        int line;
    };
    std::vector<Edge> edges;
    std::map<std::string, std::size_t> byRel;
    for (std::size_t i = 0; i < tree.files.size(); ++i)
        byRel.emplace(tree.files[i].rel, i); // first root wins

    for (std::size_t i = 0; i < tree.files.size(); ++i) {
        SourceFile &f = tree.files[i];
        for (const auto &pp : f.pp) {
            std::string target = quoteIncludeTarget(pp.text);
            if (target.empty())
                continue;
            bool resolves = byRel.count(target) != 0;
            if (target.find('/') == std::string::npos || !resolves) {
                tree.report(f, pp.line, "include-rooted",
                            "include \"" + target +
                                "\" is not a module-rooted path under "
                                "the analyzed tree; spell includes as "
                                "\"<module>/<file>\" from the source "
                                "root");
                continue;
            }
            edges.push_back({i, target, pp.line});

            if (!cfg.loaded)
                continue;
            std::string target_mod = target.substr(0, target.find('/'));
            bool iface = cfg.interfaces.count(target) != 0;

            if (cfg.interfaces.count(f.rel)) {
                // Interface headers may only reach the bottom layer or
                // other interface headers.
                auto it = cfg.layerOf.find(target_mod);
                bool bottom = it != cfg.layerOf.end() &&
                              it->second == 0;
                if (!bottom && !iface) {
                    tree.report(
                        f, pp.line, "interface-purity",
                        "interface header includes \"" + target +
                            "\"; interface headers may only include "
                            "the bottom layer so every layer can "
                            "depend on them");
                }
                continue;
            }
            if (iface)
                continue; // interface headers are includable anywhere
            if (f.module.empty())
                continue; // file at the root: no module to layer
            auto from_it = cfg.layerOf.find(f.module);
            auto to_it = cfg.layerOf.find(target_mod);
            if (from_it == cfg.layerOf.end()) {
                tree.report(f, pp.line, "undeclared-module",
                            "module '" + f.module +
                                "' is not declared in layers.conf; "
                                "every module must have a layer");
                continue;
            }
            if (to_it == cfg.layerOf.end()) {
                tree.report(f, pp.line, "undeclared-module",
                            "included module '" + target_mod +
                                "' is not declared in layers.conf; "
                                "every module must have a layer");
                continue;
            }
            if (to_it->second > from_it->second &&
                !cfg.allowEdges.count({f.module, target_mod})) {
                tree.report(
                    f, pp.line, "layer",
                    "layering inversion: '" + f.module + "' (layer " +
                        std::to_string(from_it->second) +
                        ") includes \"" + target + "\" from '" +
                        target_mod + "' (layer " +
                        std::to_string(to_it->second) +
                        "); declare an allow edge in layers.conf or "
                        "move the dependency down");
            }
        }

        // --- Guard style: headers open with #pragma once -------------
        if (f.header) {
            bool pragma_once = false;
            int first_line = 1;
            if (!f.pp.empty()) {
                first_line = f.pp.front().line;
                std::string flat = ppText(f.pp.front().text);
                // Normalize "#  pragma   once" to token order.
                std::istringstream words(
                    flat.substr(flat.find('#') + 1));
                std::string a, b;
                words >> a >> b;
                pragma_once = a == "pragma" && b == "once";
            }
            if (!pragma_once) {
                tree.report(f, first_line, "guard-style",
                            "header must open with '#pragma once' "
                            "(the tree's one sanctioned guard style); "
                            "#ifndef guards drift from file renames "
                            "and collide when copied");
            }
        }
    }

    // --- Cycle detection over the resolved file graph ----------------
    // Iterative DFS, three colors; each cycle reported once, anchored
    // at the edge that closes it from the lexically smallest file.
    std::map<std::size_t, std::vector<const Edge *>> adj;
    for (const auto &e : edges) {
        auto it = byRel.find(e.target);
        if (it != byRel.end())
            adj[e.from].push_back(&e);
    }
    std::vector<int> color(tree.files.size(), 0); // 0 white 1 grey 2 black
    std::vector<std::size_t> stack;               // current DFS path
    std::set<std::set<std::size_t>> seen_cycles;

    // Recursive lambda via explicit stack of (node, next-edge-index).
    for (std::size_t start = 0; start < tree.files.size(); ++start) {
        if (color[start] != 0)
            continue;
        std::vector<std::pair<std::size_t, std::size_t>> frames;
        frames.emplace_back(start, 0);
        color[start] = 1;
        stack.push_back(start);
        while (!frames.empty()) {
            auto &[node, next] = frames.back();
            const auto &out = adj[node];
            if (next >= out.size()) {
                color[node] = 2;
                stack.pop_back();
                frames.pop_back();
                continue;
            }
            const Edge *e = out[next++];
            std::size_t to = byRel.at(e->target);
            if (color[to] == 1) {
                // Found a cycle: the path suffix from `to` plus edge e.
                auto at = std::find(stack.begin(), stack.end(), to);
                std::set<std::size_t> key(at, stack.end());
                if (seen_cycles.insert(key).second) {
                    std::string chain;
                    for (auto it2 = at; it2 != stack.end(); ++it2)
                        chain += tree.files[*it2].rel + " -> ";
                    chain += tree.files[to].rel;
                    const SourceFile &f = tree.files[e->from];
                    tree.report(f, e->line, "include-cycle",
                                "include cycle: " + chain +
                                    "; break the cycle with a forward "
                                    "declaration or an interface "
                                    "header");
                }
            } else if (color[to] == 0) {
                color[to] = 1;
                stack.push_back(to);
                frames.emplace_back(to, 0);
            }
        }
    }
}

} // namespace hopp::analysis

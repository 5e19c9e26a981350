/**
 * @file
 * Source model shared by the hopp_analyze passes.
 *
 * Every pass needs the same view of the tree (all files lexed once,
 * module = first path component under the root a file was found in)
 * and the same diagnostic plumbing (suppression comments, expect
 * markers for the self-test). This header provides both; the passes
 * live in file_rules.hh, include_graph.hh and hotpath.hh.
 *
 * Several roots load as one tree, like an include path: `src tools`
 * gives `vm/vms.cc` and `analysis/model.hh` side by side, and a quote
 * include resolves against the first root that has the file.
 *
 * Suppression, one syntax for every rule:
 *
 *   // hopp-analyze: allow(<rule>[, <rule>...])   this statement
 *   // hopp-analyze: allow-file(<rule>[, ...])    whole file
 *
 * and `hopp-analyze-expect(<rule>)` markers drive `--self-test`. An
 * allow covers its own line and the lines below it up to the end of
 * the statement (see SourceFile::allows). Directives are parsed from
 * comment tokens only, so nothing inside a string literal can suppress
 * a finding.
 */

#pragma once

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/token_stream.hh"

namespace hopp::analysis
{

struct Diag
{
    std::string file; //!< root-relative path, or a config/file as given
    int line = 0;
    std::string rule;
    std::string message;
    std::string root; //!< root `file` was found under, else ""

    /** Path to print and annotate: `root/file`. */
    std::string
    path() const
    {
        return root.empty() || root == "." ? file : root + "/" + file;
    }

    bool
    operator<(const Diag &o) const
    {
        if (root != o.root)
            return root < o.root;
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        return message < o.message;
    }
};

/** Suppression + expect directives from one file's comments. */
struct Directives
{
    std::map<int, std::vector<std::string>> lineAllows;
    std::vector<std::string> fileAllows;
    std::vector<std::pair<int, std::string>> expects;
};

inline std::vector<std::string>
parseRuleList(const std::string &text, std::size_t open_paren)
{
    std::vector<std::string> rules;
    std::size_t close = text.find(')', open_paren);
    if (close == std::string::npos)
        return rules;
    std::string args = text.substr(open_paren + 1, close - open_paren - 1);
    std::string cur;
    for (char c : args) {
        if (c == ',' || c == ' ') {
            if (!cur.empty())
                rules.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        rules.push_back(cur);
    return rules;
}

/**
 * Parse `hopp-analyze: allow(...)` / `hopp-analyze: allow-file(...)`
 * and `hopp-analyze-expect(...)` from comment tokens, attributing each
 * directive to the physical line it sits on.
 */
inline Directives
parseDirectives(const std::vector<Token> &comments)
{
    const std::string kw = "hopp-analyze:";
    const std::string expect_kw = "hopp-analyze-expect(";
    Directives d;
    for (const auto &tok : comments) {
        std::istringstream in(tok.text);
        int lineno = tok.line;
        for (std::string line; std::getline(in, line); ++lineno) {
            std::size_t pos = line.find(kw);
            while (pos != std::string::npos) {
                std::size_t after = pos + kw.size();
                std::size_t file_kw = line.find("allow-file(", after);
                std::size_t line_kw = line.find("allow(", after);
                if (file_kw != std::string::npos) {
                    auto rs = parseRuleList(
                        line, file_kw + std::strlen("allow-file"));
                    d.fileAllows.insert(d.fileAllows.end(), rs.begin(),
                                        rs.end());
                } else if (line_kw != std::string::npos) {
                    auto rs = parseRuleList(
                        line, line_kw + std::strlen("allow"));
                    auto &dst = d.lineAllows[lineno];
                    dst.insert(dst.end(), rs.begin(), rs.end());
                }
                pos = line.find(kw, after);
            }
            std::size_t expect = line.find(expect_kw);
            if (expect != std::string::npos) {
                for (const auto &rule : parseRuleList(
                         line, expect + expect_kw.size() - 1))
                    d.expects.emplace_back(lineno, rule);
            }
        }
    }
    return d;
}

inline bool
listCovers(const std::vector<std::string> &rules, const std::string &rule)
{
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/** One lexed source file of the analyzed tree. */
struct SourceFile
{
    std::string root;   //!< the root it was found under, else ""
    std::string rel;    //!< root-relative ('/'), or a file root as given
    std::string module; //!< first path component ("" at root)
    bool header = false;
    std::vector<CodeToken> code;
    std::vector<Token> pp;          //!< PpDirective tokens, raw text
    std::vector<std::string> lines; //!< TokenStream::strippedLines()
    std::vector<bool> blank;        //!< raw line is whitespace-only
    Directives directives;

    /**
     * Is a `rule` finding on `line` suppressed? File-wide allows and
     * allows on the line itself always count. An allow on an earlier
     * line counts while no blank line and no completed statement
     * (a code line ending in ';', '{' or '}') sits between — so one
     * allow above a wrapped statement covers every continuation line.
     * The walk is bounded: statements wrap a few lines, not dozens.
     */
    bool
    allows(int line, const std::string &rule) const
    {
        auto allowedAt = [&](int n) {
            auto it = directives.lineAllows.find(n);
            return it != directives.lineAllows.end() &&
                   listCovers(it->second, rule);
        };
        if (listCovers(directives.fileAllows, rule) || allowedAt(line))
            return true;
        for (int n = line - 1, steps = 0;
             n >= 1 && steps < 8 &&
             static_cast<std::size_t>(n) <= lines.size();
             --n, ++steps) {
            if (blank[n - 1])
                return false;
            if (allowedAt(n))
                return true;
            std::size_t last = lines[n - 1].find_last_not_of(" \t");
            char end = last == std::string::npos ? ' ' : lines[n - 1][last];
            if (end == ';' || end == '{' || end == '}')
                return false;
        }
        return false;
    }
};

/** Lex one file's source into a SourceFile keyed by `rel`. */
inline SourceFile
lexFile(const std::string &rel, const std::string &src)
{
    TokenStream ts(src);
    SourceFile f;
    f.rel = rel;
    std::size_t slash = rel.find('/');
    f.module =
        slash == std::string::npos ? std::string() : rel.substr(0, slash);
    std::string ext = std::filesystem::path(rel).extension().string();
    f.header = ext == ".hh" || ext == ".hpp";
    f.code = ts.code();
    for (const auto &t : ts.all())
        if (t.kind == TokKind::PpDirective)
            f.pp.push_back(t);
    f.lines = ts.strippedLines();
    std::istringstream in(src);
    for (std::string line; std::getline(in, line);)
        f.blank.push_back(line.find_first_not_of(" \t") ==
                          std::string::npos);
    f.blank.resize(f.lines.size(), true);
    f.directives = parseDirectives(ts.comments());
    return f;
}

/** The whole analyzed tree: each root's files, sorted by path. */
struct SourceTree
{
    std::vector<SourceFile> files;
    std::vector<Diag> diags;

    /** The file an include of `rel` resolves to: first root wins. */
    const SourceFile *
    find(const std::string &rel) const
    {
        for (const auto &f : files)
            if (f.rel == rel)
                return &f;
        return nullptr;
    }

    /** Report unless an allow directive covers it. */
    void
    report(const SourceFile &f, int line, const char *rule,
           std::string message)
    {
        if (!f.allows(line, rule))
            diags.push_back({f.rel, line, rule, std::move(message), f.root});
    }
};

inline bool
analyzableFile(const std::filesystem::path &p)
{
    auto ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".hpp";
}

/**
 * Load and lex every C++ file under each root, as one tree. A root may
 * also be a single file: it keeps its path as given for `rel` (so the
 * per-file rules still see its obs/, sim/ or runner/ directories), an
 * empty `root`, and no module to layer.
 */
inline SourceTree
loadTree(const std::vector<std::string> &roots)
{
    namespace fs = std::filesystem;
    SourceTree tree;
    for (const auto &root : roots) {
        std::vector<fs::path> paths;
        bool single = fs::is_regular_file(root);
        if (single)
            paths.emplace_back(root);
        else
            for (const auto &entry : fs::recursive_directory_iterator(root))
                if (entry.is_regular_file() &&
                    analyzableFile(entry.path()))
                    paths.push_back(entry.path());
        std::sort(paths.begin(), paths.end());
        std::string base = single ? "" : root;
        while (base.size() > 1 && base.back() == '/')
            base.pop_back();

        for (const auto &p : paths) {
            std::ifstream in(p);
            if (!in)
                continue;
            std::ostringstream ss;
            ss << in.rdbuf();
            SourceFile f =
                lexFile(single ? p.lexically_normal().generic_string()
                               : fs::relative(p, root).generic_string(),
                        ss.str());
            f.root = base;
            if (single)
                f.module.clear();
            tree.files.push_back(std::move(f));
        }
    }
    return tree;
}

/**
 * The target of a quote include directive, or "" when the directive is
 * not a quote include (`#include <...>` and every other directive).
 */
inline std::string
quoteIncludeTarget(const std::string &directive_text)
{
    std::string flat = ppText(directive_text);
    std::size_t h = flat.find('#');
    if (h == std::string::npos)
        return "";
    std::size_t i = flat.find_first_not_of(" \t", h + 1);
    if (i == std::string::npos || flat.compare(i, 7, "include") != 0)
        return "";
    std::size_t open = flat.find('"', i + 7);
    if (open == std::string::npos)
        return "";
    std::size_t close = flat.find('"', open + 1);
    if (close == std::string::npos)
        return "";
    return flat.substr(open + 1, close - open - 1);
}

} // namespace hopp::analysis

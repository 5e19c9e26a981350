/**
 * @file
 * hopp-report: render one run's stats and metrics artifacts as a
 * single markdown report.
 *
 *   hopp-report [--stats FILE] [--metrics FILE] [--out FILE.md]
 *
 * Inputs (at least one required):
 *   --stats FILE     hopp-run --stats-json output
 *   --metrics FILE   hopp-run --metrics-out CSV
 *
 * The markdown goes to stdout, or to --out FILE.md. Host speed is not
 * measured here: perfbench/ is the one benchmark.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace json = hopp::obs::json;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--stats FILE] [--metrics FILE] [--out FILE.md]\n",
        argv0);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "hopp-report: cannot open '%s'\n",
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

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "hopp-report: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return n == content.size();
}

bool
loadJson(const std::string &path, json::Value &out)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string err;
    if (!json::parse(text, out, &err)) {
        std::fprintf(stderr, "hopp-report: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

/** One numeric leaf of a JSON document, addressed by dotted path. */
struct Leaf
{
    std::string path;
    double value = 0.0;
};

void
flatten(const json::Value &v, const std::string &prefix,
        std::vector<Leaf> &out)
{
    if (v.isNumber()) {
        out.push_back({prefix, v.number()});
        return;
    }
    if (v.isBool()) {
        // Booleans render as 0/1 rather than vanishing from the table.
        out.push_back({prefix, v.boolean() ? 1.0 : 0.0});
        return;
    }
    if (v.isObject()) {
        for (const auto &[k, m] : v.members())
            flatten(m, prefix.empty() ? k : prefix + "." + k, out);
        return;
    }
    if (v.isArray()) {
        for (std::size_t i = 0; i < v.items().size(); ++i)
            flatten(v.items()[i], prefix + "[" + std::to_string(i) + "]",
                    out);
    }
    // Strings/null carry no magnitude.
}

std::string
fmtNum(double v)
{
    char buf[64];
    // %.6g keeps counts exact and rates readable, deterministically.
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

struct Options
{
    std::string stats, metrics, outMd;
};

/** metrics CSV column summary. */
struct ColumnSummary
{
    std::string name;
    double last = 0.0, min = 0.0, max = 0.0;
    std::size_t samples = 0;
};

bool
summarizeCsv(const std::string &text, std::vector<ColumnSummary> &out)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (end > start)
            lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    if (lines.empty())
        return false;
    // Header row names the columns.
    std::size_t col_start = 0;
    const std::string &hdr = lines.front();
    while (col_start <= hdr.size()) {
        std::size_t c = hdr.find(',', col_start);
        if (c == std::string::npos)
            c = hdr.size();
        ColumnSummary cs;
        cs.name = hdr.substr(col_start, c - col_start);
        out.push_back(std::move(cs));
        col_start = c + 1;
    }
    for (std::size_t r = 1; r < lines.size(); ++r) {
        std::size_t pos = 0;
        for (ColumnSummary &cs : out) {
            std::size_t c = lines[r].find(',', pos);
            if (c == std::string::npos)
                c = lines[r].size();
            double v = std::strtod(lines[r].c_str() + pos, nullptr);
            if (cs.samples == 0) {
                cs.min = cs.max = v;
            } else {
                cs.min = std::min(cs.min, v);
                cs.max = std::max(cs.max, v);
            }
            cs.last = v;
            ++cs.samples;
            pos = c + 1;
            if (c == lines[r].size())
                break;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "hopp-report: %s needs a value\n",
                             what);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--stats") {
            opt.stats = need("--stats");
        } else if (arg == "--metrics") {
            opt.metrics = need("--metrics");
        } else if (arg == "--out") {
            opt.outMd = need("--out");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "hopp-report: unknown argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.stats.empty() && opt.metrics.empty()) {
        usage(argv[0]);
        return 2;
    }

    std::string md;
    md += "# HoPP run report\n";

    // ---- Stats ----------------------------------------------------
    if (!opt.stats.empty()) {
        json::Value stats;
        if (!loadJson(opt.stats, stats))
            return 2;
        std::vector<Leaf> leaves;
        flatten(stats, "", leaves);
        md += "\n## Stats: " + opt.stats + "\n\n";
        md += "| counter | value |\n|---|---:|\n";
        for (const Leaf &l : leaves)
            md += "| " + l.path + " | " + fmtNum(l.value) + " |\n";
    }

    // ---- Metrics CSV ----------------------------------------------
    if (!opt.metrics.empty()) {
        std::string text;
        if (!readFile(opt.metrics, text))
            return 2;
        std::vector<ColumnSummary> cols;
        if (summarizeCsv(text, cols)) {
            md += "\n## Metrics: " + opt.metrics + "\n\n";
            md += "| gauge | last | min | max | samples |\n"
                  "|---|---:|---:|---:|---:|\n";
            for (const ColumnSummary &c : cols) {
                md += "| " + c.name + " | " + fmtNum(c.last) + " | " +
                      fmtNum(c.min) + " | " + fmtNum(c.max) + " | " +
                      std::to_string(c.samples) + " |\n";
            }
        }
    }

    if (!opt.outMd.empty()) {
        if (!writeFile(opt.outMd, md))
            return 2;
    } else {
        std::fputs(md.c_str(), stdout);
    }
    return 0;
}

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
 * A file that cannot be read, a --stats document that is not JSON, and
 * a --metrics row whose cell count differs from the header's or with a
 * cell that is not a number as a whole each get one stderr line naming
 * the file, and exit 2.
 *
 * The markdown goes to stdout, or to --out FILE.md. Host speed is not
 * measured here: perfbench/ is the one benchmark.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli/flags.hh"
#include "obs/json.hh"
#include "obs/trace_writer.hh"

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

/** obs::readFile, with the tool's one stderr line when it fails. */
bool
readText(const std::string &path, std::string &out)
{
    if (hopp::obs::readFile(path, out))
        return true;
    std::fprintf(stderr, "hopp-report: cannot open '%s'\n", path.c_str());
    return false;
}

bool
loadJson(const std::string &path, json::Value &out)
{
    std::string text;
    if (!readText(path, text))
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

/** The comma-separated cells of one CSV line. */
std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::size_t pos = 0;
    for (;;) {
        std::size_t c = line.find(',', pos);
        cells.push_back(line.substr(pos, c == std::string::npos
                                             ? std::string::npos
                                             : c - pos));
        if (c == std::string::npos)
            return cells;
        pos = c + 1;
    }
}

/**
 * Summarize a --metrics-out CSV into one entry per header column.
 * Every data row must have the header's cell count, and every cell
 * must be a number as a whole (cli::parseReal); otherwise print one
 * stderr line naming @p path and the line, and return false.
 */
bool
summarizeCsv(const std::string &path, const std::string &text,
             std::vector<ColumnSummary> &out)
{
    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        ++line_no;
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        std::vector<std::string> cells = splitCells(line);
        if (out.empty()) {
            // Header row names the columns.
            for (std::string &name : cells)
                out.push_back({std::move(name)});
            continue;
        }
        if (cells.size() != out.size()) {
            std::fprintf(stderr,
                         "hopp-report: %s: line %zu: cell count %zu, the "
                         "header has %zu\n",
                         path.c_str(), line_no, cells.size(), out.size());
            return false;
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            double v = hopp::cli::parseReal(cells[i].c_str());
            if (std::isnan(v)) {
                std::fprintf(stderr,
                             "hopp-report: %s: line %zu: '%s' in column "
                             "'%s' is not a number\n",
                             path.c_str(), line_no, cells[i].c_str(),
                             out[i].name.c_str());
                return false;
            }
            ColumnSummary &cs = out[i];
            if (cs.samples == 0) {
                cs.min = cs.max = v;
            } else {
                cs.min = std::min(cs.min, v);
                cs.max = std::max(cs.max, v);
            }
            cs.last = v;
            ++cs.samples;
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
        if (!readText(opt.metrics, text))
            return 2;
        std::vector<ColumnSummary> cols;
        if (!summarizeCsv(opt.metrics, text, cols))
            return 2;
        if (!cols.empty()) {
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
        if (!hopp::obs::writeFile(opt.outMd, md))
            return 2;
    } else {
        std::fputs(md.c_str(), stdout);
    }
    return 0;
}

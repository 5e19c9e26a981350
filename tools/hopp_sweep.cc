/**
 * @file
 * hopp-sweep: run a cross-product of configurations, optionally in
 * parallel, and emit one deterministic JSON document.
 *
 *   hopp-sweep [--workload NAME]... [--system NAME]... [--ratio F]...
 *              [--scale F] [--iterations F] [--seed N] [--jobs N]
 *              [--out FILE]
 *
 * The sweep is the cross product workload x system x ratio, enumerated
 * workload-major. Each configuration runs on its own fully-independent
 * Machine; with --jobs N the runs execute on N host threads through
 * runner::SweepPool. Every run renders its own result fragment (stats
 * JSON included) inside its task, and fragments are concatenated in
 * submission order — so the output is byte-identical for every --jobs
 * value, which the sweep.determinism ctest and the CI sweep smoke
 * verify by diffing --jobs 1 against --jobs 4. --jobs deliberately
 * does not appear in the document.
 *
 * Examples:
 *   hopp-sweep --workload kmeans-omp --system hopp --system fastswap \
 *              --ratio 0.3 --ratio 0.5 --ratio 0.7 --jobs 4
 *   hopp-sweep --workload microbench --scale 0.2 --out sweep.json
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hh"
#include "obs/trace_writer.hh"
#include "runner/machine.hh"
#include "runner/stats_report.hh"
#include "runner/sweep_pool.hh"

using namespace hopp;
using namespace hopp::runner;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME  workload (repeatable; default kmeans-omp)\n"
        "  --system NAME    system under test (repeatable; default"
        " hopp)\n"
        "  --ratio F        local memory / footprint (repeatable;"
        " default 0.5)\n"
        "  --scale F        footprint scale factor (default 1.0)\n"
        "  --iterations F   iteration scale factor (default 1.0)\n"
        "  --seed N         workload seed (default 42)\n"
        "  --jobs N         host worker threads (default 1; 0 = all"
        " cores)\n"
        "  --out FILE       write the document to FILE (default"
        " stdout)\n",
        argv0);
}

/** One cell of the cross product. */
struct SweepConfig
{
    std::string workload;
    SystemKind system;
    std::string ratioText; //!< as given on the command line
    double ratio;
};

/** Indent every line of a rendered JSON block by @p pad spaces. */
std::string
indent(const std::string &text, int pad)
{
    std::string out;
    std::string prefix(static_cast<std::size_t>(pad), ' ');
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > start)
            out += prefix + text.substr(start, nl - start);
        out += '\n';
        start = nl + 1;
    }
    // Drop the trailing newline so the caller controls separators.
    if (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

/**
 * Run one configuration and render its complete result fragment. All
 * state — Machine, stats, the rendered string — is local to the call,
 * which is what makes the sweep safe to parallelize.
 */
std::string
runOneConfig(const SweepConfig &sc, const workloads::WorkloadScale &scale,
             std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.system = sc.system;
    cfg.localMemRatio = sc.ratio;
    Machine machine(cfg);
    // Seed offset mirrors hopp-run's single-workload seeding, so a
    // sweep cell reproduces the matching hopp-run invocation exactly.
    machine.addWorkload(
        workloads::makeWorkload(sc.workload, scale, seed + 1));
    RunResult r = machine.run();

    std::string out;
    out += "    {\n";
    out += "      \"workload\": \"" + sc.workload + "\",\n";
    out += "      \"system\": \"" + std::string(systemName(sc.system)) +
           "\",\n";
    out += "      \"ratio\": " + sc.ratioText + ",\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f", toDouble(r.makespan));
    out += "      \"makespan_ns\": " + std::string(buf) + ",\n";
    out += "      \"stats\":\n" + indent(statsJson(machine), 6) + "\n";
    out += "    }";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workload_names;
    std::vector<SystemKind> systems;
    std::vector<std::pair<std::string, double>> ratios;
    workloads::WorkloadScale scale;
    std::optional<std::uint64_t> seed = 42;
    std::optional<unsigned> jobs = 1;
    std::string out_path;
    const std::vector<std::string> known = workloads::knownWorkloadNames();

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            usage(argv[0]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workload") {
            const char *name = need(i);
            if (std::find(known.begin(), known.end(), name) == known.end())
                return cli::rejectName("hopp-sweep", "--workload", name);
            workload_names.push_back(name);
        } else if (arg == "--system") {
            const char *name = need(i);
            std::optional<SystemKind> kind = parseSystem(name);
            if (!kind)
                return cli::rejectName("hopp-sweep", "--system", name);
            systems.push_back(*kind);
        } else if (arg == "--ratio") {
            std::string text = need(i);
            ratios.emplace_back(text, cli::parseReal(text.c_str()));
        } else if (arg == "--scale") {
            scale.footprint = cli::parseReal(need(i));
        } else if (arg == "--iterations") {
            scale.iterations = cli::parseReal(need(i));
        } else if (arg == "--seed") {
            seed = cli::parseWhole<std::uint64_t>(need(i));
        } else if (arg == "--jobs") {
            jobs = cli::parseWhole<unsigned>(need(i));
        } else if (arg == "--out") {
            out_path = need(i);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    std::vector<double> ratio_values;
    for (const auto &ratio : ratios)
        ratio_values.push_back(ratio.second);
    if (int rc = cli::checkFlags("hopp-sweep",
                                 {.ratios = ratio_values,
                                  .scale = scale.footprint,
                                  .iterations = scale.iterations,
                                  .seed = seed,
                                  .jobs = jobs}))
        return rc;
    if (workload_names.empty())
        workload_names.push_back("kmeans-omp");
    if (systems.empty())
        systems.push_back(SystemKind::Hopp);
    if (ratios.empty())
        ratios.emplace_back("0.5", 0.5);

    // Cross product, workload-major: the submission order IS the
    // document order, whatever --jobs is.
    std::vector<SweepConfig> configs;
    for (const auto &w : workload_names)
        for (SystemKind s : systems)
            for (const auto &[text, value] : ratios)
                configs.push_back(SweepConfig{w, s, text, value});

    SweepPool pool(*jobs == 0 ? SweepPool::hardwareJobs() : *jobs);
    std::vector<std::string> fragments = pool.run<std::string>(
        configs.size(), [&](std::size_t i) {
            return runOneConfig(configs[i], scale, *seed);
        });

    std::string doc;
    doc += "{\n";
    doc += "  \"schema\": \"hopp-sweep-v1\",\n";
    doc += "  \"runs\": [\n";
    for (std::size_t i = 0; i < fragments.size(); ++i) {
        doc += fragments[i];
        doc += i + 1 < fragments.size() ? ",\n" : "\n";
    }
    doc += "  ]\n";
    doc += "}\n";

    if (out_path.empty()) {
        std::fputs(doc.c_str(), stdout);
        return 0;
    }
    return obs::writeFile(out_path, doc) ? 0 : 1;
}

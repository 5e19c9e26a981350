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
 * runner::SweepPool. Each task returns its run's values (stats and
 * makespan), and the main thread renders the document from them in
 * submission order through stats::JsonWriter — so the output is valid
 * JSON for every accepted input and byte-identical for every --jobs
 * value, which the hopp_sweep.determinism ctest verifies by diffing
 * --jobs 1 against --jobs 4. --jobs deliberately does not appear in
 * the document. Each `ratio` is written in its shortest round-trip
 * form, so `--ratio .5` reads back as 0.5.
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
#include "stats/json_writer.hh"

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
    double ratio;
};

/** What one run contributes to the document. */
struct RunOut
{
    stats::JsonFields stats;
    Tick makespan;
};

/**
 * Run one configuration. All state — Machine and stats — is local to
 * the call, which is what makes the sweep safe to parallelize.
 */
RunOut
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
    return RunOut{statsFields(machine), r.makespan};
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workload_names;
    std::vector<SystemKind> systems;
    std::vector<double> ratios;
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
            ratios.push_back(cli::parseReal(need(i)));
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
    if (int rc = cli::checkFlags("hopp-sweep",
                                 {.ratios = ratios,
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
        ratios.push_back(0.5);

    // Cross product, workload-major: the submission order IS the
    // document order, whatever --jobs is.
    std::vector<SweepConfig> configs;
    for (const auto &w : workload_names)
        for (SystemKind s : systems)
            for (double ratio : ratios)
                configs.push_back(SweepConfig{w, s, ratio});

    SweepPool pool(*jobs == 0 ? SweepPool::hardwareJobs() : *jobs);
    std::vector<RunOut> runs = pool.run<RunOut>(
        configs.size(), [&](std::size_t i) {
            return runOneConfig(configs[i], scale, *seed);
        });

    stats::JsonWriter w;
    w.beginObject();
    w.key("schema").value("hopp-sweep-v1");
    w.key("runs").beginArray();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        w.beginObject();
        w.key("workload").value(configs[i].workload);
        w.key("system").value(systemName(configs[i].system));
        w.key("ratio").shortest(configs[i].ratio);
        w.key("makespan_ns").value(toDouble(runs[i].makespan));
        w.key("stats").fields(runs[i].stats);
        w.end();
    }
    w.end();
    std::string doc = w.end().finish();

    if (out_path.empty()) {
        std::fputs(doc.c_str(), stdout);
        return 0;
    }
    return obs::writeFile(out_path, doc) ? 0 : 1;
}

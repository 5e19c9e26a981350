/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: scale
 * and parallelism control via HOPP_BENCH_SCALE and HOPP_BENCH_JOBS,
 * cached local-baseline completion times, and run shorthands.
 */

#ifndef HOPP_BENCH_HARNESS_HH
#define HOPP_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hh"
#include "runner/machine.hh"
#include "runner/sweep_pool.hh"
#include "stats/table.hh"
#include "workloads/apps.hh"

namespace hopp::bench
{

/** A set but bad bench variable: one stderr line, exit 2. */
[[noreturn]] inline void
rejectEnv(const char *var, const char *text, const char *want)
{
    std::fprintf(stderr, "%s must be %s, got '%s'\n", var, want, text);
    std::exit(2);
}

/** Workload scale, overridable with HOPP_BENCH_SCALE (default 1.0). */
inline workloads::WorkloadScale
benchScale()
{
    workloads::WorkloadScale s;
    if (const char *env = std::getenv("HOPP_BENCH_SCALE")) {
        double v = cli::parseReal(env);
        if (!(v > 0))
            rejectEnv("HOPP_BENCH_SCALE", env, "a number > 0");
        s.footprint = v;
        s.iterations = v < 1.0 ? v : 1.0;
    }
    return s;
}

/**
 * Host worker threads for sweep prefills, overridable with
 * HOPP_BENCH_JOBS (default 1 = serial; 0 = all cores).
 */
inline unsigned
benchJobs()
{
    const char *env = std::getenv("HOPP_BENCH_JOBS");
    if (!env)
        return 1;
    std::optional<unsigned> v = cli::parseWhole<unsigned>(env);
    if (!v)
        rejectEnv("HOPP_BENCH_JOBS", env, "a whole number (0 = all cores)");
    return *v == 0 ? runner::SweepPool::hardwareJobs() : *v;
}

/**
 * Both variables are parsed whole (tools/cli/flags.hh) during static
 * initialization, so a bad value stops the bench before main() builds
 * any machine.
 */
inline const bool benchEnvChecked = [] {
    benchScale();
    benchJobs();
    return true;
}();

/** One configuration of a bench sweep grid. */
struct RunSpec
{
    std::string workload;
    runner::SystemKind system;
    double ratio;
};

/**
 * Run cache: local baselines are shared across figures within one
 * binary, and identical (workload, system, ratio) runs reuse results.
 */
class RunCache
{
  public:
    explicit RunCache(runner::MachineConfig base = {})
        : base_(std::move(base))
    {
    }

    /** Run (or fetch) one configuration. */
    const runner::RunResult &
    run(const std::string &workload, runner::SystemKind system,
        double ratio)
    {
        std::string key = keyOf(workload, system, ratio);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
        auto result =
            runner::runOne(workload, system, ratio, benchScale(), base_);
        return cache_.emplace(key, std::move(result)).first->second;
    }

    /** CT_local of a workload. */
    Tick
    localTime(const std::string &workload)
    {
        return run(workload, runner::SystemKind::Local, 1.0).makespan;
    }

    /** Normalized performance of one run (paper §VI-A). */
    double
    normPerf(const std::string &workload, runner::SystemKind system,
             double ratio)
    {
        return runner::normalizedPerformance(
            localTime(workload), run(workload, system, ratio).makespan);
    }

    /**
     * Run a whole grid up front on @p jobs host threads and cache the
     * results, so the figure loops below hit the cache instead of
     * simulating serially. Runs are fully independent Machines
     * (runner::SweepPool's contract), and results are inserted in
     * submission order, so the cache contents — and every number
     * derived from them — are identical to a serial fill. Specs
     * already cached (duplicates included) are skipped.
     */
    void
    prefill(const std::vector<RunSpec> &specs, unsigned jobs)
    {
        std::vector<const RunSpec *> todo;
        std::map<std::string, bool> seen;
        for (const RunSpec &s : specs) {
            std::string key = keyOf(s.workload, s.system, s.ratio);
            if (cache_.count(key) || seen.count(key))
                continue;
            seen.emplace(std::move(key), true);
            todo.push_back(&s);
        }
        runner::SweepPool pool(jobs);
        std::vector<runner::RunResult> results =
            pool.run<runner::RunResult>(
                todo.size(), [&](std::size_t i) {
                    const RunSpec &s = *todo[i];
                    return runner::runOne(s.workload, s.system, s.ratio,
                                          benchScale(), base_);
                });
        for (std::size_t i = 0; i < todo.size(); ++i) {
            const RunSpec &s = *todo[i];
            cache_.emplace(keyOf(s.workload, s.system, s.ratio),
                           std::move(results[i]));
        }
    }

    /** Mutable base config (set before the first run). */
    runner::MachineConfig &base() { return base_; }

  private:
    static std::string
    keyOf(const std::string &workload, runner::SystemKind system,
          double ratio)
    {
        return workload + "/" + runner::systemName(system) + "/" +
               stats::Table::num(ratio, 3);
    }

    runner::MachineConfig base_;
    std::map<std::string, runner::RunResult> cache_;
};

} // namespace hopp::bench

#endif // HOPP_BENCH_HARNESS_HH

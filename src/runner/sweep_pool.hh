/**
 * @file
 * SweepPool: host-parallel execution of independent simulation runs.
 *
 * The figure-reproduction benches sweep dozens of (workload, system,
 * ratio) configurations, and every run is a pure function of its
 * config — one Machine, one event queue, zero shared mutable state.
 * That makes a sweep embarrassingly parallel on the host without
 * touching simulated time: the pool hands each worker the next
 * undispatched index and commits results by SUBMISSION index, so the
 * result vector is identical whatever order the workers finish in.
 *
 * Determinism contract (DESIGN.md §10): for any task function whose
 * result depends only on its index, run(n, fn) with jobs = k returns
 * the same vector for every k. Tasks must not share mutable state;
 * each builds its own Machine and renders its own output. The first
 * task exception is captured and rethrown on the submitting thread
 * after all workers join.
 *
 * This header is the ONLY place in src/ and tools/ allowed to use raw
 * thread primitives (enforced by hopp_analyze's thread-primitive rule):
 * simulation code must stay single-threaded and deterministic, and
 * host parallelism stays quarantined behind this index-based API.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hopp::runner
{

/**
 * Fixed-width worker pool for independent, index-addressed tasks.
 */
class SweepPool
{
  public:
    /** @param jobs worker count; <= 1 means run inline, serially. */
    explicit SweepPool(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {}

    /** Worker count in effect. */
    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate fn(0) .. fn(count - 1) and return the results indexed
     * by submission order. @tparam R result type (default-constructed
     * then assigned, so it must be default-constructible and movable).
     */
    template <typename R, typename Fn>
    std::vector<R>
    run(std::size_t count, Fn fn)
    {
        std::vector<R> results(count);
        if (jobs_ <= 1 || count <= 1) {
            // Inline serial path: no threads at all, the reference
            // behaviour the parallel path must be indistinguishable
            // from.
            for (std::size_t i = 0; i < count; ++i)
                results[i] = fn(i);
            return results;
        }

        std::atomic<std::size_t> next{0};
        std::exception_ptr first_error;
        std::mutex error_mu;
        auto worker = [&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                try {
                    results[i] = fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mu);
                    if (!first_error)
                        first_error = std::current_exception();
                    return;
                }
            }
        };

        std::size_t workers =
            jobs_ < count ? jobs_ : static_cast<unsigned>(count);
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
        if (first_error)
            std::rethrow_exception(first_error);
        return results;
    }

    /**
     * Worker count to use when the caller wants "the machine's
     * parallelism": hardware concurrency, floored at 1.
     */
    static unsigned
    hardwareJobs()
    {
        unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : n;
    }

  private:
    unsigned jobs_;
};

} // namespace hopp::runner


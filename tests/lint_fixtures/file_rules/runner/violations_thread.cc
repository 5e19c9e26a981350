/**
 * @file
 * Lint fixture: the thread-primitive rule forbids raw std::thread /
 * mutex / atomic (and friends) outside runner/sweep* — simulation
 * results are a pure function of config + seed, which only holds while
 * simulation code stays single-threaded; the sanctioned host
 * parallelism is whole independent runs behind runner::SweepPool's
 * index-ordered API. This file sits under a runner/ path but is NOT a
 * sweep file, so every primitive below is a violation. Each line
 * carries a hopp-analyze-expect marker; the self-test verifies the
 * analyzer reports exactly these. The sibling sweep_clean.cc proves
 * the runner/sweep* carve-out.
 */

#include <atomic>
#include <mutex>
#include <thread>

namespace hopp::runner
{

std::mutex badLock;              // hopp-analyze-expect(thread-primitive)
std::atomic<int> badCounter{0};  // hopp-analyze-expect(thread-primitive)
std::atomic_flag badFlag = ATOMIC_FLAG_INIT; // hopp-analyze-expect(thread-primitive)

inline void
racyHelper()
{
    std::lock_guard<std::mutex> lock(badLock); // hopp-analyze-expect(thread-primitive)
    std::thread t([] {});                      // hopp-analyze-expect(thread-primitive)
    std::atomic_thread_fence(std::memory_order_seq_cst); // hopp-analyze-expect(thread-primitive)
    t.join();
}

// Host-side glue far from simulated state may justify the escape
// hatch, spelled exactly like the other rules':
// hopp-analyze: allow(thread-primitive)
std::atomic<bool> justifiedFlag{false};

} // namespace hopp::runner

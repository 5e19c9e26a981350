/**
 * @file
 * Lint fixture: the tree-wide wall-clock rule. std::chrono and any of
 * its clocks, by qualified or bare name, anywhere is an error —
 * simulated components must take time from sim::EventQueue ticks,
 * never the host. Every violating line
 * carries a hopp-analyze-expect marker; the self-test verifies the
 * analyzer reports exactly these.
 */

#include <chrono>

namespace hopp::vm
{

inline std::uint64_t
fakeFaultTimestamp()
{
    auto t = std::chrono::steady_clock::now(); // hopp-analyze-expect(wall-clock)
    auto s = std::chrono::system_clock::now(); // hopp-analyze-expect(wall-clock)
    return static_cast<std::uint64_t>(
        t.time_since_epoch().count() + s.time_since_epoch().count());
}

inline std::uint64_t
fakeEpochSeconds()
{
    return static_cast<std::uint64_t>(time(nullptr)); // hopp-analyze-expect(wall-clock)
}

inline std::uint64_t
fakeCalendarStamp()
{
    using namespace std::chrono; // hopp-analyze-expect(wall-clock)
    auto u = utc_clock::now();   // hopp-analyze-expect(wall-clock)
    auto f = file_clock::now();  // hopp-analyze-expect(wall-clock)
    return static_cast<std::uint64_t>(
        u.time_since_epoch().count() + f.time_since_epoch().count());
}

} // namespace hopp::vm

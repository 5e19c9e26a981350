/**
 * @file
 * Lint fixture: the obs-chrono rule forbids wall-clock machinery in
 * any obs/ directory — flight-recorder timestamps must be simulator
 * ticks so recorded traces are byte-identical across runs. Every
 * violating line carries a hopp-analyze-expect marker; the self-test
 * verifies the analyzer reports exactly these.
 */

#include <chrono> // hopp-analyze-expect(obs-chrono)

namespace hopp::obs
{

inline double
wallSeconds()
{
    using wall = std::chrono::steady_clock; // hopp-analyze-expect(obs-chrono, wall-clock)
    auto since = wall::now().time_since_epoch();
    return std::chrono::duration<double>(since).count(); // hopp-analyze-expect(obs-chrono, wall-clock)
}

} // namespace hopp::obs

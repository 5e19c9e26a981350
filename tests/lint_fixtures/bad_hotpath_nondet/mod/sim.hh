// Seeded violations for the hot-path nondeterminism families: the
// root Sim::tick reads the wall clock (through std::chrono, and through
// a clock named bare after a using-directive), seeds a host RNG, and
// iterates an unordered container (hash order varies across
// libraries).
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <unordered_map>

namespace fixture
{

class Sim
{
  public:
    std::uint64_t
    tick()
    {
        // hopp-analyze: allow(wall-clock) -- seeded analyzer fixture
        auto t0 = std::chrono::steady_clock::now(); // hopp-analyze-expect(hotpath-clock)
        // hopp-analyze: allow(wall-clock) -- seeded analyzer fixture
        using namespace std::chrono; // hopp-analyze-expect(hotpath-clock)
        // hopp-analyze: allow(wall-clock) -- seeded analyzer fixture
        auto t1 = utc_clock::now(); // hopp-analyze-expect(hotpath-clock)
        std::mt19937_64 gen(seed_); // hopp-analyze-expect(hotpath-rng, raw-rand)
        std::uint64_t sum = gen();
        // hopp-analyze: allow(unordered-iter) -- seeded analyzer fixture
        for (auto &kv : map_) // hopp-analyze-expect(hotpath-unordered)
            sum += kv.second;
        sum += static_cast<std::uint64_t>(
            t0.time_since_epoch().count() + t1.time_since_epoch().count());
        return sum;
    }

  private:
    std::uint64_t seed_ = 1;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
};

} // namespace fixture

/**
 * @file
 * Self-profiler report side: enable/collect/reset and the
 * `hopp-profile-v1` JSON renderer. Only report-time consumers
 * (runner, tools, bench) link this TU; the record path lives entirely
 * in profiler.hh so instrumented layers stay link-independent.
 */

#include "obs/profiler.hh"

#include <cstdio>

namespace hopp::obs::prof
{

const char *
zoneName(Zone z)
{
    switch (z) {
    case Zone::Run:
        return "run";
    case Zone::AccessPump:
        return "access_pump";
    case Zone::EventDispatch:
        return "event_dispatch";
    case Zone::WorkloadGen:
        return "workload_gen";
    case Zone::VmsAccess:
        return "vms_access";
    case Zone::RadixWalk:
        return "radix_walk";
    case Zone::FaultPath:
        return "fault_path";
    case Zone::Llc:
        return "llc";
    case Zone::Reclaim:
        return "reclaim";
    case Zone::LinkTransfer:
        return "link_transfer";
    case Zone::HoppDrain:
        return "hopp_drain";
    case Zone::InvariantCheck:
        return "invariant_check";
    case Zone::MetricsSample:
        return "metrics_sample";
    case Zone::MachineBuild:
        return "machine_build";
    case Zone::Count:
        break;
    }
    return "unknown";
}

void
enable(bool on)
{
    detail::g_enabled = on;
}

Report
collect()
{
    Report r;
    detail::Registry &reg = detail::registry();
    // Report-side registry access, not simulation.
    // hopp-analyze: allow(thread-primitive)
    const std::lock_guard<std::mutex> lock(reg.mu);
    for (unsigned z = 0; z < zoneCount; ++z)
        r.zones[z] = reg.retired[z];
    for (const ZoneTable *t : reg.live) {
        const std::array<ZoneSlot, zoneCount> &slots = t->slots();
        for (unsigned z = 0; z < zoneCount; ++z) {
            r.zones[z].totalNs += slots[z].totalNs;
            r.zones[z].childNs += slots[z].childNs;
            r.zones[z].count += slots[z].count;
        }
    }
    return r;
}

void
reset()
{
    detail::Registry &reg = detail::registry();
    // Report-side registry access, not simulation.
    // hopp-analyze: allow(thread-primitive)
    const std::lock_guard<std::mutex> lock(reg.mu);
    for (ZoneSlot &s : reg.retired)
        s = ZoneSlot{};
    for (ZoneTable *t : reg.live)
        t->clearCounts();
}

std::uint64_t
Report::attributedNs() const
{
    std::uint64_t sum = 0;
    for (unsigned z = 0; z < zoneCount; ++z) {
        if (static_cast<Zone>(z) == Zone::Run)
            continue;
        sum += selfNs(static_cast<Zone>(z));
    }
    return sum;
}

double
Report::attributedFraction() const
{
    const std::uint64_t wall = wallNs();
    if (wall == 0)
        return 0.0;
    return static_cast<double>(attributedNs()) /
           static_cast<double>(wall);
}

std::string
toJson(const Report &r)
{
    std::string out;
    out.reserve(2048);
    char buf[256];
    auto append = [&out, &buf](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof buf, fmt, args...);
        out += buf;
    };
    out += "{\n  \"schema\": \"hopp-profile-v1\",\n";
    append("  \"wall_ns\": %llu,\n",
           static_cast<unsigned long long>(r.wallNs()));
    append("  \"attributed_ns\": %llu,\n",
           static_cast<unsigned long long>(r.attributedNs()));
    append("  \"attributed_fraction\": %.6f,\n", r.attributedFraction());
    out += "  \"zones\": [\n";
    for (unsigned z = 0; z < zoneCount; ++z) {
        const Zone zone = static_cast<Zone>(z);
        const ZoneSlot &s = r.zones[z];
        append("    {\"zone\": \"%s\", \"total_ns\": %llu, "
               "\"self_ns\": %llu, \"count\": %llu}%s\n",
               zoneName(zone), static_cast<unsigned long long>(s.totalNs),
               static_cast<unsigned long long>(r.selfNs(zone)),
               static_cast<unsigned long long>(s.count),
               z + 1 < zoneCount ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace hopp::obs::prof

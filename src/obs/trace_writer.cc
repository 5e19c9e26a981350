#include "obs/trace_writer.hh"

#include <cstdio>

#include "stats/json_writer.hh"

namespace hopp::obs
{

namespace
{

/** Append nanoseconds as decimal microseconds, integer math only. */
void
appendMicros(std::string &out, std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buf;
}

/** Append one event as a trace_event JSON object. */
void
appendEvent(std::string &out, const TraceEvent &e)
{
    out += "{\"name\":";
    stats::appendJsonString(out, e.name);
    out += ",\"cat\":";
    stats::appendJsonString(out, e.cat);
    out += ",\"ph\":\"";
    out += e.ph;
    out += "\",\"ts\":";
    // Unit-change boundary: ticks leave the tagged domain here.
    appendMicros(out, e.ts.raw()); // hopp-analyze: allow(raw)
    if (e.ph == 'X') {
        out += ",\"dur\":";
        appendMicros(out, e.dur);
    }
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(e.tid);
    if (e.ph == 'b' || e.ph == 'e') {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                      static_cast<unsigned long long>(e.value));
        out += buf;
    }
    if (e.ph == 'C') {
        out += ",\"args\":{\"value\":";
        out += std::to_string(e.value);
        out += '}';
    }
    if (e.ph == 'i')
        out += ",\"s\":\"t\""; // thread-scoped instant
    out += '}';
}

} // namespace

std::string
toChromeJson(const Tracer &tracer)
{
    std::string out;
    out.reserve(tracer.size() * 96 + 64);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &e : tracer.sorted()) {
        if (!first)
            out += ",\n";
        first = false;
        appendEvent(out, e);
    }
    out += "]}\n";
    return out;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "obs: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = n == content.size() && std::fclose(f) == 0;
    if (!ok)
        std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
    return ok;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace hopp::obs

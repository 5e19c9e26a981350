// Binary trace serialisation is a designated raw boundary.
// hopp-analyze: allow-file(raw, page-shift)

#include "trace/trace_io.hh"

#include <cstdio>
#include <memory>

namespace hopp::trace
{

namespace
{

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
      case TraceIoStatus::Ok:
        return "ok";
      case TraceIoStatus::OpenFailed:
        return "open failed";
      case TraceIoStatus::WriteFailed:
        return "write failed";
      case TraceIoStatus::BadHeader:
        return "bad header";
      case TraceIoStatus::Truncated:
        return "truncated";
      case TraceIoStatus::Corrupt:
        return "corrupt";
    }
    return "unknown";
}

bool
writeTraceFile(const std::string &path,
               const std::vector<HmttRecord> &records)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    for (const auto &r : records) {
        std::uint64_t words[2] = {r.pack(), r.fullTime.raw()};
        if (std::fwrite(words, sizeof(words), 1, f.get()) != 1)
            return false;
    }
    return true;
}

TraceIoStatus
readTraceFile(const std::string &path, std::vector<HmttRecord> &out)
{
    out.clear();
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return TraceIoStatus::OpenFailed;
    std::uint64_t words[2];
    std::size_t got;
    while ((got = std::fread(words, sizeof(std::uint64_t), 2,
                             f.get())) == 2) {
        HmttRecord r = HmttRecord::unpack(words[0]);
        r.fullTime = Tick{words[1]};
        r.fullAddr =
            PhysAddr{static_cast<std::uint64_t>(r.addr29) << lineShift};
        out.push_back(r);
    }
    // A trailing partial record means the writer died mid-record (or
    // the file is not a trace at all) — report it instead of silently
    // dropping the tail.
    if (got != 0 || std::ferror(f.get()))
        return TraceIoStatus::Truncated;
    return TraceIoStatus::Ok;
}

} // namespace hopp::trace

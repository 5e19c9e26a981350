#include "hopp/rpt.hh"

#include "common/logging.hh"

namespace hopp::core
{

namespace
{

std::size_t
setsFor(const RptCacheConfig &cfg)
{
    std::uint64_t entries = cfg.capacityBytes / RptCache::entryBytes;
    std::uint64_t sets = entries / cfg.ways;
    hopp_assert(sets > 0, "RPT cache too small");
    while (sets & (sets - 1))
        sets &= sets - 1;
    return static_cast<std::size_t>(sets);
}

} // namespace

RptCache::RptCache(Rpt &rpt, mem::Dram &dram, const RptCacheConfig &cfg)
    : rpt_(rpt), dram_(dram), cache_(setsFor(cfg), cfg.ways)
{
}

void
RptCache::writeback(Ppn ppn, const Line &line)
{
    if (!line.dirty)
        return;
    ++stats_.writebacks;
    dram_.recordTraffic(mem::TrafficSource::RptUpdate, entryBytes);
    rpt_.store(ppn, line.entry);
}

std::optional<RptEntry>
RptCache::lookup(Ppn ppn)
{
    ++stats_.lookups;
    if (Line *line = cache_.touch(ppn)) {
        ++stats_.hits;
        return line->entry;
    }
    ++stats_.misses;
    dram_.recordTraffic(mem::TrafficSource::RptQuery, missFillBytes);
    auto from_dram = rpt_.load(ppn);
    if (!from_dram) {
        ++stats_.missUnmapped;
        return std::nullopt;
    }
    auto ev = cache_.insert(ppn, Line{*from_dram, false});
    if (ev)
        writeback(ev->tag, ev->value);
    return from_dram;
}

void
RptCache::update(Ppn ppn, const RptEntry &e)
{
    ++stats_.updates;
    auto ev = cache_.insert(ppn, Line{e, true});
    if (ev)
        writeback(ev->tag, ev->value);
}

void
RptCache::invalidate(Ppn ppn)
{
    // Erase the cached entry and write the removal through to the
    // DRAM RPT immediately: a tombstone line would pollute the small
    // cache for no benefit.
    ++stats_.invalidates;
    cache_.erase(ppn);
    ++stats_.writebacks;
    dram_.recordTraffic(mem::TrafficSource::RptUpdate, entryBytes);
    rpt_.erase(ppn);
}

} // namespace hopp::core

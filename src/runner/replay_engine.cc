#include "runner/replay_engine.hh"

#include <bit>
#include <cstdio>
#include <iterator>

#include "vm/page.hh"

namespace hopp::runner
{

namespace
{

/**
 * The hardware half of a HoppConfig — everything that shapes the
 * shared frontend (and the drain schedule). Cells of one fan-out must
 * agree on all of it, or the "probe once, fan out hot pages" premise
 * breaks.
 */
bool
sameHardware(const core::HoppConfig &a, const core::HoppConfig &b)
{
    return a.hpd.sets == b.hpd.sets && a.hpd.ways == b.hpd.ways &&
           a.hpd.threshold == b.hpd.threshold &&
           a.rptCache.capacityBytes == b.rptCache.capacityBytes &&
           a.rptCache.ways == b.rptCache.ways &&
           a.rptCache.entryBytes == b.rptCache.entryBytes &&
           a.rptCache.missFillBytes == b.rptCache.missFillBytes &&
           a.channels == b.channels &&
           a.channelInterleaved == b.channelInterleaved &&
           a.scaleThresholdWithChannels ==
               b.scaleThresholdWithChannels &&
           a.ringCapacity == b.ringCapacity &&
           a.trainerDelay == b.trainerDelay &&
           a.evictionAdvisor == b.evictionAdvisor &&
           a.warmWindow == b.warmWindow &&
           a.warmEntriesCap == b.warmEntriesCap;
}

} // namespace

void
ReplayEngine::CellSink::request(Pid pid, Vpn vpn, std::uint64_t,
                                core::Tier, Tick now)
{
    engine->oracleRequest(cell, pid, vpn, now);
}

unsigned
ReplayEngine::CellSink::requestBatch(Pid pid, Vpn vpn, unsigned count,
                                     std::uint64_t, core::Tier,
                                     Tick now)
{
    for (unsigned i = 0; i < count; ++i)
        engine->oracleRequest(cell, pid, vpn + i, now);
    return count;
}

std::size_t
ReplayEngine::CellSink::outstanding() const
{
    return engine->cells_[cell]->outstanding.size();
}

ReplayEngine::ReplayEngine(const ReplayConfig &cfg)
    : ReplayEngine(std::vector<ReplayConfig>{cfg})
{
}

ReplayEngine::ReplayEngine(const std::vector<ReplayConfig> &cells)
    : dram_(/*frames=*/1),
      cells_([&cells] {
          hopp_assert(!cells.empty(), "need at least one replay cell");
          hopp_assert(cells.size() <= maxReplayCells,
                      "too many replay cells for one fan-out");
          std::vector<std::unique_ptr<Cell>> built;
          built.reserve(cells.size());
          for (const ReplayConfig &c : cells)
              built.push_back(std::make_unique<Cell>(c));
          return built;
      }()),
      pipeline_(eq_, dram_, cells_[0]->policy, cells_[0]->sink,
                cells_[0]->cfg.hopp)
{
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        Cell &cell = *cells_[i];
        hopp_assert(
            sameHardware(cells_[0]->cfg.hopp, cell.cfg.hopp),
            "fan-out cells must share the hardware configuration");
        cell.sink.engine = this;
        cell.sink.cell = static_cast<unsigned>(i);
        // Sized for the common case so the replay loop's oracle
        // updates are flat probes; growth past this is handled (and
        // allowed) in FlatU64Map itself.
        cell.outstanding.reserve(1 << 12);
        if (i != 0)
            pipeline_.addReplayBackend(cell.policy, cell.sink,
                                       cell.cfg.hopp);
    }
    shadow_.reserve(1 << 16);
    pages_.reserve(1 << 16);
}

void
ReplayEngine::oracleRequest(unsigned cell, Pid pid, Vpn vpn, Tick now)
{
    Cell &c = *cells_[cell];
    ++c.result.requested;
    std::uint64_t key = vm::pageKey(pid, vpn);
    // Re-requesting a page whose prediction was never consumed means
    // the earlier prediction did not get used; charge it now so the
    // ledger cannot double-count one demand against two requests.
    Tick &ready = c.outstanding[key];
    if (ready != Tick{})
        ++c.result.unused;
    ready = now + c.cfg.arrivalDelay;
    pages_[key].pendingMask |= 1u << cell;
}

void
ReplayEngine::oracleDemand(Pid pid, Vpn vpn, Tick now)
{
    std::uint64_t key = vm::pageKey(pid, vpn);
    PageOracle &po = pages_[key];
    std::uint32_t pending = po.pendingMask;
    if (pending != 0) {
        po.pendingMask = 0;
        // Only cells with a prediction outstanding on this page pay
        // anything here; per record, cells that did not predict it
        // cost nothing — that is the fan-out's scaling property.
        for (std::uint32_t m = pending; m != 0; m &= m - 1) {
            Cell &c = *cells_[std::countr_zero(m)];
            Tick *ready = c.outstanding.find(key);
            if (now < *ready)
                ++c.result.late;
            else if (now - *ready <= c.cfg.useWindow)
                ++c.result.used;
            else
                ++c.result.unused;
            c.outstanding.erase(key);
        }
    }
    if (!po.seen) {
        po.seen = true;
        ++demandPages_;
        for (std::uint32_t m = pending; m != 0; m &= m - 1)
            ++cells_[std::countr_zero(m)]->result.coveredPages;
    }
}

void
ReplayEngine::dispatch(const trace::ReplayRecord &r)
{
    switch (r.kind) {
      case trace::ReplayKind::Mc: {
        ++mcAccesses_;
        if (!r.isWrite) {
            const std::uint64_t *key = shadow_.find(pageOf(r.pa).raw()); // hopp-analyze: allow(raw) map key
            if (key)
                oracleDemand(vm::keyPid(*key), vm::keyVpn(*key),
                             r.tick);
        }
        pipeline_.onMcAccess(r.pa, r.isWrite, r.tick);
        break;
      }
      case trace::ReplayKind::PteInit:
        // The recorder's initial page-table snapshot: build the RPT
        // directly, exactly as HoppSystem::start() does — NOT through
        // onPteSet, which would inflate RPT-cache update counters the
        // live run never charged.
        ++pteEvents_;
        pipeline_.rpt().store(
            r.ppn, core::RptEntry{r.pid, r.vpn, r.shared,
                                  static_cast<std::uint8_t>(
                                      r.huge ? 1 : 0)});
        shadow_[r.ppn.raw()] = vm::pageKey(r.pid, r.vpn); // hopp-analyze: allow(raw) map key
        break;
      case trace::ReplayKind::PteSet:
        ++pteEvents_;
        pipeline_.onPteSet(r.pid, r.vpn, r.ppn, r.shared, r.huge,
                           r.tick);
        shadow_[r.ppn.raw()] = vm::pageKey(r.pid, r.vpn); // hopp-analyze: allow(raw) map key
        break;
      case trace::ReplayKind::PteClear:
        ++pteEvents_;
        pipeline_.onPteClear(r.pid, r.vpn, r.ppn, r.tick);
        shadow_.erase(r.ppn.raw()); // hopp-analyze: allow(raw) map key
        break;
    }
    ++records_;
    lastTick_ = r.tick;
}

trace::TraceIoStatus
ReplayEngine::run(trace::TraceReader &reader)
{
    hopp_assert(!ran_, "ReplayEngine::run may only be called once");
    ran_ = true;
    // Batched decode mirroring AccessGenerator::nextBatch: one refill
    // amortizes the reader call over a block of records.
    trace::ReplayRecord block[512];
    std::size_t n;
    while ((n = reader.nextBatch(block, std::size(block))) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const trace::ReplayRecord &r = block[i];
            // The live pump dispatches a due event before the access
            // when nextTime() <= the access tick (event-first on
            // ties); replay must interleave identically or trainer
            // drains shift relative to the access stream.
            while (eq_.nextTime() <= r.tick)
                eq_.runOne();
            dispatch(r);
        }
    }
    // End of trace: drain the queue (the live run's pump exits only
    // when no events remain).
    while (eq_.runOne()) {
    }
    for (auto &cell : cells_) {
        ReplayResult &res = cell->result;
        res.records = records_;
        res.mcAccesses = mcAccesses_;
        res.pteEvents = pteEvents_;
        res.lastTick = lastTick_;
        res.demandPages = demandPages_;
        // Whatever is still outstanding was never consumed by a
        // demand.
        res.unused += cell->outstanding.size();
    }
    return reader.status();
}

std::string
ReplayEngine::mcStatsJson(std::size_t cell)
{
    return core::mcSideStatsJson(pipeline_, cell);
}

std::string
ReplayEngine::oracleJson(std::size_t cell) const
{
    const ReplayResult &result = cells_.at(cell)->result;
    std::string out;
    char buf[128];
    auto put = [&](const char *key, std::uint64_t v) {
        std::snprintf(buf, sizeof(buf), "  \"%s\": %llu,\n", key,
                      static_cast<unsigned long long>(v));
        out += buf;
    };
    out += "{\n";
    put("replay_records", result.records);
    put("replay_mc_accesses", result.mcAccesses);
    put("replay_pte_events", result.pteEvents);
    put("replay_last_tick", result.lastTick.raw()); // hopp-analyze: allow(raw) stats boundary
    put("oracle_requested", result.requested);
    put("oracle_used", result.used);
    put("oracle_late", result.late);
    put("oracle_unused", result.unused);
    put("oracle_demand_pages", result.demandPages);
    put("oracle_covered_pages", result.coveredPages);
    std::snprintf(buf, sizeof(buf),
                  "  \"oracle_accuracy\": %.17g,\n"
                  "  \"oracle_coverage\": %.17g\n",
                  result.accuracy(), result.coverage());
    out += buf;
    out += "}\n";
    return out;
}

} // namespace hopp::runner

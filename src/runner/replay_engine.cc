#include "runner/replay_engine.hh"

#include <bit>
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
           a.channels == b.channels &&
           a.channelInterleaved == b.channelInterleaved &&
           a.scaleThresholdWithChannels ==
               b.scaleThresholdWithChannels &&
           a.ringCapacity == b.ringCapacity &&
           a.trainerDelay == b.trainerDelay &&
           a.evictionAdvisor == b.evictionAdvisor &&
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
    return engine->cells_[cell]->outstanding;
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
        if (i != 0)
            pipeline_.addReplayBackend(cell.policy, cell.sink,
                                       cell.cfg.hopp);
    }
    // Sized for the common case so the replay loop's ledger updates
    // do not allocate; growth past this is amortized.
    ready_.reserve(cells_.size() << 12);
    freeRows_.reserve(1 << 12);
    // Seed the request memo with a true (key, id) pair, so its hit
    // test is one compare with no validity flag.
    lastId_ = pageId(lastKey_);
}

std::uint32_t
ReplayEngine::pageId(std::uint64_t key)
{
    const std::size_t known = ids_.size();
    std::uint32_t &id = ids_[key];
    if (ids_.size() != known) {
        hopp_assert(ledger_.size() < ~std::uint32_t{0},
                    "replay page ids exhausted");
        id = static_cast<std::uint32_t>(ledger_.size());
        // One entry per distinct page, appended on first sight:
        // geometric growth, amortized over the whole replay.
        // hopp-analyze: allow(hotpath-alloc)
        ledger_.push_back(PageOracle{});
    }
    return id;
}

std::uint32_t
ReplayEngine::takeRow()
{
    if (!freeRows_.empty()) {
        std::uint32_t row = freeRows_.back();
        freeRows_.pop_back();
        return row;
    }
    auto row = static_cast<std::uint32_t>(ready_.size() / cells_.size());
    ready_.insert(ready_.end(), cells_.size(), Tick{});
    return row;
}

void
ReplayEngine::oracleRequest(unsigned cell, Pid pid, Vpn vpn, Tick now)
{
    Cell &c = *cells_[cell];
    ++c.result.requested;
    const std::uint64_t key = vm::pageKey(pid, vpn);
    if (key != lastKey_) {
        lastKey_ = key;
        lastId_ = pageId(key);
    }
    PageOracle &po = ledger_[lastId_];
    if (po.pendingMask == 0)
        po.row = takeRow();
    // Re-requesting a page whose prediction was never consumed means
    // the earlier prediction did not get used; charge it now so the
    // ledger cannot double-count one demand against two requests.
    const std::uint32_t bit = 1u << cell;
    if (po.pendingMask & bit)
        ++c.result.unused;
    else
        ++c.outstanding;
    po.pendingMask |= bit;
    ready_[std::size_t{po.row} * cells_.size() + cell] =
        now + arrivalDelay;
}

void
ReplayEngine::oracleDemand(std::uint32_t page, Tick now)
{
    PageOracle &po = ledger_[page];
    std::uint32_t pending = po.pendingMask;
    if (pending != 0) {
        po.pendingMask = 0;
        // Only cells with a prediction outstanding on this page pay
        // anything here; per record, cells that did not predict it
        // cost nothing — that is the fan-out's scaling property.
        const Tick *ready = &ready_[std::size_t{po.row} * cells_.size()];
        for (std::uint32_t m = pending; m != 0; m &= m - 1) {
            auto i = static_cast<unsigned>(std::countr_zero(m));
            Cell &c = *cells_[i];
            if (now < ready[i])
                ++c.result.late;
            else if (now - ready[i] <= useWindow)
                ++c.result.used;
            else
                ++c.result.unused;
            --c.outstanding;
        }
        freeRows_.push_back(po.row);
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
            const std::uint32_t *page = frames_.find(pageOf(r.pa).raw()); // hopp-analyze: allow(raw) map key
            if (page)
                oracleDemand(*page, r.tick);
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
        frames_[r.ppn.raw()] = pageId(vm::pageKey(r.pid, r.vpn)); // hopp-analyze: allow(raw) map key
        break;
      case trace::ReplayKind::PteSet:
        ++pteEvents_;
        pipeline_.onPteSet(r.pid, r.vpn, r.ppn, r.shared, r.huge,
                           r.tick);
        frames_[r.ppn.raw()] = pageId(vm::pageKey(r.pid, r.vpn)); // hopp-analyze: allow(raw) map key
        break;
      case trace::ReplayKind::PteClear:
        ++pteEvents_;
        pipeline_.onPteClear(r.pid, r.vpn, r.ppn, r.tick);
        frames_.erase(r.ppn.raw()); // hopp-analyze: allow(raw) map key
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
        res.unused += cell->outstanding;
    }
    return reader.status();
}

stats::JsonFields
ReplayEngine::mcStats(std::size_t cell)
{
    return core::mcSideStats(pipeline_, cell);
}

std::string
ReplayEngine::mcStatsJson(std::size_t cell)
{
    return stats::flatJson(mcStats(cell));
}

stats::JsonFields
ReplayEngine::oracleStats(std::size_t cell) const
{
    const ReplayResult &result = cells_.at(cell)->result;
    return {
        {"replay_records", result.records},
        {"replay_mc_accesses", result.mcAccesses},
        {"replay_pte_events", result.pteEvents},
        // hopp-analyze: allow(raw) stats boundary
        {"replay_last_tick", result.lastTick.raw()},
        {"oracle_requested", result.requested},
        {"oracle_used", result.used},
        {"oracle_late", result.late},
        {"oracle_unused", result.unused},
        {"oracle_demand_pages", result.demandPages},
        {"oracle_covered_pages", result.coveredPages},
        {"oracle_accuracy", result.accuracy()},
        {"oracle_coverage", result.coverage()},
    };
}

std::string
ReplayEngine::oracleJson(std::size_t cell) const
{
    return stats::flatJson(oracleStats(cell));
}

} // namespace hopp::runner

/**
 * @file
 * Trace-driven replay (ROADMAP item 4): drive the MC-side HoPP
 * pipeline straight from a recorded (or imported) trace — no workload
 * generation, no VMS, no page walk — so one captured scenario can be
 * swept against many policy configurations at memory speed.
 *
 * Fidelity contract (DESIGN.md §15): for the stats the pipeline owns
 * (HPD, RPT cache, ring, STT, trainer predictions, unmapped drops) a
 * replayed trace reproduces the recording run byte for byte — the
 * pipeline is the same class, fed the same (access, PTE, tick) stream
 * with the same event/record interleaving rule as Machine::pump.
 * Prefetch *execution* has no VMS behind it here, so the engine
 * instead keeps an oracle ledger: what the trainer asked for, and
 * whether a later demand read in the trace touched the predicted page
 * (approximate accuracy/coverage, standard stats JSON).
 *
 * Policy fan-out: an engine built from several ReplayConfigs that
 * share the hardware half (HPD geometry/threshold, RPT cache,
 * channels, ring, trainer delay) replays all of them in ONE pass —
 * the decode and the per-access HPD/RPT frontend are paid once, and
 * each hot page fans out to every cell's trainer
 * (HotPagePipeline::addReplayBackend). What the cells' software
 * halves share is paid once too: one STT, one tier memo and one
 * Markov table per distinct config (see HotPagePipeline), and one
 * page-major oracle ledger — a page gets a dense id the first time the
 * engine sees it, a demand read finds that id with one probe of the
 * frame table, a prediction with at most one probe of the key table,
 * and a demand visits one contiguous row of arrival ticks for the
 * cells that predicted the page. Per cell, both the MC-side stats
 * document and the oracle ledger are byte-identical to a solo replay
 * of that cell; the per-record cost of an extra cell is zero (cells
 * only pay per hot page and per prediction). This is what makes a
 * software-policy sweep run at memory speed rather than at simulation
 * speed.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hopp/pipeline.hh"
#include "stats/json_writer.hh"
#include "trace/trace_file.hh"

namespace hopp::runner
{

/**
 * Replay-run configuration: the pipeline under evaluation. The oracle
 * model's windows are ReplayEngine constants.
 */
struct ReplayConfig
{
    /** The HoPP configuration under evaluation. */
    core::HoppConfig hopp;
};

/** Outcome of one replay. */
struct ReplayResult
{
    std::uint64_t records = 0;
    std::uint64_t mcAccesses = 0;
    std::uint64_t pteEvents = 0;
    Tick lastTick;

    // Oracle prefetch ledger (see file comment).
    std::uint64_t requested = 0; //!< pages the trainer asked for
    std::uint64_t used = 0;      //!< demanded within the use window
    std::uint64_t late = 0;      //!< demanded before modeled arrival
    std::uint64_t unused = 0;    //!< stale or never demanded
    std::uint64_t demandPages = 0;  //!< distinct mapped pages read
    std::uint64_t coveredPages = 0; //!< first read preceded by request

    double
    accuracy() const
    {
        return requested ? static_cast<double>(used) /
                               static_cast<double>(requested)
                         : 0.0;
    }

    double
    coverage() const
    {
        return demandPages ? static_cast<double>(coveredPages) /
                                 static_cast<double>(demandPages)
                           : 0.0;
    }
};

/** Fan-out width limit (the per-page pending mask is 32 bits). */
inline constexpr std::size_t maxReplayCells = 32;

/**
 * One replay run: owns its own event queue, a traffic-accounting DRAM
 * shell, and the HotPagePipeline under test; with several cells, one
 * shared frontend and a software backend + oracle ledger per cell.
 */
class ReplayEngine
{
  public:
    /**
     * Modeled prefetch arrival latency: a prediction counts as timely
     * only for demand reads at least this much later (a stand-in for
     * the fabric transfer the live ExecEngine would have issued).
     */
    static constexpr Duration arrivalDelay = 8'300;

    /** A prediction unused for this long no longer counts as a hit. */
    static constexpr Duration useWindow = 5'000'000;

    ReplayEngine() : ReplayEngine(ReplayConfig{}) {}
    explicit ReplayEngine(const ReplayConfig &cfg);

    /**
     * Fan-out constructor: every cell must share the hardware half of
     * the configuration with cells[0] (asserted); the software half
     * (tierMask, batch, markov, stt, policy) may vary freely.
     */
    explicit ReplayEngine(const std::vector<ReplayConfig> &cells);

    /**
     * Replay every record @p reader yields. May be called once per
     * engine. @return the reader's final status: Ok means the whole
     * trace was consumed.
     */
    trace::TraceIoStatus run(trace::TraceReader &reader);

    /** The pipeline under test (for stats extraction). */
    core::HotPagePipeline &pipeline() { return pipeline_; }

    /** HoPP hardware DRAM traffic accounting (ring + RPT). */
    mem::Dram &dram() { return dram_; }

    /** Number of policy cells sharing the frontend. */
    std::size_t cells() const { return cells_.size(); }

    /** Policy engine state after the run. */
    core::PolicyEngine &policy(std::size_t cell = 0)
    {
        return cells_.at(cell)->policy;
    }

    /** Replay counters and oracle metrics for one cell. */
    const ReplayResult &result(std::size_t cell = 0) const
    {
        return cells_.at(cell)->result;
    }

    /** One cell's MC-side fidelity-contract values (core::mcSideStats). */
    stats::JsonFields mcStats(std::size_t cell = 0);

    /**
     * mcStats() as a flat JSON document — byte-identical to `hopp-run
     * --mc-stats-json` for the run that recorded the trace (DESIGN.md
     * §15), and to a solo replay of the cell's configuration when
     * fanned out.
     */
    std::string mcStatsJson(std::size_t cell = 0);

    /** One cell's replay counters and oracle accuracy/coverage. */
    stats::JsonFields oracleStats(std::size_t cell = 0) const;

    /** oracleStats() as a flat JSON document. */
    std::string oracleJson(std::size_t cell = 0) const;

  private:
    /** The trainer requests of one cell land here. */
    struct CellSink : core::PrefetchSink
    {
        void request(Pid pid, Vpn vpn, std::uint64_t stream_id,
                     core::Tier tier, Tick now) override;
        unsigned requestBatch(Pid pid, Vpn vpn, unsigned count,
                              std::uint64_t stream_id, core::Tier tier,
                              Tick now) override;
        std::size_t outstanding() const override;

        ReplayEngine *engine = nullptr;
        unsigned cell = 0;
    };

    /** Per-cell state: configuration, policy, sink, ledger, result. */
    struct Cell
    {
        explicit Cell(const ReplayConfig &c)
            : cfg(c), policy(c.hopp.policy)
        {
        }

        ReplayConfig cfg;
        core::PolicyEngine policy;
        CellSink sink;
        ReplayResult result;
        /// Predictions not yet consumed by a demand: this cell's set
        /// bits over every page's pendingMask.
        std::uint64_t outstanding = 0;
    };

    /**
     * Shared per-page oracle state: which cells have a pending
     * prediction (so a demand read visits only flagged cells), the
     * ready_ row holding their modeled arrival ticks (meaningful while
     * pendingMask != 0), and whether the page already counted toward
     * demandPages.
     */
    struct PageOracle
    {
        std::uint32_t pendingMask = 0;
        std::uint32_t row = 0;
        bool seen = false;
    };

    void dispatch(const trace::ReplayRecord &r);
    void oracleRequest(unsigned cell, Pid pid, Vpn vpn, Tick now);
    void oracleDemand(std::uint32_t page, Tick now);
    /** The dense id of page key @p key, assigned on first sight. */
    std::uint32_t pageId(std::uint64_t key);
    /** A free ready_ row, recycled or appended. */
    std::uint32_t takeRow();

    sim::EventQueue eq_;
    /// Traffic accounting only — no frame is ever allocated from it.
    mem::Dram dram_;
    std::vector<std::unique_ptr<Cell>> cells_;
    core::HotPagePipeline pipeline_;

    // Stream-level counters (identical for every cell; copied into
    // each cell's result when the run finishes).
    std::uint64_t records_ = 0;
    std::uint64_t mcAccesses_ = 0;
    std::uint64_t pteEvents_ = 0;
    std::uint64_t demandPages_ = 0;
    Tick lastTick_;

    /// pageKey(pid, vpn) -> dense page id. Ids are handed out in
    /// first-sight order and never move or die, so an id stays valid
    /// for the whole run.
    FlatU64Map<std::uint32_t> ids_;
    /// ppn -> page id of the replayed mappings; the oracle uses it
    /// (not the lazily written-back Rpt) to resolve demand reads.
    FlatU64Map<std::uint32_t> frames_;
    /// Shared oracle state indexed by page id (one entry per page ever
    /// mapped or predicted, whatever the cell count).
    std::vector<PageOracle> ledger_;
    /// Last-key memo for oracleRequest: consecutive predictions very
    /// often name the same page (cells whose tier and offset agree).
    std::uint64_t lastKey_ = ~std::uint64_t{0};
    std::uint32_t lastId_ = 0;
    /// The page-major oracle ledger: row r holds cells() modeled
    /// arrival ticks, and [r * cells() + i] is live while cell i's bit
    /// is set in the pendingMask of the page owning row r. A demand
    /// that clears a page's mask returns its row to freeRows_, so the
    /// ledger is sized by pending pages, not by pages ever predicted.
    std::vector<Tick> ready_;
    std::vector<std::uint32_t> freeRows_;
    bool ran_ = false;
};

} // namespace hopp::runner

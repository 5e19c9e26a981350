/**
 * @file
 * The MC-side HoPP pipeline (Figure 4's hardware plane plus the
 * trainer): per-channel HPD tables and RPT caches tapped into the
 * memory-access stream, the reserved-DRAM hot-page ring, the STT, and
 * the training loop that turns hot pages into prefetch requests
 * through a PrefetchSink.
 *
 * Everything here is driven purely by (access, PTE-event, tick)
 * streams — there is no VMS reference — so the identical pipeline
 * serves both live simulation (HoppSystem feeds it from the machine's
 * MC and page-table hooks, ExecEngine as the sink) and trace replay
 * (ReplayEngine feeds it decoded records, an accounting sink). That
 * one-pipeline property is the replay fidelity contract: a recorded
 * stream replayed through this class reproduces the live run's
 * MC-side statistics byte for byte (DESIGN.md §15).
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "hopp/hot_page.hh"
#include "hopp/hpd.hh"
#include "hopp/markov.hh"
#include "hopp/policy.hh"
#include "hopp/prefetch_sink.hh"
#include "hopp/rpt.hh"
#include "hopp/stt.hh"
#include "hopp/trainer.hh"
#include "mem/dram.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "stats/json_writer.hh"

namespace hopp::core
{

/** Assembly-level configuration of the whole HoPP system. */
struct HoppConfig
{
    HpdConfig hpd;
    RptCacheConfig rptCache;
    SttConfig stt;
    PolicyConfig policy;

    /** Enabled prefetch tiers (Fig. 18-20 ablations). */
    unsigned tierMask = tiers::all;

    /**
     * Memory channels (§III-B "impact of multiple memory channels").
     * Each channel's MC carries its own HPD table and RPT cache; the
     * prefetch training framework merges (non-interleaved) or
     * de-duplicates (interleaved) their hot-page outputs.
     */
    unsigned channels = 1;

    /**
     * Interleaved channels: consecutive cachelines of a page live in
     * distinct channels, so each HPD sees only 64/channels lines of a
     * page — the paper notes N must shrink accordingly.
     */
    bool channelInterleaved = true;

    /**
     * Divide the HPD threshold by the channel count under
     * interleaving, as §III-B prescribes ("we need to reduce N").
     */
    bool scaleThresholdWithChannels = true;

    /** Huge-batch prefetching of long streams (§IV extension). */
    BatchConfig batch;

    /**
     * Correlation (Markov) tier parameters; enable it by adding
     * tiers::markov to tierMask. The §III-D "ML-based designs enabled
     * by full trace" direction.
     */
    MarkovConfig markov;

    /**
     * Use the hot-page trace to advise kernel reclaim (§IV: improving
     * page eviction with full memory traces).
     */
    bool evictionAdvisor = false;

    /**
     * Advisor hotness-table size that triggers an age-based prune:
     * entries whose last hot extraction fell out of the pipeline's
     * warmWindow are dropped (they can no longer satisfy keepWarm),
     * fresh ones survive. Sized so prunes are rare outside
     * adversarial sweeps.
     */
    std::size_t warmEntriesCap = 1 << 20;

    /** Latency from hot-page extraction to software processing. */
    Duration trainerDelay = 500;

    /** Hot-page ring capacity (reserved DRAM area). */
    std::size_t ringCapacity = 1 << 16;
};

/**
 * The MC-side pipeline: HPD → RPT cache → hot-page ring → STT →
 * trainer → PrefetchSink, plus the eviction-advisor hotness table.
 *
 * The pipeline splits along HoPP's own hardware/software boundary.
 * The *frontend* (per-channel HPD tables, the RPT and its caches, the
 * hot-page ring) is fixed hardware: its behaviour depends only on the
 * access/PTE stream and the hardware config. The *backend* (STT,
 * trainer, policy, sink) is the software half. Because the frontend
 * never observes the backend, one frontend can feed several backends
 * — that is how trace replay sweeps software policies in a single
 * pass over a recorded stream (addReplayBackend below): every cell
 * sees byte-identical frontend statistics, and each cell's trainer
 * stats match what a solo run of that cell would produce. Backends
 * share whatever depends only on the hot-page stream and a config:
 * one STT and one tier memo per distinct SttConfig, one Markov table
 * per distinct MarkovConfig among the backends with the tier on.
 */
class HotPagePipeline
{
  public:
    /** Pages hot within this window are kept from eviction. */
    static constexpr Duration warmWindow = 2'000'000; // 2 ms

    /**
     * @p dram is charged the HoPP hardware traffic (hot-page ring
     * writes, RPT-cache fills and write-backs); @p policy and @p sink
     * are owned by the caller — the policy feedback loop (timeliness)
     * is live-simulation-only and deliberately outside the pipeline.
     */
    HotPagePipeline(sim::EventQueue &eq, mem::Dram &dram,
                    PolicyEngine &policy, PrefetchSink &sink,
                    const HoppConfig &cfg);

    // --- hardware data path -------------------------------------
    void onMcAccess(PhysAddr pa, bool is_write, Tick now);

    // --- RPT maintenance (§V: set_pte_at / pte_clear) ------------
    void onPteSet(Pid pid, Vpn vpn, Ppn ppn, bool shared, bool huge,
                  Tick now);
    void onPteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now);

    // --- trace-informed eviction advice (§IV) --------------------
    bool keepWarm(Pid pid, Vpn vpn, Tick now);

    /** Channel an MC access routes to. */
    unsigned channelOf(PhysAddr pa) const;

    /** Component access for tests and benches (channel 0 views). */
    Hpd &hpd() { return hpds_[0]; }
    Rpt &rpt() { return rpt_; }
    RptCache &rptCache() { return rptCaches_[0]; }

    /** Per-channel hardware (size = config().channels). */
    Hpd &hpd(unsigned channel) { return hpds_.at(channel); }
    RptCache &rptCache(unsigned channel)
    {
        return rptCaches_.at(channel);
    }

    /** Aggregate HPD statistics over all channels. */
    HpdStats hpdTotals() const;

    /** The configuration in effect. */
    const HoppConfig &config() const { return cfg_; }
    Stt &stt() { return stt(0); }
    Trainer &trainer() { return backends_[0]->trainer; }
    HotPageRing &ring() { return ring_; }

    /**
     * Attach one more software backend (STT + trainer) to the shared
     * hardware frontend. @p soft supplies the software half of the
     * cell's configuration (stt, tierMask, batch, markov); the
     * hardware half (hpd, rptCache, channels, ring) is fixed by this
     * pipeline and the caller must not vary it across cells. Every
     * ring drain feeds every backend, so each backend's trainer sees
     * exactly the hot-page stream a solo pipeline would; the backend
     * joins the STT group of its SttConfig and, with the Markov tier
     * on, the Markov group of its MarkovConfig. Backends must be added
     * before the first access. @return backend index.
     */
    std::size_t addReplayBackend(PolicyEngine &policy,
                                 PrefetchSink &sink,
                                 const HoppConfig &soft);

    /** Number of software backends (1 unless fanned out). */
    std::size_t backendCount() const { return backends_.size(); }
    Stt &stt(std::size_t backend)
    {
        return *sttGroups_[backends_.at(backend)->sttGroup].stt;
    }
    Trainer &trainer(std::size_t backend)
    {
        return backends_.at(backend)->trainer;
    }

    /** Hot pages whose PPN the RPT could not map (dropped). */
    std::uint64_t unmappedHotPages() const { return unmapped_; }

    /** Live advisor hotness entries (gauge). */
    std::uint64_t warmEntriesLive() const { return lastHot_.size(); }

    /** Stale advisor entries aged out by pruning (counter). */
    std::uint64_t warmPruned() const { return warmPruned_; }

    /** Advisor prune passes executed (counter). */
    std::uint64_t warmPrunePasses() const { return warmPrunePasses_; }

    /**
     * Attach the flight recorder: ring-drain batch spans on the HoPP
     * software track, hot-page extraction counters and RPT-lookup
     * outcome counters. nullptr detaches.
     */
    void setTracer(obs::Tracer *tracer) { trace_ = tracer; }

  private:
    void drainRing();
    void pruneWarm(Tick now);

    /**
     * One shared stream table: backends whose SttConfigs are equal see
     * byte-identical STT behaviour on the shared hot-page stream, so
     * they share one table and the per-hot-page clustering scan runs
     * once per distinct config rather than once per backend. The view
     * and tiers members are drain-loop scratch: the feed result every
     * trainer of the group consumes for the current hot page, and the
     * memo that runs each tier algorithm at most once over it.
     */
    struct SttGroup
    {
        SttConfig cfg;
        std::unique_ptr<Stt> stt;
        std::optional<StreamView> view;
        TierMemo tiers;
    };

    /**
     * One shared correlation table: training depends only on the
     * hot-page stream and the config, and trainers only peek, so
     * backends with the Markov tier on and equal MarkovConfigs hold
     * identical tables. The group trains once per hot page, before
     * any backend predicts. Held by unique_ptr because trainers point
     * at the table.
     */
    struct MarkovGroup
    {
        MarkovConfig cfg;
        std::unique_ptr<MarkovTable> table;
        /// Last hot VPN per PID: the source of the next transition.
        std::unordered_map<Pid, Vpn> lastVpn;
    };

    /**
     * One software cell: the trainer, bound to its group's shared STT
     * (and Markov table, if the tier is on). Held by unique_ptr
     * because Trainer keeps references — it must never relocate.
     */
    struct Backend
    {
        Trainer trainer;
        std::size_t sttGroup;
    };

    /** Attach a backend for @p soft's software half. */
    void addBackend(PolicyEngine &policy, PrefetchSink &sink,
                    const HoppConfig &soft);

    /** Index of the group serving @p cfg, creating it if new. */
    std::size_t sttGroupFor(const SttConfig &cfg);

    /** The shared table for @p cfg, creating its group if new. */
    const MarkovTable *markovTableFor(const MarkovConfig &cfg);

    sim::EventQueue &eq_;
    mem::Dram &dram_;
    HoppConfig cfg_;
    // By-value per-channel hardware: channel dispatch indexes straight
    // into contiguous storage instead of chasing unique_ptrs.
    std::vector<Hpd> hpds_;           // one per channel
    Rpt rpt_;
    std::vector<RptCache> rptCaches_; // one per MC
    HotPageRing ring_;
    PrefetchSink &sink_;
    std::vector<SttGroup> sttGroups_;
    std::vector<MarkovGroup> markovGroups_;
    std::vector<std::unique_ptr<Backend>> backends_;
    bool drainScheduled_ = false;
    std::uint64_t unmapped_ = 0;
    obs::Tracer *trace_ = nullptr;
    std::uint64_t hotPagesSeen_ = 0;

    /** Advisor state: last two hot-extraction times per page. */
    struct Hotness
    {
        Tick last;
        Tick prev;
    };

    /// Keyed by pageKey(pid, vpn); open-addressed so the per-hot-page
    /// advisor update is a flat probe, not a node allocation.
    FlatU64Map<Hotness> lastHot_;
    std::uint64_t warmPruned_ = 0;
    std::uint64_t warmPrunePasses_ = 0;
    /// Next prune trigger; starts at cfg_.warmEntriesCap and backs off
    /// when the table is genuinely warm (see pruneWarm).
    std::size_t warmPruneAt_ = 0;
};

/**
 * The MC-side statistics the replay fidelity contract covers, in
 * document order: HPD totals, per-channel RPT-cache counters, ring,
 * STT, trainer predictions (batchesIssued excluded — it depends on
 * VMS bundling feedback), and the unmapped-drop count. A recorded run
 * and its replay must produce identical values. @p backend selects
 * the software cell: the frontend keys are shared (identical across
 * cells by construction); the STT/trainer keys come from that cell.
 */
stats::JsonFields mcSideStats(HotPagePipeline &p, std::size_t backend = 0);

/** mcSideStats() as a flat JSON document (stats::flatJson()). */
std::string mcSideStatsJson(HotPagePipeline &p,
                            std::size_t backend = 0);

} // namespace hopp::core

/**
 * @file
 * The full HoPP system (Figure 4): the MC-side HotPagePipeline
 * (HPD + RPT cache + ring + trainer) wired to a live machine — the
 * VMS page-table hooks feed the RPT, the ExecEngine injects prefetched
 * PTEs, and VMS listener callbacks close the timeliness feedback loop.
 * The pipeline itself lives in pipeline.hh so trace replay can drive
 * the identical hardware/trainer chain without a VMS.
 */

#pragma once

#include "hopp/exec_engine.hh"
#include "hopp/pipeline.hh"
#include "mem/memctrl.hh"
#include "vm/vms.hh"

namespace hopp::core
{

/**
 * HoPP: hardware + software, wired into one machine.
 */
class HoppSystem : public mem::McObserver,
                   public vm::PteHook,
                   public vm::PageEventListener,
                   public vm::Vms::EvictionAdvisor
{
  public:
    HoppSystem(sim::EventQueue &eq, vm::Vms &vms, mem::MemCtrl &mc,
               const HoppConfig &cfg = {});

    /**
     * Attach to the machine's MC tap, PTE hooks and VMS listeners.
     * Call once, before the first page is mapped: the RPT then learns
     * every mapping through onPteSet, so the paper's start-up walk of
     * all page tables (§III-C) has nothing to find. Dies if the page
     * table already holds a record.
     */
    void start();

    // --- hardware data path -------------------------------------
    void
    onMcAccess(PhysAddr pa, bool is_write, Tick now) override
    {
        pipeline_.onMcAccess(pa, is_write, now);
    }

    // --- RPT maintenance hooks (§V: set_pte_at / pte_clear) ------
    void
    onPteSet(Pid pid, Vpn vpn, Ppn ppn, Tick now) override
    {
        pipeline_.onPteSet(pid, vpn, ppn, now);
    }
    void
    onPteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now) override
    {
        pipeline_.onPteClear(pid, vpn, ppn, now);
    }

    // --- feedback from the VMS on injected pages -----------------
    void onPrefetchCompleted(Pid pid, Vpn vpn, vm::Origin o, Tick now,
                             bool injected) override;
    void onPrefetchHit(Pid pid, Vpn vpn, vm::Origin o, Tick ready_at,
                       Tick hit_at, bool dram_hit) override;
    void onPrefetchEvicted(Pid pid, Vpn vpn, vm::Origin o,
                           Tick now) override;

    // --- trace-informed eviction advice (§IV) --------------------
    bool
    keepWarm(Pid pid, Vpn vpn, Tick now) override
    {
        return pipeline_.keepWarm(pid, vpn, now);
    }

    /** Channel an MC access routes to. */
    unsigned
    channelOf(PhysAddr pa) const
    {
        return pipeline_.channelOf(pa);
    }

    /** The MC-side pipeline (replay shares this exact class). */
    HotPagePipeline &pipeline() { return pipeline_; }

    /** Component access for tests and benches (channel 0 views). */
    Hpd &hpd() { return pipeline_.hpd(); }
    Rpt &rpt() { return pipeline_.rpt(); }
    RptCache &rptCache() { return pipeline_.rptCache(); }

    /** Per-channel hardware (size = config().channels). */
    Hpd &hpd(unsigned channel) { return pipeline_.hpd(channel); }
    RptCache &rptCache(unsigned channel)
    {
        return pipeline_.rptCache(channel);
    }

    /** Aggregate HPD statistics over all channels. */
    HpdStats hpdTotals() const { return pipeline_.hpdTotals(); }

    /** The configuration in effect. */
    const HoppConfig &config() const { return pipeline_.config(); }
    Stt &stt() { return pipeline_.stt(); }
    PolicyEngine &policy() { return policy_; }
    ExecEngine &exec() { return exec_; }
    Trainer &trainer() { return pipeline_.trainer(); }
    HotPageRing &ring() { return pipeline_.ring(); }

    /** Hot pages whose PPN the RPT could not map (dropped). */
    std::uint64_t unmappedHotPages() const
    {
        return pipeline_.unmappedHotPages();
    }

    /** Live advisor hotness entries (gauge). */
    std::uint64_t warmEntriesLive() const
    {
        return pipeline_.warmEntriesLive();
    }

    /** Stale advisor entries aged out by pruning (counter). */
    std::uint64_t warmPruned() const { return pipeline_.warmPruned(); }

    /** Advisor prune passes executed (counter). */
    std::uint64_t warmPrunePasses() const
    {
        return pipeline_.warmPrunePasses();
    }

    /** Attach the flight recorder (nullptr detaches). */
    void setTracer(obs::Tracer *tracer)
    {
        pipeline_.setTracer(tracer);
    }

  private:
    vm::Vms &vms_;
    mem::MemCtrl &mc_;
    // Order matters: exec_ consumes policy_, pipeline_ consumes both.
    PolicyEngine policy_;
    ExecEngine exec_;
    HotPagePipeline pipeline_;
    bool started_ = false;
};

} // namespace hopp::core

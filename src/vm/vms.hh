/**
 * @file
 * The virtual memory subsystem (VMS): translation, page faults,
 * swapcache, reclaim and the two prefetch insertion paths (swapcache
 * fill for kernel-style readahead; early PTE injection for Depth-N and
 * HoPP, §II-C/§III-F).
 *
 * This is the substrate every system under evaluation shares; the
 * systems differ only in which prefetcher drives it and whether pages
 * arrive via the swapcache or via injection.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/check.hh"
#include "common/types.hh"
#include "mem/llc.hh"
#include "mem/memctrl.hh"
#include "obs/tracer.hh"
#include "remote/swap_backend.hh"
#include "sim/event_queue.hh"
#include "vm/cgroup.hh"
#include "vm/cost_model.hh"
#include "vm/listener.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::vm
{

/**
 * VMS behaviour knobs. Fault costs are the §II-A constants of
 * vm::CostModel; the kswapd watermarks and delay are Vms constants.
 */
struct VmsConfig
{
    /** Run kswapd-style background reclaim ahead of demand. */
    bool kswapdEnabled = true;

    /**
     * Evictions one background reclaim pass attempts before it
     * reschedules (the kernel's per-iteration shrink burst). Must be
     * nonzero: a pass that evicts nothing could never converge to the
     * low watermark.
     */
    unsigned kswapdBatch = 32;

    /** Max LRU rotations (second chances) per eviction scan. */
    unsigned secondChanceCap = 64;
};

/** Aggregate VMS event counters. */
struct VmsStats
{
    std::uint64_t accesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t coldFaults = 0;
    std::uint64_t remoteFaults = 0;
    std::uint64_t swapCacheHits = 0;
    std::uint64_t inflightWaits = 0;
    std::uint64_t injectedHits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t directReclaims = 0;
    std::uint64_t kswapdReclaims = 0;
    std::uint64_t prefetchesDropped = 0;
    std::uint64_t adoptions = 0; //!< swapcache pages PTE-injected

    /** All page faults (cold + remote + swapcache hits + waits). */
    std::uint64_t
    faults() const
    {
        return coldFaults + remoteFaults + swapCacheHits + inflightWaits;
    }
};

/**
 * The virtual memory subsystem.
 */
class Vms
{
  public:
    /**
     * Background reclaim starts when charged frames exceed
     * limit * highWatermark and stops below limit * lowWatermark.
     */
    static constexpr double highWatermark = 0.98;
    static constexpr double lowWatermark = 0.94;

    /** Dispatch delay of a background reclaim pass. */
    static constexpr Duration kswapdDelay = 10'000; // 10 us

    Vms(sim::EventQueue &eq, mem::Dram &dram, mem::MemCtrl &mc,
        mem::Llc &llc, remote::SwapBackend &backend,
        const VmsConfig &cfg = {});

    /**
     * Register a process with a cgroup limit in frames. A process
     * lives as long as the machine: its cgroup, page records and swap
     * slots are never torn down.
     */
    void createProcess(Pid pid, std::uint64_t limit_frames);

    /**
     * One application memory access (the whole data path: translate,
     * fault if needed, LLC/DRAM access).
     *
     * The translation itself is the host-side hot path: with a @p tlb
     * the caller-provided software TLB (vm/tlb.hh) short-circuits the
     * radix walk for resident pages, and the whole hit chain — TLB
     * probe, accessed-bit update, LLC tag probe — inlines here with no
     * out-of-line call. TLB on and off produce bit-identical simulation
     * results; only host throughput differs.
     *
     * @param now the issuing thread's local time.
     * @param tlb optional per-thread software TLB.
     * @return the access latency charged to the thread.
     */
    Duration
    access(Pid pid, VirtAddr va, bool is_write, Tick now,
           Tlb *tlb = nullptr)
    {
        noteAccess();
        if (tlb) {
            if (PageInfo *pi = tlb->lookup(pid, pageOf(va))) {
                // Cached translations are invalidated on every PTE
                // clear, so a hit is by construction Resident.
                return residentAccess(pid, *pi, va, is_write, now);
            }
        }
        return accessSlow(pid, va, is_write, now, tlb);
    }

    /**
     * Drain a block of accesses: the Machine pump's inner loop.
     * Semantically a sequence of access() calls threading the issuing
     * thread's local time through, with a per-access yield check: the
     * drain stops as soon as the thread's time reaches @p stopAt (the
     * next other thread's local time) or the earliest pending event,
     * whichever comes first — both are single inline compares, so the
     * whole resident chain (TLB probe, accessed-bit update, LLC tag
     * probe) still runs back to back with no event-queue round trip.
     * Yielding per access rather than per block keeps prefetch fills
     * on time (DESIGN.md §14); the AccessBatchMatchesScalarLoop test
     * holds this equal to the same access() loop written out.
     *
     * @tparam AccessT any record with `.va` and `.write` members
     *         (workloads::Access; a template so the vm layer needs no
     *         include of the workloads layer above it).
     * @param stopAt yield horizon; maxTick to drain unconditionally.
     * @param consumed out: number of accesses performed (>= 1 when
     *        n > 0; the yield check runs after each access).
     * @return the thread's local time after the last access performed.
     */
    template <typename AccessT>
    Tick
    accessBatch(Pid pid, const AccessT *block, std::size_t n, Tick now,
                Tick stopAt, std::size_t *consumed, Tlb *tlb = nullptr)
    {
        std::size_t i = 0;
        while (i < n) {
            now += access(pid, block[i].va, block[i].write, now, tlb);
            ++i;
            if (now >= stopAt || now >= eq_.nextTime())
                break;
        }
        *consumed = i;
        return now;
    }

    /**
     * Issue an asynchronous prefetch that lands in the swapcache
     * (kernel-style readahead: a later fault still pays 2.3 us).
     *
     * @return true when actually issued (page was swapped-out and idle).
     */
    bool prefetchToSwapCache(Pid pid, Vpn vpn, Origin origin, Tick now);

    /** Outcome of a prefetchInject() request. */
    enum class InjectResult
    {
        NotIssued, //!< resident, untouched, or already inject-bound
        Issued,    //!< RDMA read issued; PTE injected on arrival
        Adopted,   //!< page was in the swapcache: PTE injected now,
                   //!< no transfer needed (the fetch of the original
                   //!< prefetcher is adopted)
        Joined,    //!< a swapcache-bound fetch was in flight: the
                   //!< request joins it and the PTE is injected on
                   //!< arrival
    };

    /**
     * Issue an asynchronous prefetch with early PTE injection: the PTE
     * is established the moment the page arrives, so a subsequent touch
     * is a plain DRAM hit (§II-C, §III-F). The frame is charged to the
     * application's cgroup (§I contribution 4). A page that already
     * sits in the swapcache (e.g. readahead fetched it on the fault
     * path) is adopted: mapped immediately at zero transfer cost.
     */
    InjectResult prefetchInject(Pid pid, Vpn vpn, Origin origin,
                                Tick now);

    /**
     * Batched injection (§IV huge-page support direction): fetch up to
     * @p count consecutive pages starting at @p vpn with ONE RDMA
     * transfer (one base latency for the whole 2 MB-style batch) and
     * inject each page's PTE on arrival. Pages that are not
     * prefetchable are skipped.
     *
     * @return the number of pages actually bundled.
     */
    unsigned prefetchInjectBatch(Pid pid, Vpn vpn, unsigned count,
                                 Origin origin, Tick now);

    /** True if a prefetch of (pid, vpn) would be useful right now. */
    bool prefetchable(Pid pid, Vpn vpn) const;

    /** Register the fault-driven prefetcher callback. */
    void setFaultCallback(FaultCallback cb) { faultCb_ = std::move(cb); }

    /** Attach a lifecycle listener (stats, HoPP policy). */
    void addListener(PageEventListener *l) { listeners_.push_back(l); }

    /** Attach a PTE hook (HoPP RPT maintenance). */
    void addPteHook(PteHook *h) { pteHooks_.push_back(h); }

    /**
     * Eviction advisor (§IV: "the software can serve other purposes
     * with full memory traces, e.g., improving kernel page eviction"):
     * when set, reclaim gives pages the advisor reports as recently
     * hot a rotation even if their accessed bit is clear.
     */
    class EvictionAdvisor
    {
      public:
        virtual ~EvictionAdvisor() = default;

        /** True to keep (pid, vpn) in memory a little longer. */
        virtual bool keepWarm(Pid pid, Vpn vpn, Tick now) = 0;
    };

    /** Install (or clear, with nullptr) the eviction advisor. */
    void setEvictionAdvisor(EvictionAdvisor *a) { advisor_ = a; }

    /**
     * Attach the flight recorder: fault-resolution spans per class
     * (with the remote path decomposed into §II-A kernel / RDMA / PTE
     * sub-spans), async prefetch issue->fill spans, reclaim-pass
     * spans and sampled miss counters. nullptr (default) detaches.
     */
    void setTracer(obs::Tracer *tracer) { trace_ = tracer; }

    /** Pages currently sitting in the swapcache (gauge). */
    std::uint64_t swapCachedPages() const { return swapCachedPages_; }

    /** Prefetch reads currently in flight (gauge). */
    std::uint64_t inflightPrefetches() const { return inflight_; }

    /** The page table (for HoPP's initial RPT build and tests). */
    PageTable &pageTable() { return table_; }

    /** Cgroup of a process. */
    Cgroup &cgroup(Pid pid);

    /** Event counters. */
    const VmsStats &stats() const { return stats_; }

  private:
    friend class hopp::check::Access;

    /** Cgroup of a process, or nullptr before createProcess(). */
    Cgroup *findCgroup(Pid pid);

    /**
     * Count one application access. The single stats_.accesses site:
     * every entry point (access, accessBatch) books the access here
     * before dispatching, so the counter-conservation invariant
     * (accesses == llcHits + llcMisses) cannot drift between the TLB,
     * slow, and batched paths.
     */
    void noteAccess() { ++stats_.accesses; }

    /**
     * LLC + DRAM data-path cost for a resident access. Inline: this is
     * the tail of both the TLB fast path and every fault resolution.
     */
    Duration
    residentAccess(Pid pid, PageInfo &pi, VirtAddr va, bool is_write,
                   Tick now)
    {
        // Diagnostic formatting of pid/vpn. hopp-analyze: allow(raw)
        HOPP_DCHECK(pi.state == PageState::Resident,
                    "data-path access to page %u:%llu in state %u",
                    pid.raw(), (unsigned long long)pageOf(va).raw(),
                    unsigned(pi.state));
        pi.accessedBit = true;
        if (is_write) {
            pi.dirty = true;
            pi.hasSwapCopy = false;
        }
        if (pi.injected) {
            // First touch of an early-injected page: a plain DRAM hit
            // instead of a 2.3 us prefetch-hit fault (§II-C).
            pi.injected = false;
            ++stats_.injectedHits;
            for (auto *l : listeners_)
                l->onPrefetchHit(pid, pageOf(va), pi.origin, pi.fetchedAt,
                                 now, true);
        }
        PhysAddr pa = pageBase(pi.ppn) + pageOffset(va);
        if (llc_.access(pa)) {
            ++stats_.llcHits;
            if (trace_ && stats_.llcHits % llcTraceSample == 0)
                traceLlcCounters(now);
            return CostModel::llcHit;
        }
        ++stats_.llcMisses;
        if (trace_ && stats_.llcMisses % llcTraceSample == 0)
            traceLlcCounters(now);
        // A write miss performs read-for-ownership first, so the MC
        // sees a READ either way (§III-B).
        mc_.demandRead(lineBase(pa), now);
        return CostModel::dramHit;
    }

    /** Sampling cadence of the LLC trace counters (every Nth event). */
    static constexpr std::uint64_t llcTraceSample = 4096;

    /**
     * Emit both sampled LLC counters together (hit- and miss-side call
     * sites share this, so the pair always moves in lockstep). Each
     * side samples on its own counter's cadence — hit-heavy phases
     * used to go untraced because only the miss counter gated the
     * emission.
     */
    void
    traceLlcCounters(Tick now)
    {
        trace_->counter("mem", "llc_misses", now, stats_.llcMisses);
        trace_->counter("mem", "llc_hits", now, stats_.llcHits);
    }

    /** Fault path and first resident touch; fills @p tlb on the way out. */
    Duration accessSlow(Pid pid, VirtAddr va, bool is_write, Tick now,
                        Tlb *tlb);

    /**
     * Make a frame available for (pid, charged ? charged alloc : cache
     * alloc). Direct-reclaim cost is accumulated into *cost when the
     * caller is the faulting thread; nullptr means reclaim is free
     * (kernel-thread context).
     */
    Ppn obtainFrame(Pid pid, bool charged_alloc, Tick now,
                    Duration *cost);

    /** Evict one page from the cgroup LRU. @return false when empty. */
    bool evictOne(Cgroup &cg, Tick now, bool direct, Duration *cost);

    /** Schedule background reclaim when above the high watermark. */
    void maybeKickKswapd(Pid pid, Tick now);

    /** Background reclaim pass. */
    void kswapdRun(Pid pid);

    /** Map a fetched page: state, PTE hook, LRU. */
    void mapPage(Pid pid, Vpn vpn, PageInfo &pi, Ppn ppn, bool charged,
                 Origin origin, bool injected, Tick now);

    /** Completion handler shared by both prefetch flavours. */
    void finishPrefetch(Pid pid, Vpn vpn, Tick completion);

    void firePteSet(Pid pid, Vpn vpn, Ppn ppn, Tick now);
    void firePteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now);

    sim::EventQueue &eq_;
    mem::Dram &dram_;
    mem::MemCtrl &mc_;
    mem::Llc &llc_;
    remote::SwapBackend &backend_;
    VmsConfig cfg_;
    PageTable table_;
    /// Creation-ordered flat array: process counts are small (one per
    /// colocated app), so a linear scan beats hashing on the per-fault
    /// lookup path, and iteration is deterministic by construction.
    /// The kswapd latch lives inside each Cgroup (see cgroup.hh).
    std::vector<Cgroup> cgroups_;
    FaultCallback faultCb_;
    std::vector<PageEventListener *> listeners_;
    std::vector<PteHook *> pteHooks_;
    EvictionAdvisor *advisor_ = nullptr;
    VmsStats stats_;
    obs::Tracer *trace_ = nullptr;
    std::uint64_t swapCachedPages_ = 0; //!< live SwapCached count
    std::uint64_t inflight_ = 0;        //!< live in-flight prefetches
    /// Reused by prefetchInjectBatch so batch assembly on the drain
    /// path does not allocate per call (reserved in the ctor).
    std::vector<Vpn> bundleScratch_;
};

} // namespace hopp::vm


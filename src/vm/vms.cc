#include "vm/vms.hh"

#include <algorithm>

#include "check/check.hh"

namespace hopp::vm
{

Vms::Vms(sim::EventQueue &eq, mem::Dram &dram, mem::MemCtrl &mc,
         mem::Llc &llc, remote::SwapBackend &backend, const VmsConfig &cfg)
    : eq_(eq), dram_(dram), mc_(mc), llc_(llc), backend_(backend), cfg_(cfg)
{
    hopp_assert(cfg_.kswapdBatch > 0,
                "kswapdBatch must be nonzero: an empty reclaim pass "
                "can never reach the low watermark");
    bundleScratch_.reserve(64);
}

void
Vms::createProcess(Pid pid, std::uint64_t limit_frames)
{
    // Diagnostic formatting of the pid. hopp-analyze: allow(raw)
    hopp_assert(findCgroup(pid) == nullptr, "process %u already exists",
                pid.raw());
    cgroups_.emplace_back(pid, limit_frames);
}

Cgroup *
Vms::findCgroup(Pid pid)
{
    for (Cgroup &cg : cgroups_) {
        if (cg.pid() == pid)
            return &cg;
    }
    return nullptr;
}

Cgroup &
Vms::cgroup(Pid pid)
{
    Cgroup *cg = findCgroup(pid);
    // Diagnostic formatting of the pid. hopp-analyze: allow(raw)
    hopp_assert(cg != nullptr, "unknown process %u", pid.raw());
    return *cg;
}

void
Vms::firePteSet(Pid pid, Vpn vpn, Ppn ppn, Tick now)
{
    for (auto *h : pteHooks_)
        h->onPteSet(pid, vpn, ppn, now);
}

void
Vms::firePteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now)
{
    for (auto *h : pteHooks_)
        h->onPteClear(pid, vpn, ppn, now);
}

bool
Vms::evictOne(Cgroup &cg, Tick now, bool direct, Duration *cost)
{
    unsigned rotations = 0;
    while (!cg.lruEmpty()) {
        std::uint64_t key = cg.lruVictim();
        Pid vpid = keyPid(key);
        Vpn vvpn = keyVpn(key);
        PageInfo &v = table_.get(vpid, vvpn);
        if (v.accessedBit && rotations < cfg_.secondChanceCap) {
            // Second chance: clear the accessed bit and rotate.
            v.accessedBit = false;
            cg.lruRotate(v);
            ++rotations;
            continue;
        }
        if (advisor_ && rotations < cfg_.secondChanceCap &&
            v.state == PageState::Resident &&
            advisor_->keepWarm(vpid, vvpn, now)) {
            // Trace-informed second chance (§IV): the hot-page trace
            // says this page is warmer than the accessed bit shows.
            cg.lruRotate(v);
            ++rotations;
            continue;
        }

        if (v.state == PageState::Resident) {
            firePteClear(vpid, vvpn, v.ppn, now);
            if (v.injected) {
                // An injected prefetch reclaimed before its first use:
                // a wasted HoPP/Depth-N prefetch.
                v.injected = false;
                for (auto *l : listeners_)
                    l->onPrefetchEvicted(vpid, vvpn, v.origin, now);
            }
            if (v.dirty || !v.hasSwapCopy) {
                if (v.slot == remote::noSlot)
                    v.slot = backend_.allocate(vpid, vvpn);
                backend_.write(now);
                ++stats_.writebacks;
                v.hasSwapCopy = true;
                v.dirty = false;
            }
            for (auto *l : listeners_)
                l->onPageEvicted(vpid, vvpn, now);
        } else {
            hopp_assert(v.state == PageState::SwapCached,
                        "LRU page in unexpected state");
            if (v.prefetched) {
                // Unhit swapcache prefetch discarded: a wasted fetch.
                v.prefetched = false;
                for (auto *l : listeners_)
                    l->onPrefetchEvicted(vpid, vvpn, v.origin, now);
            }
            hopp_assert(v.hasSwapCopy, "swapcache page without swap copy");
            --swapCachedPages_;
        }

        v.state = PageState::Swapped;
        llc_.invalidatePage(v.ppn);
        dram_.release(v.ppn);
        v.ppn = Ppn{};
        cg.lruRemove(v);
        if (v.charged) {
            cg.uncharge();
            v.charged = false;
        }
        ++stats_.evictions;
        if (direct) {
            ++stats_.directReclaims;
            if (cost)
                *cost += CostModel::directReclaimPerPage;
        } else {
            ++stats_.kswapdReclaims;
        }
        return true;
    }
    return false;
}

Ppn
Vms::obtainFrame(Pid pid, bool charged_alloc, Tick now, Duration *cost)
{
    Cgroup &cg = cgroup(pid);
    if (charged_alloc) {
        while (cg.atLimit()) {
            bool ok = evictOne(cg, now, cost != nullptr, cost);
            hopp_assert(ok, "cgroup at limit with nothing reclaimable");
        }
    }
    while (dram_.exhausted()) {
        // Global memory pressure: reclaim from this cgroup first, then
        // from whichever cgroup holds the most frames.
        if (evictOne(cg, now, cost != nullptr, cost))
            continue;
        Cgroup *biggest = nullptr;
        // Order-independent selection: strictly larger LRU wins and
        // ties go to the smallest pid, so the victim cgroup does not
        // depend on container order (the flat vector is deterministic
        // anyway, but the policy stays order-free).
        for (Cgroup &other : cgroups_) {
            if (other.lruEmpty())
                continue;
            if (!biggest || other.lruSize() > biggest->lruSize() ||
                (other.lruSize() == biggest->lruSize() &&
                 other.pid() < biggest->pid())) {
                biggest = &other;
            }
        }
        hopp_assert(biggest, "DRAM exhausted with nothing reclaimable");
        evictOne(*biggest, now, cost != nullptr, cost);
    }
    maybeKickKswapd(pid, now);
    return dram_.allocate();
}

void
Vms::maybeKickKswapd(Pid pid, Tick now)
{
    if (!cfg_.kswapdEnabled)
        return;
    Cgroup &cg = cgroup(pid);
    auto high = static_cast<std::uint64_t>(
        static_cast<double>(cg.limit()) * highWatermark);
    if (cg.charged() < high || cg.kswapdActive())
        return;
    cg.setKswapdActive(true);
    Tick when = std::max(now, eq_.now()) + kswapdDelay;
    eq_.schedule(when, [this, pid] { kswapdRun(pid); });
}

void
Vms::kswapdRun(Pid pid)
{
    Cgroup &cg = cgroup(pid);
    auto target = static_cast<std::uint64_t>(
        static_cast<double>(cg.limit()) * lowWatermark);
    if (trace_)
        trace_->begin("vm", "reclaim.kswapd", eq_.now(),
                      obs::track::kswapd);
    unsigned batch = cfg_.kswapdBatch;
    while (cg.charged() > target && batch-- > 0) {
        if (!evictOne(cg, eq_.now(), false, nullptr))
            break;
    }
    if (trace_) {
        trace_->end("vm", "reclaim.kswapd", eq_.now(),
                    obs::track::kswapd);
        trace_->counter("vm", "kswapd_reclaimed", eq_.now(),
                        stats_.kswapdReclaims);
    }
    if (cg.charged() > target && !cg.lruEmpty()) {
        eq_.scheduleIn(kswapdDelay, [this, pid] { kswapdRun(pid); });
    } else {
        cg.setKswapdActive(false);
    }
}

void
Vms::mapPage(Pid pid, Vpn vpn, PageInfo &pi, Ppn ppn, bool charged,
             Origin origin, bool injected, Tick now)
{
    // Diagnostic formatting of pid/vpn. hopp-analyze: allow(raw)
    HOPP_DCHECK(pi.state != PageState::Resident,
                "double map of page %u:%llu", pid.raw(),
                (unsigned long long)vpn.raw());
    // Diagnostic formatting of pid/vpn. hopp-analyze: allow(raw)
    HOPP_DCHECK(!pi.inflight, "mapping page %u:%llu mid-fetch", pid.raw(),
                (unsigned long long)vpn.raw());
    pi.state = PageState::Resident;
    pi.ppn = ppn;
    pi.origin = origin;
    pi.injected = injected;
    pi.prefetched = false;
    pi.fetchedAt = now;
    pi.accessedBit = false;
    if (charged) {
        cgroup(pid).charge();
        pi.charged = true;
    }
    if (!pi.inLru)
        cgroup(pid).lruInsert(pageKey(pid, vpn), pi);
    firePteSet(pid, vpn, pi.ppn, now);
}

Duration
Vms::accessSlow(Pid pid, VirtAddr va, bool is_write, Tick now, Tlb *tlb)
{
    // stats_.accesses was already booked by noteAccess() in access().
    Vpn vpn = pageOf(va);
    PageInfo &pi = table_.get(pid, vpn);

    // Radix leaves never move, so &pi stays valid across the frame
    // allocation / reclaim below and is safe to cache in the TLB once
    // the page is Resident (any later PTE clear shoots it down).
    switch (pi.state) {
      case PageState::Resident:
        if (tlb)
            tlb->fill(pid, vpn, &pi);
        return residentAccess(pid, pi, va, is_write, now);

      case PageState::Untouched: {
        // First touch: zero-fill minor fault. The fresh page has no
        // remote copy, so it is born dirty.
        Duration cost = CostModel::faultOverhead();
        Ppn ppn = obtainFrame(pid, true, now, &cost);
        mapPage(pid, vpn, pi, ppn, true, originDemand, false, now + cost);
        pi.dirty = true;
        pi.hasSwapCopy = false;
        ++stats_.coldFaults;
        if (trace_)
            trace_->complete("vm", "fault.cold", now, cost,
                             obs::track::ofPid(pid));
        for (auto *l : listeners_)
            l->onFaultResolved(pid, vpn, FaultKind::Cold, cost, now + cost);
        if (tlb)
            tlb->fill(pid, vpn, &pi);
        cost += residentAccess(pid, pi, va, is_write, now + cost);
        return cost;
      }

      case PageState::SwapCached: {
        // Prefetch-hit: the page is in DRAM but the fault still costs
        // the 2.3 us kernel path (§II-A / §II-C).
        Duration cost = CostModel::faultOverhead();
        bool was_prefetched = pi.prefetched;
        Origin origin = pi.origin;
        Tick ready_at = pi.fetchedAt;
        Cgroup &cg = cgroup(pid);
        // Take the page off the LRU while charging so the reclaim loop
        // cannot pick the very page being promoted.
        cg.lruRemove(pi);
        if (!pi.charged) {
            while (cg.atLimit()) {
                bool ok = evictOne(cg, now, true, &cost);
                hopp_assert(ok, "cgroup at limit with empty LRU");
            }
            cg.charge();
            pi.charged = true;
        }
        pi.state = PageState::Resident;
        pi.prefetched = false;
        cg.lruInsert(pageKey(pid, vpn), pi);
        firePteSet(pid, vpn, pi.ppn, now + cost);
        ++stats_.swapCacheHits;
        --swapCachedPages_;
        if (trace_)
            trace_->complete("vm", "fault.swapcache_hit", now, cost,
                             obs::track::ofPid(pid));
        if (was_prefetched) {
            for (auto *l : listeners_)
                l->onPrefetchHit(pid, vpn, origin, ready_at, now + cost,
                                 false);
        }
        for (auto *l : listeners_)
            l->onFaultResolved(pid, vpn, FaultKind::SwapCacheHit, cost,
                               now + cost);
        if (faultCb_) {
            faultCb_(FaultContext{pid, vpn, pi.slot,
                                  FaultKind::SwapCacheHit, now + cost});
        }
        if (tlb)
            tlb->fill(pid, vpn, &pi);
        cost += residentAccess(pid, pi, va, is_write, now + cost);
        return cost;
      }

      case PageState::Swapped: {
        if (pi.inflight) {
            // Fault on a page whose prefetch is still in the air: the
            // kernel waits on the in-flight IO, then takes the
            // swapcache-hit path.
            Duration wait =
                pi.completesAt > now ? pi.completesAt - now : 0;
            Duration cost = wait + CostModel::faultOverhead();
            Origin origin = pi.origin;
            Tick ready_at = pi.completesAt;
            pi.inflight = false; // completion handler will drop it
            Ppn ppn = obtainFrame(pid, true, now, &cost);
            mapPage(pid, vpn, pi, ppn, true, origin, false, now + cost);
            pi.hasSwapCopy = true;
            pi.dirty = false;
            mc_.pageDma(ppn, now + cost);
            llc_.invalidatePage(ppn);
            ++stats_.inflightWaits;
            --inflight_;
            if (trace_)
                trace_->complete("vm", "fault.inflight_wait", now, cost,
                                 obs::track::ofPid(pid));
            for (auto *l : listeners_) {
                // The in-flight prefetch is consumed here; its normal
                // completion event will be dropped, so account for the
                // completed fetch before the hit.
                l->onPrefetchCompleted(pid, vpn, origin, now + cost,
                                       false);
                l->onPrefetchHit(pid, vpn, origin, ready_at, now + cost,
                                 false);
                l->onFaultResolved(pid, vpn, FaultKind::InflightWait, cost,
                                   now + cost);
            }
            if (faultCb_) {
                faultCb_(FaultContext{pid, vpn, pi.slot,
                                      FaultKind::InflightWait, now + cost});
            }
            if (tlb)
                tlb->fill(pid, vpn, &pi);
            cost += residentAccess(pid, pi, va, is_write, now + cost);
            return cost;
        }

        // Full remote fault: kernel path + RDMA + PTE establish.
        Duration cost = CostModel::contextSwitch + CostModel::pageWalk +
                        CostModel::swapCacheQuery;
        Ppn ppn = obtainFrame(pid, true, now, &cost);
        Duration kernel = cost; // §II-A steps 1-3 + direct reclaim
        Tick completion = backend_.demandRead(now + cost);
        cost = (completion - now) + CostModel::pteEstablish;
        mapPage(pid, vpn, pi, ppn, true, originDemand, false, now + cost);
        pi.hasSwapCopy = true;
        pi.dirty = false;
        mc_.pageDma(ppn, now + cost);
        llc_.invalidatePage(ppn);
        ++stats_.remoteFaults;
        if (trace_) {
            // The fault span plus its §II-A decomposition: kernel
            // steps (incl. direct reclaim), the RDMA transfer (incl.
            // link queueing), and the PTE establish tail.
            std::uint32_t tid = obs::track::ofPid(pid);
            trace_->complete("vm", "fault.remote", now, cost, tid);
            trace_->complete("vm", "remote.kernel", now, kernel, tid);
            trace_->complete("vm", "remote.rdma", now + kernel,
                             completion - (now + kernel), tid);
            trace_->complete("vm", "remote.pte", completion,
                             CostModel::pteEstablish, tid);
        }
        for (auto *l : listeners_) {
            l->onDemandRemote(pid, vpn, now);
            l->onFaultResolved(pid, vpn, FaultKind::Remote, cost,
                               now + cost);
        }
        if (faultCb_) {
            faultCb_(FaultContext{pid, vpn, pi.slot, FaultKind::Remote,
                                  now + cost});
        }
        if (tlb)
            tlb->fill(pid, vpn, &pi);
        cost += residentAccess(pid, pi, va, is_write, now + cost);
        return cost;
      }
    }
    hopp_panic("unreachable page state");
}

bool
Vms::prefetchable(Pid pid, Vpn vpn) const
{
    const PageInfo *pi = table_.find(pid, vpn);
    return pi && pi->state == PageState::Swapped && !pi->inflight;
}

bool
Vms::prefetchToSwapCache(Pid pid, Vpn vpn, Origin origin, Tick now)
{
    if (!prefetchable(pid, vpn))
        return false;
    PageInfo &pi = table_.get(pid, vpn);
    pi.inflight = true;
    pi.injectOnArrival = false;
    pi.origin = origin;
    ++inflight_;
    Tick issue = std::max(now, eq_.now());
    pi.completesAt = backend_.readAsync(
        issue,
        [this, pid, vpn](Tick t) { finishPrefetch(pid, vpn, t); });
    if (trace_) {
        // Issue->fill span; ends at the already-known completion tick
        // (the sort puts the end event in its place).
        std::uint64_t id = trace_->nextAsyncId();
        trace_->asyncBegin("vm", "prefetch.swapcache", issue, id);
        trace_->asyncEnd("vm", "prefetch.swapcache", pi.completesAt, id);
    }
    return true;
}

Vms::InjectResult
Vms::prefetchInject(Pid pid, Vpn vpn, Origin origin, Tick now)
{
    PageInfo *found = table_.find(pid, vpn);
    if (found && found->state == PageState::SwapCached) {
        // Adoption: the data is already local (fetched by the
        // fault-path prefetcher); inject the PTE right now so the
        // future touch is a DRAM hit instead of a 2.3 us fault.
        PageInfo &pi = *found;
        Cgroup &cg = cgroup(pid);
        cg.lruRemove(pi);
        if (!pi.charged) {
            while (cg.atLimit()) {
                bool ok = evictOne(cg, now, false, nullptr);
                hopp_assert(ok, "cgroup at limit with empty LRU");
            }
            cg.charge();
            pi.charged = true;
        }
        pi.state = PageState::Resident;
        pi.prefetched = false; // the original fetch is consumed usefully
        pi.origin = origin;
        pi.injected = true;
        pi.accessedBit = false;
        cg.lruInsert(pageKey(pid, vpn), pi);
        firePteSet(pid, vpn, pi.ppn, now);
        ++stats_.adoptions;
        --swapCachedPages_;
        if (trace_)
            trace_->instant("vm", "prefetch.adopt", now,
                            obs::track::ofPid(pid));
        return InjectResult::Adopted;
    }
    if (found && found->state == PageState::Swapped &&
        found->inflight && !found->injectOnArrival) {
        // A swapcache-bound fetch (fault-path readahead) is already on
        // the wire: join it, upgrading the arrival to a PTE injection
        // under the new origin.
        found->injectOnArrival = true;
        found->origin = origin;
        if (trace_)
            trace_->instant("vm", "prefetch.join", now,
                            obs::track::ofPid(pid));
        return InjectResult::Joined;
    }
    if (!prefetchable(pid, vpn))
        return InjectResult::NotIssued;
    PageInfo &pi = table_.get(pid, vpn);
    pi.inflight = true;
    pi.injectOnArrival = true;
    pi.origin = origin;
    ++inflight_;
    Tick issue = std::max(now, eq_.now());
    pi.completesAt = backend_.readAsync(
        issue,
        [this, pid, vpn](Tick t) { finishPrefetch(pid, vpn, t); });
    if (trace_) {
        std::uint64_t id = trace_->nextAsyncId();
        trace_->asyncBegin("vm", "prefetch.inject", issue, id);
        trace_->asyncEnd("vm", "prefetch.inject", pi.completesAt, id);
    }
    return InjectResult::Issued;
}

unsigned
Vms::prefetchInjectBatch(Pid pid, Vpn vpn, unsigned count,
                         Origin origin, Tick now)
{
    // Collect the bundle into the reused scratch buffer (reserved in
    // the ctor): consecutive pages that are fetchable now. Only the
    // async completion below copies it, once per batch transfer.
    bundleScratch_.clear();
    for (unsigned i = 0; i < count; ++i) {
        if (prefetchable(pid, vpn + i))
            bundleScratch_.push_back(vpn + i);
    }
    if (bundleScratch_.empty())
        return 0;
    for (Vpn v : bundleScratch_) {
        PageInfo &pi = table_.get(pid, v);
        pi.inflight = true;
        pi.injectOnArrival = true;
        pi.origin = origin;
    }
    inflight_ += bundleScratch_.size();
    // One transfer for the whole bundle: a single base latency, with
    // serialization proportional to the bundle size.
    Tick issue = std::max(now, eq_.now());
    Tick completion = backend_.readBatchAsync(
        bundleScratch_.size(), issue,
        [this, pid, bundle = bundleScratch_](Tick t) {
            for (Vpn v : bundle)
                finishPrefetch(pid, v, t);
        });
    for (Vpn v : bundleScratch_)
        table_.get(pid, v).completesAt = completion;
    if (trace_) {
        // One span covers the whole bundle (one RDMA transfer).
        std::uint64_t id = trace_->nextAsyncId();
        trace_->asyncBegin("vm", "prefetch.batch", issue, id);
        trace_->asyncEnd("vm", "prefetch.batch", completion, id);
    }
    return static_cast<unsigned>(bundleScratch_.size());
}

void
Vms::finishPrefetch(Pid pid, Vpn vpn, Tick completion)
{
    PageInfo &pi = table_.get(pid, vpn);
    if (!pi.inflight) {
        // The application faulted while the read was in flight and the
        // fault handler already consumed it.
        ++stats_.prefetchesDropped;
        return;
    }
    // Read the delivery mode at arrival: an injector may have joined
    // this fetch while it was on the wire.
    bool inject = pi.injectOnArrival;
    Origin origin = pi.origin;
    pi.inflight = false;
    --inflight_;
    Ppn ppn = obtainFrame(pid, inject, completion, nullptr);
    pi.hasSwapCopy = true;
    pi.dirty = false;
    pi.fetchedAt = completion;
    mc_.pageDma(ppn, completion);
    llc_.invalidatePage(ppn);
    if (inject) {
        mapPage(pid, vpn, pi, ppn, true, origin, true, completion);
    } else {
        pi.state = PageState::SwapCached;
        pi.ppn = ppn;
        pi.prefetched = true;
        pi.origin = origin;
        pi.charged = false;
        pi.accessedBit = false;
        cgroup(pid).lruInsert(pageKey(pid, vpn), pi);
        ++swapCachedPages_;
    }
    for (auto *l : listeners_)
        l->onPrefetchCompleted(pid, vpn, origin, completion, inject);
}

} // namespace hopp::vm

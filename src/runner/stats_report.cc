#include "runner/stats_report.hh"

#include "runner/machine.hh"

namespace hopp::runner
{

namespace
{

stats::StatSet
llcStats(const mem::Llc &llc)
{
    stats::StatSet s("llc");
    s.record("hits", static_cast<double>(llc.hits()), "LLC hits");
    s.record("misses", static_cast<double>(llc.misses()),
             "LLC misses (reach the MC)");
    double total =
        static_cast<double>(llc.hits() + llc.misses());
    s.record("miss_rate",
             total > 0 ? static_cast<double>(llc.misses()) / total : 0,
             "miss fraction");
    return s;
}

stats::StatSet
mcStats(const mem::MemCtrl &mc)
{
    stats::StatSet s("mc");
    s.record("reads", static_cast<double>(mc.reads()),
             "demand read transactions");
    s.record("writes", static_cast<double>(mc.writes()),
             "writeback transactions");
    return s;
}

stats::StatSet
dramStats(const mem::Dram &dram)
{
    using mem::TrafficSource;
    stats::StatSet s("dram");
    s.record("frames_total", static_cast<double>(dram.totalFrames()),
             "frames in the module");
    s.record("frames_used", static_cast<double>(dram.usedFrames()),
             "frames allocated at end of run");
    s.record("bytes_app_read",
             static_cast<double>(dram.traffic(TrafficSource::AppRead)),
             "demand LLC-miss read bytes");
    s.record("bytes_app_write",
             static_cast<double>(dram.traffic(TrafficSource::AppWrite)),
             "writeback bytes");
    s.record("bytes_page_dma",
             static_cast<double>(
                 dram.traffic(TrafficSource::PageTransfer)),
             "RDMA page DMA bytes");
    s.record("bytes_hot_page",
             static_cast<double>(
                 dram.traffic(TrafficSource::HotPageWrite)),
             "HPD hot-page record bytes (Table V)");
    s.record("bytes_rpt_query",
             static_cast<double>(dram.traffic(TrafficSource::RptQuery)),
             "RPT cache miss fill bytes (Table V)");
    s.record("bytes_rpt_update",
             static_cast<double>(
                 dram.traffic(TrafficSource::RptUpdate)),
             "RPT write-back bytes");
    return s;
}

stats::StatSet
vmsStats(const vm::Vms &vms)
{
    const vm::VmsStats &v = vms.stats();
    stats::StatSet s("vms");
    s.record("accesses", static_cast<double>(v.accesses),
             "application memory accesses");
    s.record("faults", static_cast<double>(v.faults()),
             "all page faults");
    s.record("faults_cold", static_cast<double>(v.coldFaults),
             "first-touch zero-fill faults");
    s.record("faults_remote", static_cast<double>(v.remoteFaults),
             "demand RDMA page-ins (8.3-11.3 us path)");
    s.record("faults_swapcache_hit",
             static_cast<double>(v.swapCacheHits),
             "prefetch-hits (2.3 us path)");
    s.record("faults_inflight_wait",
             static_cast<double>(v.inflightWaits),
             "faults that waited on in-flight prefetches");
    s.record("injected_hits", static_cast<double>(v.injectedHits),
             "fault-free first touches of injected pages");
    s.record("adoptions", static_cast<double>(v.adoptions),
             "swapcache pages converted by PTE injection");
    s.record("evictions", static_cast<double>(v.evictions),
             "pages reclaimed");
    s.record("writebacks", static_cast<double>(v.writebacks),
             "dirty page-outs");
    s.record("reclaim_direct", static_cast<double>(v.directReclaims),
             "synchronous reclaims charged to the app");
    s.record("reclaim_kswapd", static_cast<double>(v.kswapdReclaims),
             "background reclaims");
    s.record("prefetches_dropped",
             static_cast<double>(v.prefetchesDropped),
             "completions that found their page already consumed");
    return s;
}

stats::StatSet
backendStats(const remote::SwapBackend &backend)
{
    stats::StatSet s("remote");
    s.record("demand_reads", static_cast<double>(backend.demandReads()),
             "fault-path page reads");
    s.record("prefetch_reads",
             static_cast<double>(backend.prefetchReads()),
             "prefetch page reads");
    s.record("batch_reads", static_cast<double>(backend.batchReads()),
             "multi-page batched transfers");
    s.record("writebacks", static_cast<double>(backend.writebacks()),
             "page-out writes");
    return s;
}

stats::StatSet
prefetchStats(const prefetch::PrefetchStats &ps)
{
    stats::StatSet s("prefetch");
    s.record("accuracy", ps.accuracy(), "hits / completed (SVI-A)");
    s.record("coverage", ps.coverage(),
             "hits / (demand remote + hits) (SVI-A)");
    s.record("coverage_dram_hit", ps.dramHitCoverage(),
             "fault-free share of coverage (Fig 21)");
    s.record("completed", static_cast<double>(ps.totalCompleted()),
             "prefetches landed");
    s.record("hits", static_cast<double>(ps.totalHits()),
             "prefetched pages used");
    return s;
}

stats::StatSet
hoppStats(core::HoppSystem &h)
{
    stats::StatSet s("hopp");
    auto hpd = h.hpdTotals();
    s.record("hpd.reads", static_cast<double>(hpd.reads),
             "MC read misses observed");
    s.record("hpd.hot_pages", static_cast<double>(hpd.hotPages),
             "hot pages extracted");
    s.record("hpd.hot_ratio", hpd.hotRatio(),
             "Table II ratio");
    s.record("hpd.suppressed", static_cast<double>(hpd.suppressed),
             "send-bit drops");
    s.record("rpt.hit_rate", h.rptCache().stats().hitRate(),
             "Table III hit rate (channel 0)");
    s.record("rpt.entries", static_cast<double>(h.rpt().size()),
             "live DRAM RPT entries");
    s.record("stt.streams_seeded",
             static_cast<double>(h.stt().stats().seeded),
             "stream generations");
    s.record("trainer.hot_pages",
             static_cast<double>(h.trainer().stats().hotPages),
             "records consumed");
    s.record("trainer.no_pattern",
             static_cast<double>(h.trainer().stats().noPattern),
             "full histories with no identified pattern");
    const char *tier_names[] = {"ssp", "lsp", "rsp", "mkv"};
    for (unsigned t = 0; t < core::tierCount; ++t) {
        const auto &ts =
            h.exec().tierStats(static_cast<core::Tier>(t));
        std::string p = std::string("tier.") + tier_names[t];
        s.record(p + ".issued", static_cast<double>(ts.issued),
                 "injections issued");
        s.record(p + ".hits", static_cast<double>(ts.hits),
                 "injections used");
        s.record(p + ".evicted_unused",
                 static_cast<double>(ts.evictedUnused),
                 "injections wasted");
    }
    s.record("exec.deduped", static_cast<double>(h.exec().deduped()),
             "requests dropped by dedup (SIII-F)");
    s.record("policy.feedbacks",
             static_cast<double>(h.policy().stats().feedbacks),
             "timeliness samples");
    s.record("policy.offset_up",
             static_cast<double>(h.policy().stats().increases),
             "offset increases");
    s.record("policy.offset_down",
             static_cast<double>(h.policy().stats().decreases),
             "offset decreases");
    s.record("ring.dropped",
             static_cast<double>(h.ring().dropped()),
             "hot pages lost to a full ring");
    s.record("advisor.warm_live",
             static_cast<double>(h.warmEntriesLive()),
             "live advisor hotness entries");
    s.record("advisor.warm_pruned",
             static_cast<double>(h.warmPruned()),
             "stale advisor entries aged out");
    s.record("advisor.prune_passes",
             static_cast<double>(h.warmPrunePasses()),
             "advisor prune passes");
    return s;
}

stats::StatSet
linkStats(const char *name, const net::Link &link)
{
    stats::StatSet s(name);
    s.record("bytes", static_cast<double>(link.bytesSent()),
             "payload bytes");
    s.record("transfers", static_cast<double>(link.transfers()),
             "transfers accepted");
    s.record("queue_delay_mean_ns", link.queueDelay().mean(),
             "mean per-transfer queueing delay");
    s.record("queue_delay_max_ns", link.queueDelay().max(),
             "max per-transfer queueing delay");
    return s;
}

stats::StatSet
latencyStats(const obs::FaultLatency &lat)
{
    stats::StatSet s("latency");
    lat.dumpStats(s);
    return s;
}

} // namespace

std::vector<stats::StatSet>
collectStats(Machine &machine)
{
    std::vector<stats::StatSet> out;
    out.push_back(llcStats(machine.llc()));
    out.push_back(dramStats(machine.dram()));
    out.push_back(mcStats(machine.memCtrl()));
    out.push_back(vmsStats(machine.vms()));
    out.push_back(backendStats(machine.backend()));
    out.push_back(prefetchStats(machine.prefetchStats()));
    out.push_back(latencyStats(machine.faultLatency()));
    out.push_back(linkStats("net.read", machine.fabric().readLink()));
    out.push_back(
        linkStats("net.write", machine.fabric().writeLink()));
    if (auto *h = machine.hoppSystem())
        out.push_back(hoppStats(*h));
    return out;
}

std::string
statsReport(Machine &machine)
{
    std::string out;
    for (const auto &set : collectStats(machine))
        out += set.toString();
    return out;
}

stats::JsonFields
statsFields(Machine &machine)
{
    stats::JsonFields out;
    for (const auto &set : collectStats(machine))
        for (const auto &v : set.values())
            out.emplace_back(v.name, v.value);
    return out;
}

std::string
statsJson(Machine &machine)
{
    return stats::flatJson(statsFields(machine));
}

} // namespace hopp::runner

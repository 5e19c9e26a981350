#include "hopp/pipeline.hh"

#include <algorithm>

#include "vm/page.hh"

namespace hopp::core
{

HotPagePipeline::HotPagePipeline(sim::EventQueue &eq, mem::Dram &dram,
                                 PolicyEngine &policy,
                                 PrefetchSink &sink,
                                 const HoppConfig &cfg)
    : eq_(eq), dram_(dram), cfg_(cfg), ring_(cfg.ringCapacity),
      sink_(sink)
{
    addBackend(policy, sink, cfg_);
    hopp_assert(cfg_.channels >= 1, "need at least one channel");
    hopp_assert((cfg_.channels & (cfg_.channels - 1)) == 0,
                "channel count must be a power of two");
    HpdConfig hpd_cfg = cfg_.hpd;
    if (cfg_.channelInterleaved && cfg_.scaleThresholdWithChannels &&
        cfg_.channels > 1) {
        // §III-B: with interleaving every MC sees only 1/channels of a
        // page's lines, so N must shrink to keep extraction timely.
        hpd_cfg.threshold =
            std::max(1u, cfg_.hpd.threshold / cfg_.channels);
    }
    // Reserve up front: RptCache holds reference members, so it is
    // move-constructible but not assignable — the vectors must never
    // relocate after this.
    hpds_.reserve(cfg_.channels);
    rptCaches_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        hpds_.emplace_back(hpd_cfg);
        rptCaches_.emplace_back(rpt_, dram, cfg_.rptCache);
    }
    warmPruneAt_ = cfg_.warmEntriesCap;
}

std::size_t
HotPagePipeline::sttGroupFor(const SttConfig &cfg)
{
    for (std::size_t i = 0; i < sttGroups_.size(); ++i) {
        if (sttGroups_[i].cfg == cfg)
            return i;
    }
    sttGroups_.push_back(
        SttGroup{cfg, std::make_unique<Stt>(cfg), std::nullopt, {}});
    return sttGroups_.size() - 1;
}

const MarkovTable *
HotPagePipeline::markovTableFor(const MarkovConfig &cfg)
{
    for (const MarkovGroup &g : markovGroups_) {
        if (g.cfg == cfg)
            return g.table.get();
    }
    markovGroups_.push_back(
        MarkovGroup{cfg, std::make_unique<MarkovTable>(cfg), {}});
    return markovGroups_.back().table.get();
}

void
HotPagePipeline::addBackend(PolicyEngine &policy, PrefetchSink &sink,
                            const HoppConfig &soft)
{
    const MarkovTable *markov = (soft.tierMask & tiers::markov)
                                    ? markovTableFor(soft.markov)
                                    : nullptr;
    backends_.push_back(std::make_unique<Backend>(Backend{
        Trainer(policy, sink, soft.tierMask, soft.batch, markov),
        sttGroupFor(soft.stt)}));
}

std::size_t
HotPagePipeline::addReplayBackend(PolicyEngine &policy,
                                  PrefetchSink &sink,
                                  const HoppConfig &soft)
{
    // The frontend must not have run yet: a backend attached after the
    // first extraction would miss hot pages a solo run of its cell
    // would have seen, silently breaking the fidelity contract.
    hopp_assert(hotPagesSeen_ == 0 && ring_.pushed() == 0,
                "backends must be attached before the first access");
    addBackend(policy, sink, soft);
    return backends_.size() - 1;
}

unsigned
HotPagePipeline::channelOf(PhysAddr pa) const
{
    if (cfg_.channels == 1)
        return 0;
    // Interleaved: consecutive cachelines round-robin the channels.
    // Non-interleaved: a whole page lives in one channel.
    // Channel steering hashes the line/frame number's low bits.
    std::uint64_t unit = cfg_.channelInterleaved
                             ? lineOf(pa)
                             : pageOf(pa).raw(); // hopp-analyze: allow(raw)
    return static_cast<unsigned>(unit & (cfg_.channels - 1));
}

HpdStats
HotPagePipeline::hpdTotals() const
{
    HpdStats total;
    for (const Hpd &h : hpds_) {
        const HpdStats &s = h.stats();
        total.reads += s.reads;
        total.writesIgnored += s.writesIgnored;
        total.hotPages += s.hotPages;
        total.suppressed += s.suppressed;
        total.evictions += s.evictions;
    }
    return total;
}

bool
HotPagePipeline::keepWarm(Pid pid, Vpn vpn, Tick now)
{
    // Recency alone would pin every page of a hot stream; require
    // *repeated* hotness within the window, which only reuse-heavy
    // pages (graph vertex sets, recursion working sets) exhibit.
    const Hotness *h = lastHot_.find(vm::pageKey(pid, vpn));
    if (!h)
        return false;
    return h->prev != Tick{} && now - h->last < warmWindow &&
           h->last - h->prev < warmWindow;
}

void
HotPagePipeline::onMcAccess(PhysAddr pa, bool is_write, Tick now)
{
    unsigned channel = channelOf(pa);
    auto hot = hpds_[channel].access(pa, is_write);
    if (!hot)
        return;
    auto entry = rptCaches_[channel].lookup(*hot);
    if (!entry) {
        // Frame not (or no longer) mapped: nothing to tell software.
        ++unmapped_;
        return;
    }
    HotPage hp;
    hp.pid = entry->pid;
    hp.vpn = entry->vpn;
    hp.time = now;
    ring_.push(hp);
    ++hotPagesSeen_;
    if (trace_ && hotPagesSeen_ % 64 == 0) {
        trace_->counter("hopp", "hot_pages", now, hotPagesSeen_);
        trace_->counter("hopp", "rpt_unmapped", now, unmapped_);
        trace_->counter("hopp", "ring_occupancy", now, ring_.size());
    }
    dram_.recordTraffic(mem::TrafficSource::HotPageWrite,
                        hotPageRecordBytes);
    if (!drainScheduled_) {
        drainScheduled_ = true;
        Tick when = std::max(now, eq_.now()) + cfg_.trainerDelay;
        eq_.schedule(when, [this] { drainRing(); });
    }
}

void
HotPagePipeline::drainRing()
{
    drainScheduled_ = false;
    // The drain runs inside one event callback, so eq_.now() is fixed
    // for its duration and the B/E pair below is trivially balanced.
    std::uint64_t drained = ring_.size();
    if (trace_ && drained)
        trace_->begin("hopp", "trainer.drain", eq_.now(),
                      obs::track::hopp);
    while (auto hp = ring_.pop()) {
        if (cfg_.evictionAdvisor) {
            Hotness &h = lastHot_[vm::pageKey(hp->pid, hp->vpn)];
            h.prev = h.last;
            h.last = hp->time;
            if (lastHot_.size() >= warmPruneAt_)
                pruneWarm(eq_.now());
        }
        // Train each distinct-config Markov table and feed each
        // distinct-config STT once; every backend of a group predicts
        // from the same table and view, and asks the group's memo for
        // its tiers' answer — identical to each trainer training and
        // feeding private tables and running its own tiers.
        for (auto &m : markovGroups_) {
            auto [it, fresh] = m.lastVpn.try_emplace(hp->pid, hp->vpn);
            if (!fresh) {
                if (it->second != hp->vpn)
                    m.table->train(hp->pid, it->second, hp->vpn);
                it->second = hp->vpn;
            }
        }
        for (auto &g : sttGroups_) {
            g.view = g.stt->feed(hp->pid, hp->vpn);
            if (g.view)
                g.tiers.reset(*g.view);
        }
        for (auto &backend : backends_) {
            SttGroup &g = sttGroups_[backend->sttGroup];
            backend->trainer.onHotPage(*hp, g.view, g.tiers, eq_.now());
        }
    }
    if (trace_ && drained) {
        trace_->end("hopp", "trainer.drain", eq_.now(),
                    obs::track::hopp);
        trace_->counter("hopp", "drain_batch", eq_.now(), drained);
        trace_->counter("hopp", "exec_outstanding", eq_.now(),
                        sink_.outstanding());
    }
}

void
HotPagePipeline::pruneWarm(Tick now)
{
    // Age-based prune (instead of a wholesale clear, which would
    // silently disable keepWarm for every stream at once): an entry
    // whose last hot extraction fell out of the warm window can never
    // satisfy keepWarm again until re-extracted, so dropping exactly
    // those is behaviour-preserving. One O(n) rebuild per pass.
    ++warmPrunePasses_;
    warmPruned_ += lastHot_.eraseIf(
        [this, now](std::uint64_t, const Hotness &h) {
            return now - h.last >= warmWindow;
        });
    // If (nearly) everything is genuinely warm the table legitimately
    // exceeds the cap; back the next trigger off so a hot phase does
    // not rescan the table on every insertion.
    warmPruneAt_ = std::max(cfg_.warmEntriesCap, lastHot_.size() * 2);
}

void
HotPagePipeline::onPteSet(Pid pid, Vpn vpn, Ppn ppn, Tick)
{
    RptEntry entry{pid, vpn};
    if (cfg_.channelInterleaved) {
        // Any channel's HPD can extract this page: every MC's RPT
        // cache receives the update.
        for (RptCache &cache : rptCaches_)
            cache.update(ppn, entry);
    } else {
        rptCaches_[channelOf(pageBase(ppn))].update(ppn, entry);
    }
}

void
HotPagePipeline::onPteClear(Pid, Vpn, Ppn ppn, Tick)
{
    if (cfg_.channelInterleaved) {
        for (unsigned c = 0; c < cfg_.channels; ++c) {
            rptCaches_[c].invalidate(ppn);
            // The frame will be recycled: a stale send bit must not
            // suppress hot-page detection of its next tenant.
            hpds_[c].invalidate(ppn);
        }
    } else {
        unsigned c = channelOf(pageBase(ppn));
        rptCaches_[c].invalidate(ppn);
        hpds_[c].invalidate(ppn);
    }
}

stats::JsonFields
mcSideStats(HotPagePipeline &p, std::size_t backend)
{
    stats::JsonFields out;
    auto put = [&](std::string key, std::uint64_t v) {
        out.emplace_back(std::move(key), v);
    };
    HpdStats hpd = p.hpdTotals();
    put("hpd_reads", hpd.reads);
    put("hpd_writes_ignored", hpd.writesIgnored);
    put("hpd_hot_pages", hpd.hotPages);
    put("hpd_suppressed", hpd.suppressed);
    put("hpd_evictions", hpd.evictions);
    for (unsigned c = 0; c < p.config().channels; ++c) {
        const RptCacheStats &rc = p.rptCache(c).stats();
        std::string prefix = "rpt_cache.c" + std::to_string(c) + ".";
        put(prefix + "lookups", rc.lookups);
        put(prefix + "hits", rc.hits);
        put(prefix + "misses", rc.misses);
        put(prefix + "miss_unmapped", rc.missUnmapped);
        put(prefix + "updates", rc.updates);
        put(prefix + "invalidates", rc.invalidates);
        put(prefix + "writebacks", rc.writebacks);
    }
    put("ring_pushed", p.ring().pushed());
    put("ring_dropped", p.ring().dropped());
    const SttStats &stt = p.stt(backend).stats();
    put("stt_fed", stt.fed);
    put("stt_appended", stt.appended);
    put("stt_duplicates", stt.duplicates);
    put("stt_seeded", stt.seeded);
    put("stt_evicted", stt.evicted);
    put("stt_full_views", stt.fullViews);
    const TrainerStats &tr = p.trainer(backend).stats();
    put("trainer_hot_pages", tr.hotPages);
    put("trainer_pred_ssp", tr.predictions[0]);
    put("trainer_pred_lsp", tr.predictions[1]);
    put("trainer_pred_rsp", tr.predictions[2]);
    put("trainer_pred_mkv", tr.predictions[3]);
    put("trainer_no_pattern", tr.noPattern);
    put("unmapped_hot_pages", p.unmappedHotPages());
    return out;
}

std::string
mcSideStatsJson(HotPagePipeline &p, std::size_t backend)
{
    return stats::flatJson(mcSideStats(p, backend));
}

} // namespace hopp::core

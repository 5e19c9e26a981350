// Validators format tagged values into printf-style diagnostics and
// cross-check accounting by raw value; the whole file is a designated
// raw boundary. hopp-analyze: allow-file(raw)
#include "check/invariants.hh"

#include <algorithm>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "hopp/hopp_system.hh"
#include "mem/llc.hh"
#include "sim/event_queue.hh"
#include "vm/vms.hh"

namespace hopp::check
{

using detail::formatMessage;

void
Report::fail(const char *subsystem, std::string what)
{
    violations_.push_back(std::string(subsystem) + ": " +
                          std::move(what));
}

std::string
Report::summary() const
{
    std::string out;
    for (const auto &v : violations_) {
        if (!out.empty())
            out += '\n';
        out += v;
    }
    return out;
}

bool
Report::mentions(const std::string &needle) const
{
    return std::any_of(violations_.begin(), violations_.end(),
                       [&](const std::string &v) {
                           return v.find(needle) != std::string::npos;
                       });
}

void
Report::enforce() const
{
    if (ok())
        return;
    hopp_panic("invariant violation(s):\n%s", summary().c_str());
}

/**
 * The one class befriended by the core state machines. Every private
 * read the validators need — and every deliberate corruption the
 * validator *tests* need — funnels through here, so the surface the
 * core gives up stays greppable in one place.
 */
class Access
{
  public:
    // --- sim::EventQueue ----------------------------------------
    static void
    pushEvent(sim::EventQueue &eq, Tick when)
    {
        eq.pushEntry(sim::EventQueue::Entry{when, eq.seq_++,
                                            sim::InlineEvent([] {})});
    }

    // --- mem::SetAssocCache / mem::Llc --------------------------
    template <typename V>
    static void
    auditCache(const mem::SetAssocCache<V> &c, const char *what,
               Report &r)
    {
        using Cache = mem::SetAssocCache<V>;
        std::size_t valid = 0;
        std::vector<std::uint64_t> tags;
        for (std::size_t s = 0; s < c.sets_; ++s) {
            // The rank bytes of the real ways order them by recency, so
            // they must be a permutation of 0..ways-1; padding lanes
            // hold the pad rank for good.
            const std::uint8_t *ranks = c.rankBytes(s);
            std::uint64_t seen = 0;
            for (std::size_t w = 0; w < Cache::kLanes * c.chunks_; ++w) {
                const unsigned rank = ranks[w];
                if (w >= c.ways_ && rank != Cache::kPadRank) {
                    r.fail(what, formatMessage(
                                     "set %zu padding lane %zu holds "
                                     "rank %u, want %u",
                                     s, w, rank, unsigned{Cache::kPadRank}));
                } else if (w < c.ways_ && rank < c.ways_) {
                    seen |= 1ull << rank;
                }
            }
            if (seen != c.full_) {
                r.fail(what, formatMessage(
                                 "set %zu rank bytes are not a "
                                 "permutation of 0..%zu",
                                 s, c.ways_ - 1));
            }
            const std::uint8_t *fps = c.fingerprintBytes(s);
            for (std::size_t w = 0; w < c.ways_; ++w) {
                if (!((c.valid_[s] >> w) & 1))
                    continue;
                std::uint64_t tag = c.tags_[s * c.ways_ + w];
                ++valid;
                tags.push_back(tag);
                if (fps[w] != Cache::fingerprint(tag)) {
                    r.fail(what, formatMessage(
                                     "set %zu way %zu fingerprint %x "
                                     "does not hash tag %llx",
                                     s, w, unsigned{fps[w]},
                                     (unsigned long long)tag));
                }
                if ((tag & (c.sets_ - 1)) != s) {
                    r.fail(what, formatMessage(
                                     "tag %llx stored in set %zu but "
                                     "indexes to set %llu",
                                     (unsigned long long)tag, s,
                                     (unsigned long long)(tag &
                                                          (c.sets_ - 1))));
                }
            }
        }
        if (valid != c.live_) {
            r.fail(what, formatMessage(
                             "occupancy accounting leaked: %zu valid "
                             "lines but size() says %zu",
                             valid, c.live_));
        }
        if (c.live_ > c.capacity()) {
            r.fail(what, formatMessage("size %zu exceeds capacity %zu",
                                       c.live_, c.capacity()));
        }
        std::sort(tags.begin(), tags.end());
        if (std::adjacent_find(tags.begin(), tags.end()) != tags.end())
            r.fail(what, "duplicate tag present in the array");
    }

    static void
    auditLlc(const mem::Llc &llc, Report &r)
    {
        auditCache(llc.tags_, "llc", r);
    }

    static void
    tamperLlc(mem::Llc &llc)
    {
        auto &tags = llc.tags_;
        for (std::size_t s = 0; s < tags.sets_; ++s) {
            if (std::uint64_t m = tags.valid_[s]) {
                // Drop the line without fixing live_: a leak.
                tags.valid_[s] = m & (m - 1);
                return;
            }
        }
        hopp_panic("no valid LLC line to corrupt");
    }

    static void
    tamperLlcRank(mem::Llc &llc)
    {
        // Way 0 of set 0 takes way 1's rank: two ways share a rank and
        // one rank goes missing.
        std::uint8_t *ranks = llc.tags_.rankBytes(0);
        ranks[0] = ranks[1];
    }

    // --- vm::Vms / vm::Cgroup -----------------------------------
    static const std::vector<vm::Cgroup> &
    cgroups(const vm::Vms &v)
    {
        return v.cgroups_;
    }

    static const vm::PageTable &table(const vm::Vms &v)
    {
        return v.table_;
    }

    static const mem::Dram &dram(const vm::Vms &v) { return v.dram_; }

    /** True when the allocator currently has `ppn` handed out. */
    static bool
    frameAllocated(const mem::Dram &d, Ppn ppn)
    {
        return ppn >= d.base_ && ppn < d.base_ + d.total_ &&
               d.allocated_[ppn - d.base_];
    }

    static const std::list<std::uint64_t> &lru(const vm::Cgroup &cg)
    {
        return cg.lru_;
    }

    // --- core::RptCache / core::Stt -----------------------------
    /** Peek a cached RPT entry without disturbing LRU or stats. */
    static const core::RptEntry *
    peekRpt(const core::RptCache &c, Ppn ppn)
    {
        const auto *line = c.cache_.peek(ppn);
        return line ? &line->entry : nullptr;
    }

    static void
    auditStt(const core::Stt &stt, Report &r)
    {
        std::size_t valid = 0;
        for (const auto &e : stt.table_) {
            if (!e.valid)
                continue;
            ++valid;
            if (e.vpns.empty() || e.vpns.size() > stt.cfg_.historyLen) {
                r.fail("stt", formatMessage(
                                  "stream %llu history size %zu out of "
                                  "bounds [1, %u]",
                                  (unsigned long long)e.id,
                                  e.vpns.size(), stt.cfg_.historyLen));
            }
            if (e.strides.size() + 1 != e.vpns.size()) {
                r.fail("stt", formatMessage(
                                  "stream %llu has %zu strides for %zu "
                                  "vpns",
                                  (unsigned long long)e.id,
                                  e.strides.size(), e.vpns.size()));
            }
            if (e.length < e.vpns.size()) {
                r.fail("stt", formatMessage(
                                  "stream %llu lifetime length %llu "
                                  "below history size %zu",
                                  (unsigned long long)e.id,
                                  (unsigned long long)e.length,
                                  e.vpns.size()));
            }
            if (!e.vpns.empty() && e.lastVpn != e.vpns.back()) {
                r.fail("stt", formatMessage(
                                  "stream %llu cached last VPN "
                                  "diverges from its history",
                                  (unsigned long long)e.id));
            }
        }
        const core::SttStats &s = stt.stats();
        if (valid > stt.config().entries) {
            r.fail("stt", formatMessage("%zu live streams exceed the "
                                        "%zu-entry table",
                                        valid, stt.config().entries));
        }
        if (s.seeded < s.evicted ||
            s.seeded - s.evicted != valid) {
            r.fail("stt", formatMessage(
                              "entry accounting: seeded %llu - evicted "
                              "%llu != %zu live",
                              (unsigned long long)s.seeded,
                              (unsigned long long)s.evicted, valid));
        }
        if (s.fed != s.appended + s.duplicates + s.seeded) {
            r.fail("stt", formatMessage(
                              "feed accounting: fed %llu != appended "
                              "%llu + duplicates %llu + seeded %llu",
                              (unsigned long long)s.fed,
                              (unsigned long long)s.appended,
                              (unsigned long long)s.duplicates,
                              (unsigned long long)s.seeded));
        }
    }
};

void
validateEventQueue(const sim::EventQueue &eq, EventQueueWatch &w,
                   Report &r)
{
    if (!eq.empty() && eq.nextTime() < eq.now()) {
        r.fail("event-queue",
               formatMessage("pending event at tick %llu precedes "
                             "now=%llu (non-monotonic timestamp)",
                             (unsigned long long)eq.nextTime().raw(),
                             (unsigned long long)eq.now().raw()));
    }
    if (eq.now() < w.lastNow) {
        r.fail("event-queue",
               formatMessage("simulated time went backwards: %llu "
                             "after %llu",
                             (unsigned long long)eq.now().raw(),
                             (unsigned long long)w.lastNow.raw()));
    }
    if (eq.executed() < w.lastExecuted) {
        r.fail("event-queue",
               formatMessage("executed-event counter went backwards: "
                             "%llu after %llu",
                             (unsigned long long)eq.executed(),
                             (unsigned long long)w.lastExecuted));
    }
    w.lastNow = eq.now();
    w.lastExecuted = eq.executed();
}

void
validateVms(const vm::Vms &vms, Report &r)
{
    const vm::PageTable &table = Access::table(vms);

    // Pass 1: walk each cgroup's LRU list and cross-link every node
    // against the page table.
    std::unordered_set<std::uint64_t> on_lists;
    for (const vm::Cgroup &cg : Access::cgroups(vms)) {
        Pid pid = cg.pid();
        if (cg.charged() > cg.limit()) {
            r.fail("cgroup", formatMessage(
                                 "pid %u charged %llu beyond limit %llu",
                                 pid.raw(),
                                 (unsigned long long)cg.charged(),
                                 (unsigned long long)cg.limit()));
        }
        const auto &lru = Access::lru(cg);
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            std::uint64_t key = *it;
            if (!on_lists.insert(key).second) {
                r.fail("lru", formatMessage(
                                  "page %u:%llu linked twice",
                                  vm::keyPid(key).raw(),
                                  (unsigned long long)vm::keyVpn(key).raw()));
                continue;
            }
            if (vm::keyPid(key) != cg.pid()) {
                r.fail("lru", formatMessage(
                                  "page %u:%llu on pid %u's list",
                                  vm::keyPid(key).raw(),
                                  (unsigned long long)vm::keyVpn(key).raw(),
                                  cg.pid().raw()));
            }
            const vm::PageInfo *pi =
                table.find(vm::keyPid(key), vm::keyVpn(key));
            if (!pi) {
                r.fail("lru", formatMessage(
                                  "dangling key %u:%llu (no page "
                                  "record)",
                                  vm::keyPid(key).raw(),
                                  (unsigned long long)vm::keyVpn(key).raw()));
                continue;
            }
            if (!pi->inLru) {
                r.fail("lru", formatMessage(
                                  "page %u:%llu is linked but its "
                                  "inLru flag is clear (bad LRU link)",
                                  vm::keyPid(key).raw(),
                                  (unsigned long long)vm::keyVpn(key).raw()));
                continue;
            }
            if (pi->lruIt != it) {
                r.fail("lru", formatMessage(
                                  "page %u:%llu stored iterator does "
                                  "not point at its node (bad LRU "
                                  "link)",
                                  vm::keyPid(key).raw(),
                                  (unsigned long long)vm::keyVpn(key).raw()));
            }
            if (pi->state != vm::PageState::Resident &&
                pi->state != vm::PageState::SwapCached) {
                r.fail("lru", formatMessage(
                                  "page %u:%llu on an LRU list in "
                                  "state %u",
                                  vm::keyPid(key).raw(),
                                  (unsigned long long)vm::keyVpn(key).raw(),
                                  unsigned(pi->state)));
            }
        }
    }

    // Pass 2: per-page state-flag legality plus charge / LRU / frame
    // accounting over the whole table.
    std::unordered_map<Pid, std::uint64_t> charged_pages;
    std::unordered_map<Pid, std::uint64_t> lru_pages;
    std::unordered_set<Ppn> frames;
    table.forEach([&](std::uint64_t key, const vm::PageInfo &pi) {
        Pid pid = vm::keyPid(key);
        auto vpn =
            static_cast<unsigned long long>(vm::keyVpn(key).raw());
        auto bad = [&](const char *what) {
            r.fail("page-state",
                   formatMessage("page %u:%llu (state %u): %s",
                                 pid.raw(), vpn, unsigned(pi.state),
                                 what));
        };
        if (pi.charged)
            ++charged_pages[pid];
        if (pi.inLru) {
            ++lru_pages[pid];
            if (!on_lists.count(key))
                bad("inLru set but the page is on no cgroup list "
                    "(bad LRU link)");
        }
        switch (pi.state) {
          case vm::PageState::Untouched:
            if (pi.inLru || pi.charged || pi.inflight || pi.injected ||
                pi.prefetched)
                bad("untouched page carries residency flags");
            break;
          case vm::PageState::Resident:
            if (!pi.inLru)
                bad("resident page missing from its LRU list");
            if (!pi.charged)
                bad("resident page not charged to its cgroup");
            if (pi.prefetched || pi.inflight)
                bad("resident page still flagged as swapcache "
                    "prefetch or in flight");
            if (!frames.insert(pi.ppn).second)
                bad("frame aliased by another in-DRAM page");
            if (!Access::frameAllocated(Access::dram(vms), pi.ppn))
                bad("references a frame the allocator never handed "
                    "out");
            break;
          case vm::PageState::SwapCached:
            if (!pi.inLru)
                bad("swapcache page missing from its LRU list");
            if (pi.charged)
                bad("swapcache page must not be charged");
            if (!pi.hasSwapCopy)
                bad("swapcache page without a swap copy");
            if (pi.injected || pi.inflight)
                bad("swapcache page flagged injected or in flight");
            if (!frames.insert(pi.ppn).second)
                bad("frame aliased by another in-DRAM page");
            if (!Access::frameAllocated(Access::dram(vms), pi.ppn))
                bad("references a frame the allocator never handed "
                    "out");
            break;
          case vm::PageState::Swapped:
            if (pi.inLru || pi.charged)
                bad("swapped-out page still holds local residency");
            if (pi.injected || pi.prefetched)
                bad("swapped-out page carries local-hit flags");
            if (pi.slot == remote::noSlot)
                bad("swapped-out page without a remote slot");
            if (!pi.hasSwapCopy)
                bad("swapped-out page without a swap copy");
            break;
        }
        if (pi.injected && pi.state != vm::PageState::Resident)
            bad("injected flag outside Resident");
    });

    for (const vm::Cgroup &cg : Access::cgroups(vms)) {
        Pid pid = cg.pid();
        auto charged_it = charged_pages.find(pid);
        std::uint64_t n_charged =
            charged_it == charged_pages.end() ? 0 : charged_it->second;
        if (n_charged != cg.charged()) {
            r.fail("cgroup", formatMessage(
                                 "pid %u charge counter %llu != %llu "
                                 "charged pages",
                                 pid.raw(),
                                 (unsigned long long)cg.charged(),
                                 (unsigned long long)n_charged));
        }
        auto lru_it = lru_pages.find(pid);
        std::uint64_t n_lru =
            lru_it == lru_pages.end() ? 0 : lru_it->second;
        if (n_lru != cg.lruSize()) {
            r.fail("cgroup", formatMessage(
                                 "pid %u LRU holds %zu nodes but %llu "
                                 "pages carry inLru",
                                 pid.raw(), cg.lruSize(),
                                 (unsigned long long)n_lru));
        }
    }

    if (frames.size() != Access::dram(vms).usedFrames()) {
        r.fail("dram", formatMessage(
                           "%zu frames referenced by pages but %llu "
                           "allocated (leaked or double-freed frame)",
                           frames.size(),
                           (unsigned long long)
                               Access::dram(vms).usedFrames()));
    }
}

void
validateLlc(const mem::Llc &llc, Report &r)
{
    Access::auditLlc(llc, r);
}

void
validateHopp(core::HoppSystem &hopp, const vm::Vms &vms, Report &r)
{
    const core::HoppConfig &cfg = hopp.config();
    const vm::PageTable &table = Access::table(vms);

    // Every present PTE must be resolvable through the RPT hierarchy:
    // the MC-side caches hold the truth, the DRAM table is the lazily
    // written-back backing copy.
    std::size_t resident = 0;
    table.forEach([&](std::uint64_t key, const vm::PageInfo &pi) {
        if (pi.state != vm::PageState::Resident)
            return;
        ++resident;
        Pid pid = vm::keyPid(key);
        Vpn vpn = vm::keyVpn(key);
        const core::RptEntry *entry = nullptr;
        for (unsigned c = 0; c < cfg.channels && !entry; ++c)
            entry = Access::peekRpt(hopp.rptCache(c), pi.ppn);
        std::optional<core::RptEntry> from_dram;
        if (!entry) {
            from_dram = hopp.rpt().load(pi.ppn);
            if (from_dram)
                entry = &*from_dram;
        }
        if (!entry) {
            r.fail("rpt", formatMessage(
                              "resident page %u:%llu (ppn %llu) has "
                              "no RPT mapping",
                              pid.raw(), (unsigned long long)vpn.raw(),
                              (unsigned long long)pi.ppn.raw()));
        } else if (entry->pid != pid || entry->vpn != vpn) {
            r.fail("rpt", formatMessage(
                              "ppn %llu maps to %u:%llu but the page "
                              "table says %u:%llu",
                              (unsigned long long)pi.ppn.raw(), entry->pid.raw(),
                              (unsigned long long)entry->vpn.raw(),
                              pid.raw(),
                              (unsigned long long)vpn.raw()));
        }
    });

    // Entry-count bound: the DRAM RPT only ever holds entries for
    // currently mapped frames.
    if (hopp.rpt().size() > resident) {
        r.fail("rpt", formatMessage(
                          "DRAM RPT holds %zu entries for %zu resident "
                          "pages (stale entries leaked)",
                          hopp.rpt().size(), resident));
    }

    for (unsigned c = 0; c < cfg.channels; ++c) {
        const core::RptCacheStats &s = hopp.rptCache(c).stats();
        if (s.hits + s.misses != s.lookups) {
            r.fail("rpt-cache",
                   formatMessage("channel %u: hits %llu + misses %llu "
                                 "!= lookups %llu",
                                 c, (unsigned long long)s.hits,
                                 (unsigned long long)s.misses,
                                 (unsigned long long)s.lookups));
        }
    }

    Access::auditStt(hopp.stt(), r);
}

namespace testing
{

void
pushEventInPast(sim::EventQueue &eq, Tick when)
{
    Access::pushEvent(eq, when);
}

void
leakLlcOccupancy(mem::Llc &llc)
{
    Access::tamperLlc(llc);
}

void
corruptLlcRank(mem::Llc &llc)
{
    Access::tamperLlcRank(llc);
}

} // namespace testing

} // namespace hopp::check

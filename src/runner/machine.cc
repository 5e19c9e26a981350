#include "runner/machine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hopp::runner
{

const char *
systemName(SystemKind k)
{
    switch (k) {
      case SystemKind::Local: return "local";
      case SystemKind::NoPrefetch: return "no-prefetch";
      case SystemKind::Fastswap: return "fastswap";
      case SystemKind::Leap: return "leap";
      case SystemKind::Vma: return "vma";
      case SystemKind::DepthN: return "depth-n";
      case SystemKind::Hopp: return "hopp";
      case SystemKind::HoppOnly: return "hopp-only";
    }
    return "?";
}

std::optional<SystemKind>
parseSystem(std::string_view name)
{
    for (auto kind : {SystemKind::Local, SystemKind::NoPrefetch,
                      SystemKind::Fastswap, SystemKind::Leap,
                      SystemKind::Vma, SystemKind::DepthN,
                      SystemKind::Hopp, SystemKind::HoppOnly}) {
        if (name == systemName(kind))
            return kind;
    }
    return std::nullopt;
}

Tick
RunResult::completionOf(const std::string &name) const
{
    for (const auto &a : apps) {
        if (a.name == name)
            return a.completion;
    }
    hopp_fatal("no app named '%s' in this run", name.c_str());
}

double
normalizedPerformance(Tick ct_local, Tick ct_system)
{
    hopp_assert(ct_system > Tick{}, "zero completion time");
    return static_cast<double>(ct_local - Tick{}) /
           static_cast<double>(ct_system - Tick{});
}

Machine::Machine(const MachineConfig &cfg) : cfg_(cfg) {}

Machine::~Machine() = default;

void
Machine::addWorkload(const workloads::Workload &w)
{
    hopp_assert(!built_, "cannot add workloads after run()");
    apps_.push_back(w);
}

void
Machine::build()
{
    hopp_assert(!apps_.empty(), "no workloads configured");
    built_ = true;

    // Steady-state queue depth is one event per thread plus in-flight
    // prefetch completions and a handful of background actors; size
    // the event heap so it never regrows mid-run.
    eq_.reserve(4096 + apps_.size() * 64);

    // cgroup limit per app; Local gives every app its full footprint.
    std::uint64_t total_limit = 0;
    std::vector<std::uint64_t> limits;
    for (const auto &w : apps_) {
        double ratio =
            cfg_.system == SystemKind::Local ? 1.0 : cfg_.localMemRatio;
        auto limit = static_cast<std::uint64_t>(
            static_cast<double>(w.footprintPages) * ratio);
        limit = std::max<std::uint64_t>(limit, 64);
        if (cfg_.system == SystemKind::Local)
            limit += 64; // headroom: no reclaim in the local baseline
        limits.push_back(limit);
        total_limit += limit;
    }

    dram_ = std::make_unique<mem::Dram>(total_limit +
                                        MachineConfig::dramSlackFrames);
    mc_ = std::make_unique<mem::MemCtrl>(*dram_);
    llc_ = std::make_unique<mem::Llc>(cfg_.llc);
    fabric_ = std::make_unique<net::RdmaFabric>(eq_, cfg_.link);
    // Remote node: everything that could ever be swapped out.
    std::uint64_t remote_slots = 0;
    for (const auto &w : apps_)
        remote_slots += w.footprintPages;
    node_ = std::make_unique<remote::RemoteNode>(remote_slots * 2 + 1024);
    backend_ = std::make_unique<remote::SwapBackend>(*fabric_, *node_);
    vms_ = std::make_unique<vm::Vms>(eq_, *dram_, *mc_, *llc_, *backend_,
                                     cfg_.vms);
    vms_->addListener(&stats_);

    // Processes + threads.
    for (std::size_t i = 0; i < apps_.size(); ++i) {
        Pid pid{static_cast<std::uint16_t>(i + 1)};
        vms_->createProcess(pid, limits[i]);
        for (const auto &make : apps_[i].threads) {
            auto t = std::make_unique<Thread>();
            t->pid = pid;
            t->gen = make();
            // One allocation per thread, here: the steady-state fill/
            // drain loop reuses this block for the machine's lifetime.
            t->block.resize(MachineConfig::quantum);
            if (cfg_.tlb)
                vms_->addPteHook(&t->tlb);
            threads_.push_back(std::move(t));
        }
    }

    // The system under test.
    switch (cfg_.system) {
      case SystemKind::Local:
      case SystemKind::NoPrefetch:
        break;
      case SystemKind::Fastswap: {
        auto ra = std::make_unique<prefetch::Readahead>(*vms_, *backend_);
        vms_->addListener(ra.get());
        prefetcher_ = std::move(ra);
        break;
      }
      case SystemKind::Leap: {
        auto leap = std::make_unique<prefetch::Leap>(*vms_);
        vms_->addListener(leap.get());
        prefetcher_ = std::move(leap);
        break;
      }
      case SystemKind::Vma:
        prefetcher_ = std::make_unique<prefetch::VmaPrefetcher>(*vms_);
        break;
      case SystemKind::DepthN:
        prefetcher_ =
            std::make_unique<prefetch::DepthN>(*vms_, cfg_.depth);
        break;
      case SystemKind::Hopp: {
        // HoPP complements an existing kernel-based system: Fastswap's
        // readahead keeps running on the fault path (§V).
        auto ra = std::make_unique<prefetch::Readahead>(*vms_, *backend_);
        vms_->addListener(ra.get());
        prefetcher_ = std::move(ra);
        hoppSystem_ = std::make_unique<core::HoppSystem>(
            eq_, *vms_, *mc_, cfg_.hopp);
        break;
      }
      case SystemKind::HoppOnly:
        hoppSystem_ = std::make_unique<core::HoppSystem>(
            eq_, *vms_, *mc_, cfg_.hopp);
        break;
    }

    if (prefetcher_) {
        vms_->setFaultCallback(
            [p = prefetcher_.get()](const vm::FaultContext &ctx) {
                p->onFault(ctx);
            });
    }
    if (hoppSystem_)
        hoppSystem_->start();

    if (!cfg_.recordTracePath.empty()) {
        // The MC tap persisted: snapshot the page table exactly when
        // HoppSystem::start() walked it (just above), then observe the
        // same MC access and PTE event feeds the pipeline consumes.
        traceWriter_ = std::make_unique<trace::TraceWriter>(
            cfg_.recordTracePath);
        traceRecordOk_ = traceWriter_->ok();
        recorder_ = std::make_unique<TraceRecorder>(*traceWriter_);
        recorder_->snapshot(vms_->pageTable());
        mc_->attach(recorder_.get());
        vms_->addPteHook(recorder_.get());
    }

    // Observability plane. Latency histograms are always on (their
    // cost is one sample per fault); the tracer and sampler only when
    // asked for.
    vms_->addListener(&latency_);
    if (cfg_.trace) {
        tracer_.enable(true);
        eq_.setTracer(&tracer_);
        mc_->setTracer(&tracer_);
        fabric_->setTracer(&tracer_);
        vms_->setTracer(&tracer_);
        if (hoppSystem_)
            hoppSystem_->setTracer(&tracer_);
    }
    if (cfg_.metricsPeriod > 0) {
        metrics_ = std::make_unique<obs::MetricsSampler>(
            eq_, cfg_.metricsPeriod);
        // Threads are pumped outside the event queue, so "queue empty"
        // alone no longer means the run is over.
        metrics_->setLiveness([this] {
            for (const auto &t : threads_) {
                if (!t->done)
                    return true;
            }
            return false;
        });
        metrics_->addGauge("dram.used_frames", [d = dram_.get()] {
            return static_cast<double>(d->usedFrames());
        });
        metrics_->addGauge("vm.swapcache_pages", [v = vms_.get()] {
            return static_cast<double>(v->swapCachedPages());
        });
        metrics_->addGauge("vm.inflight_prefetches", [v = vms_.get()] {
            return static_cast<double>(v->inflightPrefetches());
        });
        metrics_->addGauge("remote.live_slots", [n = node_.get()] {
            return static_cast<double>(n->liveSlots());
        });
        metrics_->addGauge("sim.queue_depth", [q = &eq_] {
            return static_cast<double>(q->size());
        });
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            Pid pid{static_cast<std::uint16_t>(i + 1)};
            metrics_->addGauge(
                "vm.lru_pages.pid" + std::to_string(i + 1),
                [v = vms_.get(), pid] {
                    return static_cast<double>(v->cgroup(pid).lruSize());
                });
        }
        if (hoppSystem_) {
            metrics_->addGauge("hopp.rpt_entries", [h = hoppSystem_.get()] {
                return static_cast<double>(h->rpt().size());
            });
            metrics_->addGauge("hopp.ring_occupancy",
                               [h = hoppSystem_.get()] {
                return static_cast<double>(h->ring().size());
            });
            metrics_->addGauge("hopp.exec_outstanding",
                               [h = hoppSystem_.get()] {
                return static_cast<double>(h->exec().outstanding());
            });
        }
        if (cfg_.trace)
            metrics_->setTracer(&tracer_);
        metrics_->start();
    }
}

void
Machine::pump()
{
    const std::size_t n = threads_.size();
    for (;;) {
        // Min-time runnable thread, and the runner-up time: the yield
        // horizon for the drain segment.
        std::size_t best = n;
        Tick tmin = maxTick;
        Tick limit = maxTick;
        for (std::size_t i = 0; i < n; ++i) {
            const Thread &t = *threads_[i];
            if (t.done)
                continue;
            if (best == n || t.now < tmin) {
                limit = tmin;
                tmin = t.now;
                best = i;
            } else if (t.now < limit) {
                limit = t.now;
            }
        }
        if (best == n) {
            // Applications all finished: drain the remaining events
            // (in-flight completions, reclaim passes, final samples).
            if (!eq_.runOne())
                return;
            maybeCheck();
            continue;
        }
        if (eq_.nextTime() <= tmin) {
            // An event (RDMA completion, kswapd wakeup, trainer drain,
            // metrics sample) is due no later than every thread: it
            // fires first, exactly as when thread timeslices were
            // themselves events competing on (time, schedule order).
            // Invariant checks hang off event dispatch alone: the
            // check cadence is event-count-gated, and only runOne()
            // advances that count.
            eq_.runOne();
            maybeCheck();
            continue;
        }
        // One drain segment of the chosen thread, fused into the pump:
        // in the common two-thread ping-pong a segment is a single
        // access, so even a per-segment function call shows up in the
        // wall time.
        Thread &t = *threads_[best];
        if (t.blockPos == t.blockLen) {
            t.blockLen = t.gen->nextBatch(t.block.data(), t.block.size());
            t.blockPos = 0;
            if (t.blockLen == 0) {
                // Empty refill is end-of-stream (nextBatch contract).
                t.done = true;
                t.completion = t.now;
            }
            continue;
        }
        std::size_t consumed = 0;
        t.now = vms_->accessBatch(t.pid, t.block.data() + t.blockPos,
                                  t.blockLen - t.blockPos, t.now, limit,
                                  &consumed, cfg_.tlb ? &t.tlb : nullptr);
        t.blockPos += consumed;
        t.accesses += consumed;
        if (t.blockPos == t.blockLen && t.blockLen < t.block.size()) {
            // The refill came back short, so this drained the last
            // buffered access: the stream is over. (A full final block
            // is caught by the empty refill above — same completion
            // time either way, since discovery performs no access.)
            t.done = true;
            t.completion = t.now;
        }
    }
}

void
Machine::maybeCheck()
{
    if (!cfg_.checkInterval ||
        eq_.executed() - lastCheckAt_ < cfg_.checkInterval) {
        return;
    }
    lastCheckAt_ = eq_.executed();
    checkInvariants().enforce();
}

check::Report
Machine::checkInvariants()
{
    prepare();
    check::Report r;
    check::validateEventQueue(eq_, eqWatch_, r);
    check::validateVms(*vms_, r);
    check::validateLlc(*llc_, r);
    if (hoppSystem_)
        check::validateHopp(*hoppSystem_, *vms_, r);
    return r;
}

void
Machine::prepare()
{
    if (!built_)
        build();
}

RunResult
Machine::run()
{
    prepare();
    tracer_.begin("machine", "run", eq_.now(), obs::track::machine);
    pump();
    tracer_.end("machine", "run", eq_.now(), obs::track::machine);
    if (metrics_) {
        // The sampler stops rescheduling as the queue drains; take one
        // closing snapshot of the final state.
        metrics_->sampleNow();
    }
    if (cfg_.checkInterval) {
        // Final audit over the drained machine.
        checkInvariants().enforce();
    }
    if (traceWriter_)
        traceRecordOk_ = traceWriter_->finish() && traceRecordOk_;

    RunResult r;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
        const auto &w = apps_[i];
        AppResult ar;
        Pid pid{static_cast<std::uint16_t>(i + 1)};
        ar.pid = pid;
        ar.name = w.name;
        for (const auto &t : threads_) {
            if (t->pid != pid)
                continue;
            hopp_assert(t->done, "thread never finished");
            ar.completion = std::max(ar.completion, t->completion);
            ar.accesses += t->accesses;
        }
        r.makespan = std::max(r.makespan, ar.completion);
        r.apps.push_back(std::move(ar));
    }
    r.accuracy = stats_.accuracy();
    r.coverage = stats_.coverage();
    r.dramHitCoverage = stats_.dramHitCoverage();
    r.systemAccuracy = r.accuracy;
    if (hoppSystem_) {
        std::uint64_t issued = 0, hits = 0;
        for (auto t : {core::Tier::Ssp, core::Tier::Lsp,
                       core::Tier::Rsp}) {
            issued += hoppSystem_->exec().tierStats(t).issued;
            hits += hoppSystem_->exec().tierStats(t).hits;
        }
        if (issued) {
            r.systemAccuracy = static_cast<double>(hits) /
                               static_cast<double>(issued);
        }
    }
    r.vms = vms_->stats();
    r.demandRemote = backend_->demandReads();
    r.prefetchReads = backend_->prefetchReads();
    r.writebacks = backend_->writebacks();
    return r;
}

RunResult
runOne(const std::string &workload, SystemKind system,
       double local_ratio, const workloads::WorkloadScale &scale,
       const MachineConfig &base)
{
    MachineConfig cfg = base;
    cfg.system = system;
    cfg.localMemRatio = local_ratio;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload(workload, scale));
    return m.run();
}

} // namespace hopp::runner

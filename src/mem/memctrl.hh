/**
 * @file
 * Memory-controller model.
 *
 * The MC receives LLC-miss transactions and forwards read misses to any
 * attached hardware observers — this is exactly the tap point the paper
 * modifies: HoPP's Hot Page Detection module consumes MC read traffic
 * (§III-B), and runner::TraceRecorder persists the same feed for
 * offline replay (the role the HMTT DIMM tracer plays in the §V
 * prototype).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/dram.hh"
#include "obs/tracer.hh"

namespace hopp::mem
{

/**
 * Anything that wants to see MC-level traffic (HPD hardware, the trace
 * recorder) implements this interface and attaches to the MemCtrl.
 */
class McObserver
{
  public:
    virtual ~McObserver() = default;

    /**
     * One LLC-miss access has reached the memory controller.
     *
     * @param pa cacheline-aligned physical address.
     * @param is_write true for writebacks / DMA writes.
     * @param now current simulated time.
     */
    virtual void onMcAccess(PhysAddr pa, bool is_write, Tick now) = 0;
};

/**
 * Memory controller: accounts DRAM traffic and fans accesses out to
 * observers. Purely functional (no queueing model) — the end-to-end
 * latency of a DRAM access is charged by the cost model in vm::Vms.
 */
class MemCtrl
{
  public:
    explicit MemCtrl(Dram &dram) : dram_(dram) {}

    /** Attach an observer; order of attachment = order of callbacks. */
    void attach(McObserver *obs) { observers_.push_back(obs); }

    /** Detach a previously attached observer. */
    void detach(McObserver *obs);

    /** A demand LLC-miss read of one cacheline. */
    void
    demandRead(PhysAddr pa, Tick now)
    {
        dram_.recordTraffic(TrafficSource::AppRead, lineBytes);
        ++reads_;
        if (trace_ && reads_ % traceSampleEvery_ == 0)
            trace_->counter("mem", "mc_reads", now, reads_);
        notify(pa, false, now);
    }

    /** An LLC writeback of one cacheline. */
    void
    writeback(PhysAddr pa, Tick now)
    {
        dram_.recordTraffic(TrafficSource::AppWrite, lineBytes);
        ++writes_;
        if (trace_ && writes_ % traceSampleEvery_ == 0)
            trace_->counter("mem", "mc_writes", now, writes_);
        notify(pa, true, now);
    }

    /**
     * A 4 KB page DMA transfer by the RDMA NIC (page in or out). These
     * are write accesses the paper explicitly excludes from hot-page
     * detection (§III-B), so observers see them flagged as writes.
     */
    void
    pageDma(Ppn ppn, Tick now)
    {
        dram_.recordTraffic(TrafficSource::PageTransfer, pageBytes);
        notify(pageBase(ppn), true, now);
    }

    /** The DRAM module behind this controller. */
    Dram &dram() { return dram_; }

    /** Demand read transactions seen. */
    std::uint64_t reads() const { return reads_; }

    /** Writeback transactions seen. */
    std::uint64_t writes() const { return writes_; }

    /**
     * Attach the flight recorder: cumulative miss-stream counter
     * samples every @p sample_every transactions.
     */
    void
    setTracer(obs::Tracer *tracer, std::uint64_t sample_every = 4096)
    {
        trace_ = tracer;
        traceSampleEvery_ = sample_every ? sample_every : 1;
    }

  private:
    void
    notify(PhysAddr pa, bool is_write, Tick now)
    {
        for (auto *obs : observers_)
            obs->onMcAccess(pa, is_write, now);
    }

    Dram &dram_;
    std::vector<McObserver *> observers_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    obs::Tracer *trace_ = nullptr;
    std::uint64_t traceSampleEvery_ = 4096;
};

} // namespace hopp::mem


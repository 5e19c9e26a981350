/**
 * @file
 * Trace recorder: the MC tap persisted to the blocked replay format
 * (the role the HMTT DIMM tracer plays in the §V prototype), and the
 * only MC-side recorder. Attached to the memory controller and the
 * VMS PTE hooks exactly where HoppSystem attaches, it captures the
 * complete input stream the MC-side pipeline consumes — every MC
 * access plus every RPT-relevant page-table event — in file order =
 * causal order, which is what lets a replay reproduce the live run's
 * MC-side statistics byte for byte (DESIGN.md §15).
 */

#pragma once

#include "mem/memctrl.hh"
#include "trace/trace_file.hh"
#include "vm/page_table.hh"

namespace hopp::runner
{

/** Streams the MC + PTE event feed into a TraceWriter. */
class TraceRecorder : public mem::McObserver, public vm::PteHook
{
  public:
    explicit TraceRecorder(trace::TraceWriter &out) : out_(out) {}

    void
    onMcAccess(PhysAddr pa, bool is_write, Tick now) override
    {
        trace::ReplayRecord r;
        r.kind = trace::ReplayKind::Mc;
        r.isWrite = is_write;
        r.pa = pa;
        r.tick = now;
        out_.append(r);
    }

    void
    onPteSet(Pid pid, Vpn vpn, Ppn ppn, Tick now) override
    {
        trace::ReplayRecord r;
        r.kind = trace::ReplayKind::PteSet;
        r.pid = pid;
        r.vpn = vpn;
        r.ppn = ppn;
        r.tick = now;
        out_.append(r);
    }

    void
    onPteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now) override
    {
        trace::ReplayRecord r;
        r.kind = trace::ReplayKind::PteClear;
        r.pid = pid;
        r.vpn = vpn;
        r.ppn = ppn;
        r.tick = now;
        out_.append(r);
    }

  private:
    trace::TraceWriter &out_;
};

} // namespace hopp::runner

/**
 * @file
 * Latency cost model of the kernel swap path, taken directly from the
 * paper's §II-A breakdown of a page fault in kernel-based disaggregated
 * memory systems. All values in nanoseconds of simulated time.
 */

#pragma once

#include "common/types.hh"

namespace hopp::vm
{

/**
 * Per-step costs of the swap data path (§II-A steps 1-6). The RDMA
 * transfer (step 4) is not a constant here: it comes from the network
 * model, so queueing under load is captured.
 */
struct CostModel
{
    /** Step 1: page-fault context switch. */
    static constexpr Duration contextSwitch = 300;

    /** Step 2: kernel page-table walk to locate the PTE. */
    static constexpr Duration pageWalk = 600;

    /** Step 3: swapcache query (+ page/swap-entry allocation on miss). */
    static constexpr Duration swapCacheQuery = 400;

    /** Step 5: direct (synchronous) reclaim, per reclaimed page. */
    static constexpr Duration directReclaimPerPage = 3000;

    /** Step 6: establish PTE and return to user space. */
    static constexpr Duration pteEstablish = 1000;

    /**
     * Per-access occupancy of an LLC miss served by DRAM. The paper's
     * DRAM-hit *latency* is 0.1 us, but out-of-order cores overlap
     * about four misses (MLP), so the time the thread is charged per
     * miss is ~25 ns; anything larger makes applications artificially
     * compute-bound relative to the 4-9 us swap path.
     */
    static constexpr Duration dramHit = 25;

    /** LLC hit occupancy (pipelined). */
    static constexpr Duration llcHit = 5;

    /**
     * Fixed kernel overhead of every fault, steps 1+2+3+6 = 2.3 us
     * (post Linux v5.8, §II-A). A prefetch hit (the page is in the
     * swapcache) and a first-touch zero-fill fault pay exactly this; a
     * remote fault pays it plus the RDMA transfer and any reclaim.
     */
    static constexpr Duration
    faultOverhead()
    {
        return contextSwitch + pageWalk + swapCacheQuery + pteEstablish;
    }
};

static_assert(CostModel::faultOverhead() == 2'300,
              "§II-A: the fixed fault path costs 2.3 us");

} // namespace hopp::vm


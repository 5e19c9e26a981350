/**
 * @file
 * VMA-based readahead (Linux 5.4 swap_vma_readahead, referenced by
 * §II-B and evaluated in Figure 22): prefetch the pages *virtually*
 * adjacent to the fault, rather than the swap-offset neighbours.
 */

#pragma once

#include "prefetch/prefetcher.hh"
#include "vm/vms.hh"

namespace hopp::prefetch
{

/**
 * Virtual-address neighbourhood readahead into the swapcache.
 */
class VmaPrefetcher : public Prefetcher
{
  public:
    /** Total window of virtually-adjacent pages fetched per fault. */
    static constexpr unsigned window = 8;

    explicit VmaPrefetcher(vm::Vms &vms) : vms_(vms) {}

    void
    onFault(const vm::FaultContext &ctx) override
    {
        unsigned half = window / 2;
        for (unsigned i = 1; i <= half; ++i) {
            vms_.prefetchToSwapCache(ctx.pid, ctx.vpn + i, origin::vma,
                                     ctx.now);
            if (ctx.vpn - Vpn{} >= i) {
                vms_.prefetchToSwapCache(ctx.pid, ctx.vpn - i,
                                         origin::vma, ctx.now);
            }
        }
    }

  private:
    vm::Vms &vms_;
};

} // namespace hopp::prefetch


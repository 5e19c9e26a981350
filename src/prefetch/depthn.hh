/**
 * @file
 * Depth-N prefetching (§II-C, Figures 16/17; after Awad et al. [9]):
 * on every fault, fetch the next N virtually-consecutive pages with
 * early PTE injection and a *fixed* N — it cannot observe hits (no
 * faults on injected pages), so it cannot adapt, and wrong guesses sit
 * at the MRU end of the LRU list where they are hard to evict.
 */

#pragma once

#include "prefetch/prefetcher.hh"
#include "vm/vms.hh"

namespace hopp::prefetch
{

/**
 * Fixed-depth early-PTE-injection prefetcher.
 */
class DepthN : public Prefetcher
{
  public:
    DepthN(vm::Vms &vms, unsigned depth) : vms_(vms), depth_(depth) {}

    void
    onFault(const vm::FaultContext &ctx) override
    {
        for (unsigned i = 1; i <= depth_; ++i) {
            vms_.prefetchInject(ctx.pid, ctx.vpn + i, origin::depthn,
                                ctx.now);
        }
    }

  private:
    vm::Vms &vms_;
    unsigned depth_;
};

} // namespace hopp::prefetch


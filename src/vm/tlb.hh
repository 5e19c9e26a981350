/**
 * @file
 * Software TLB: a per-thread direct-mapped cache of VPN -> PageInfo*
 * for resident pages, sitting in front of the radix page-table walk on
 * the access hot path.
 *
 * Correctness contract: an entry may only be served while the page is
 * Resident. The TLB therefore participates in the existing PTE-hook
 * plumbing (vm/page_table.hh): every firePteClear — eviction or
 * injected-prefetch revocation — shoots the cached entry down,
 * exactly like the IPI-driven TLB shootdowns the kernel issues
 * when it clears a PTE. Fills happen only from the access path, where
 * the page is known Resident; onPteSet is deliberately not a fill
 * (a PTE set by prefetch injection has not been touched by this
 * thread, and real TLBs do not prefill either).
 *
 * The TLB is an accelerator, not a model: hit or miss, the simulated
 * costs, statistics, and listener callbacks are identical, so enabling
 * it never changes a simulation result — only how fast the host
 * reaches it (tested by the TLB-on/TLB-off cross-check).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "vm/page_table.hh"

namespace hopp::vm
{

/**
 * Direct-mapped VPN -> PageInfo* cache with PTE-hook shootdown.
 */
class Tlb : public PteHook
{
  public:
    /** @param entries slot count; must be a power of two. */
    explicit Tlb(std::size_t entries = 1024) : slots_(entries)
    {
        hopp_assert(entries > 0 && (entries & (entries - 1)) == 0,
                    "TLB size must be a power of two");
        mask_ = entries - 1;
    }

    /**
     * Look (pid, vpn) up. @return the cached resident record, or
     * nullptr on miss.
     */
    PageInfo *
    lookup(Pid pid, Vpn vpn)
    {
        const Slot &s = slots_[index(pid, vpn)];
        return s.pi && s.key == pageKey(pid, vpn) ? s.pi : nullptr;
    }

    /**
     * Install a translation. The caller guarantees @p pi is the radix
     * table's record for (pid, vpn) and is currently Resident.
     */
    void
    fill(Pid pid, Vpn vpn, PageInfo *pi)
    {
        Slot &s = slots_[index(pid, vpn)];
        s.key = pageKey(pid, vpn);
        s.pi = pi;
    }

    /** PteHook: a set PTE is not a touch; nothing to cache yet. */
    void
    onPteSet(Pid, Vpn, Ppn, Tick) override
    {
    }

    /** PteHook: shoot the translation down with the PTE. */
    void
    onPteClear(Pid pid, Vpn vpn, Ppn, Tick) override
    {
        Slot &s = slots_[index(pid, vpn)];
        if (s.pi && s.key == pageKey(pid, vpn))
            s.pi = nullptr;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        PageInfo *pi = nullptr; //!< nullptr = invalid
    };

    std::size_t
    index(Pid pid, Vpn vpn) const
    {
        // Low VPN bits spread sequential streams across slots; folding
        // the pid in keeps colocated processes from aliasing slot 0.
        // Index mixing of the raw fields. hopp-analyze: allow(raw)
        return (vpn.raw() ^ (std::uint64_t(pid.raw()) << 7)) & mask_;
    }

    std::vector<Slot> slots_;
    std::size_t mask_;
};

} // namespace hopp::vm


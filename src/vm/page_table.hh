/**
 * @file
 * Global page table: per-(pid, vpn) PageInfo records plus present-PTE
 * queries. The kernel hook points HoPP installs (set_pte_at /
 * pte_clear, §V) are modelled as PteHook callbacks fired by the VMS
 * whenever a mapping is created or destroyed.
 *
 * Layout: a two-level radix table, exactly the shape real kernels use
 * instead of a hash. Level one is a per-process directory indexed by
 * the high VPN bits; level two is a fixed 512-entry leaf of contiguous
 * PageInfo records indexed by the low VPN bits. A walk is two array
 * indexations — no hashing, no probing, no pointer-chased buckets —
 * which is what puts it in front of every simulated memory access.
 *
 * Three properties the rest of the simulator leans on:
 *
 *  - Stable pointers: leaves are heap blocks that never move once
 *    allocated and records are never erased, so a PageInfo* stays
 *    valid for the machine's lifetime. This is what lets the software
 *    TLB (vm/tlb.hh) cache VPN -> PageInfo* across accesses.
 *  - Deterministic iteration: walking directories in pid order and
 *    leaves in vpn order visits records in ascending (pid, vpn) key
 *    order by construction — no sort step, no stdlib dependence.
 *  - Contiguous storage: the 512 records of a leaf are one array, so
 *    sequential access streams walk the table with near-perfect
 *    spatial locality.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "vm/page.hh"

namespace hopp::vm
{

/**
 * Kernel virtual-memory hook: notified on every PTE establish / clear,
 * exactly the callbacks HoPP uses for RPT maintenance (§III-C, §V).
 */
class PteHook
{
  public:
    virtual ~PteHook() = default;

    /** A PTE mapping (pid, vpn) -> ppn was established. */
    virtual void onPteSet(Pid pid, Vpn vpn, Ppn ppn, Tick now) = 0;

    /** The PTE mapping (pid, vpn) -> ppn was removed. */
    virtual void onPteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now) = 0;
};

/**
 * Page table over all simulated processes: per-pid two-level radix.
 */
class PageTable
{
  public:
    /** log2 of the pages covered by one leaf (512, like one PTE page). */
    static constexpr unsigned leafShift = 9;

    /** Pages per leaf. */
    static constexpr std::uint64_t leafPages = 1ull << leafShift;

    /** Find-or-create the record for (pid, vpn). */
    PageInfo &
    get(Pid pid, Vpn vpn)
    {
        Directory &dir = directoryOf(pid);
        std::uint64_t di = dirIndex(vpn);
        // Lazy first-touch radix growth: a directory slot and its leaf
        // are allocated exactly once per address-space region, leaf
        // pointers are pinned thereafter, and steady state is
        // allocation-free (the PR-5 radix design).
        if (di >= dir.leaves.size())
            // hopp-analyze: allow(hotpath-alloc)
            dir.leaves.resize(di + 1);
        if (!dir.leaves[di])
            // hopp-analyze: allow(hotpath-alloc)
            dir.leaves[di] = std::make_unique<Leaf>();
        Leaf &leaf = *dir.leaves[di];
        std::uint64_t slot = slotIndex(vpn);
        if (!leaf.test(slot)) {
            leaf.set(slot);
            ++size_;
        }
        return leaf.pages[slot];
    }

    /** Lookup without creating. @return nullptr when absent. */
    PageInfo *
    find(Pid pid, Vpn vpn)
    {
        std::uint16_t p = pid.raw(); // dense directory index. hopp-analyze: allow(raw)
        if (p >= dirs_.size())
            return nullptr;
        Directory &dir = dirs_[p];
        std::uint64_t di = dirIndex(vpn);
        if (di >= dir.leaves.size() || !dir.leaves[di])
            return nullptr;
        Leaf &leaf = *dir.leaves[di];
        std::uint64_t slot = slotIndex(vpn);
        return leaf.test(slot) ? &leaf.pages[slot] : nullptr;
    }

    /** Const lookup without creating. */
    const PageInfo *
    find(Pid pid, Vpn vpn) const
    {
        return const_cast<PageTable *>(this)->find(pid, vpn);
    }

    /** True when (pid, vpn) has a present PTE (Resident). */
    bool
    present(Pid pid, Vpn vpn) const
    {
        const PageInfo *pi = find(pid, vpn);
        return pi && pi->state == PageState::Resident;
    }

    /** Number of page records (any state). */
    std::size_t size() const { return size_; }

    /** Count of pages in a given state (test/metrics helper). */
    std::size_t
    countState(PageState s) const
    {
        std::size_t n = 0;
        forEach([&](std::uint64_t, const PageInfo &pi) {
            n += pi.state == s;
        });
        return n;
    }

    /**
     * Visit every record in any state: fn(key, const PageInfo&), in
     * ascending (pid, vpn) key order (deterministic by construction).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t p = 0; p < dirs_.size(); ++p) {
            Pid pid{static_cast<std::uint64_t>(p)};
            const Directory &dir = dirs_[p];
            for (std::size_t di = 0; di < dir.leaves.size(); ++di) {
                const Leaf *leaf = dir.leaves[di].get();
                if (!leaf)
                    continue;
                for (std::uint64_t w = 0; w < leaf->used.size(); ++w) {
                    std::uint64_t bits = leaf->used[w];
                    while (bits) {
                        auto b = static_cast<std::uint64_t>(
                            __builtin_ctzll(bits));
                        bits &= bits - 1;
                        std::uint64_t slot = w * 64 + b;
                        Vpn vpn{(static_cast<std::uint64_t>(di)
                                 << leafShift) |
                                slot};
                        fn(pageKey(pid, vpn), leaf->pages[slot]);
                    }
                }
            }
        }
    }

  private:
    /**
     * One leaf: 512 contiguous PageInfo records plus a presence bitmap
     * (a record exists only after get() created it, so Untouched slots
     * that were never asked for do not count as records).
     */
    struct Leaf
    {
        std::array<PageInfo, leafPages> pages{};
        std::array<std::uint64_t, leafPages / 64> used{};

        bool
        test(std::uint64_t slot) const
        {
            return (used[slot >> 6] >> (slot & 63)) & 1;
        }

        void set(std::uint64_t slot) { used[slot >> 6] |= 1ull << (slot & 63); }
    };

    /** Level-one directory of one process. */
    struct Directory
    {
        std::vector<std::unique_ptr<Leaf>> leaves;
    };

    static std::uint64_t
    dirIndex(Vpn vpn)
    {
        // The directory is a dense array over vpn >> leafShift; bound
        // the index so a stray huge VPN cannot balloon it. Real
        // workloads top out around 2^25 pages (dir index ~2^16).
        std::uint64_t di = vpn.raw() >> leafShift; // radix split. hopp-analyze: allow(raw)
        hopp_assert(di < (1ull << 28),
                    "vpn %llu beyond the radix directory range",
                    (unsigned long long)vpn.raw()); // hopp-analyze: allow(raw)
        return di;
    }

    static std::uint64_t
    slotIndex(Vpn vpn)
    {
        return vpn.raw() & (leafPages - 1); // radix split. hopp-analyze: allow(raw)
    }

    Directory &
    directoryOf(Pid pid)
    {
        std::uint16_t p = pid.raw(); // dense directory index. hopp-analyze: allow(raw)
        if (p >= dirs_.size())
            // Grows once per new pid (process creation), never on a
            // steady-state walk. hopp-analyze: allow(hotpath-alloc)
            dirs_.resize(p + 1);
        return dirs_[p];
    }

    std::vector<Directory> dirs_; //!< indexed by pid
    std::uint64_t size_ = 0;      //!< total records, all processes
};

} // namespace hopp::vm


/**
 * @file
 * Per-page bookkeeping shared between the VMS, the prefetchers and the
 * statistics sinks.
 */

#pragma once

#include <cstdint>
#include <list>

#include "common/types.hh"
#include "remote/remote_node.hh"

namespace hopp::vm
{

/** Lifecycle of one virtual page in the disaggregated hierarchy. */
enum class PageState : std::uint8_t
{
    Untouched,  //!< never accessed; first touch is a zero-fill fault
    Resident,   //!< PTE present, frame in local DRAM
    SwapCached, //!< frame in DRAM but PTE absent (prefetched, not hit)
    Swapped,    //!< only the remote swap-slot copy exists
};

/** Who brought a page into local memory. 0 is the demand path. */
using Origin = std::uint8_t;

/** Demand (fault) path origin. */
inline constexpr Origin originDemand = 0;

/**
 * Composite (pid, vpn) key used by the page table and LRU lists. The
 * pid/vpn bit-packing below is a designated raw boundary: the key is a
 * deliberate 64-bit encoding, not address arithmetic.
 */
constexpr std::uint64_t
pageKey(Pid pid, Vpn vpn) // hopp-analyze: allow(raw-int-addr)
{
    // Packing into the 16:48 key layout. hopp-analyze: allow(raw)
    return (static_cast<std::uint64_t>(pid.raw()) << 48) | vpn.raw();
}

/** Extract the pid from a page key. */
constexpr Pid
keyPid(std::uint64_t key)
{
    return Pid{key >> 48};
}

/** Extract the vpn from a page key. */
constexpr Vpn
keyVpn(std::uint64_t key)
{
    return Vpn{key & ((1ull << 48) - 1)};
}

/**
 * All VMS state of one virtual page.
 */
struct PageInfo
{
    PageState state = PageState::Untouched;

    /** Local frame; valid in Resident / SwapCached. */
    Ppn ppn;

    /** Remote slot; valid when a swap copy exists or the page is out. */
    remote::SwapSlot slot = remote::noSlot;

    /** The slot holds a byte-accurate copy (page clean since fetch). */
    bool hasSwapCopy = false;

    /** Written since the last writeback / fetch. */
    bool dirty = false;

    /** Hardware accessed bit, consumed by second-chance reclaim. */
    bool accessedBit = false;

    /** Resident via early PTE injection and not yet referenced. */
    bool injected = false;

    /** In swapcache from a prefetch and not yet hit. */
    bool prefetched = false;

    /** Asynchronous fetch outstanding. */
    bool inflight = false;

    /** Map (inject the PTE) as soon as the in-flight fetch arrives. */
    bool injectOnArrival = false;

    /** This frame is charged to the owning cgroup. */
    bool charged = false;

    /** Who fetched the current local copy. */
    Origin origin = originDemand;

    /** Completion tick of the fetch that produced the local copy. */
    Tick fetchedAt;

    /** Completion tick of the outstanding fetch while inflight. */
    Tick completesAt;

    /** Position in the owning cgroup's LRU list while in DRAM. */
    std::list<std::uint64_t>::iterator lruIt{};

    /** True when lruIt is valid. */
    bool inLru = false;
};

} // namespace hopp::vm


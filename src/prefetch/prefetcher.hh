/**
 * @file
 * Fault-driven prefetcher interface shared by the kernel-based
 * baselines (Fastswap readahead, Leap, VMA-based, Depth-N). Each
 * prefetcher observes page faults through the VMS fault callback and
 * issues prefetches through the VMS insertion paths.
 */

#pragma once

#include "vm/listener.hh"

namespace hopp::prefetch
{

/** Well-known origin ids used by the machine assembly. */
namespace origin
{
inline constexpr vm::Origin readahead = 1; //!< Fastswap swap readahead
inline constexpr vm::Origin leap = 2;      //!< Leap majority prefetch
inline constexpr vm::Origin vma = 3;       //!< Linux VMA readahead
inline constexpr vm::Origin depthn = 4;    //!< Depth-N injection
inline constexpr vm::Origin hopp = 5;      //!< HoPP prefetch engine
} // namespace origin

/**
 * A fault-driven prefetcher.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Invoked by the VMS on every non-cold page fault. */
    virtual void onFault(const vm::FaultContext &ctx) = 0;
};

} // namespace hopp::prefetch


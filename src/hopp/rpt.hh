/**
 * @file
 * Reverse Page Table (RPT) and its MC-side cache (§III-C, Figure 6).
 *
 * The RPT maps PPN -> (PID, VPN, shared flag, huge flags) in a
 * reserved, uncached DRAM area (64-bit entries; 0.17% of physical
 * memory). The MC holds a small 16-way RPT cache through which *all*
 * RPT reads and writes pass, so no separate coherence is needed; the
 * DRAM copy is updated lazily on dirty write-back.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/types.hh"
#include "mem/dram.hh"
#include "mem/set_assoc.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::core
{

/** One RPT entry: 16-bit PID + 40-bit VPN + flags = 64 bits. */
struct RptEntry
{
    Pid pid;
    Vpn vpn;
    bool shared = false;
    std::uint8_t hugeBits = 0; //!< 2-bit huge-page flag (§III-C)
};

/**
 * The in-DRAM RPT (reserved area emulation).
 */
class Rpt
{
  public:
    /** Install or update an entry (initial build / write-back). */
    void
    store(Ppn ppn, const RptEntry &e)
    {
        entries_[ppn] = e;
    }

    /** Remove an entry. */
    void erase(Ppn ppn) { entries_.erase(ppn); }

    /** Read an entry. */
    std::optional<RptEntry>
    load(Ppn ppn) const
    {
        auto it = entries_.find(ppn);
        if (it == entries_.end())
            return std::nullopt;
        return it->second;
    }

    /** Live entries (= mapped frames). */
    std::size_t size() const { return entries_.size(); }

    /** DRAM bytes the table occupies (8 B per frame). */
    std::uint64_t bytes() const { return entries_.size() * 8; }

  private:
    std::unordered_map<Ppn, RptEntry> entries_;
};

/** RPT cache geometry. */
struct RptCacheConfig
{
    /** Cache capacity in bytes (64 KB default, Table III). */
    std::uint64_t capacityBytes = 64 << 10;

    /** Associativity. */
    std::size_t ways = 16;
};

/** RPT cache counters. */
struct RptCacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t missUnmapped = 0; //!< DRAM RPT had no entry either
    std::uint64_t updates = 0;      //!< PTE-hook installs
    std::uint64_t invalidates = 0;  //!< PTE-hook clears
    std::uint64_t writebacks = 0;   //!< dirty evictions to DRAM

    /** Table III's hit rate. */
    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/**
 * The MC-side RPT cache. All maintenance (kernel PTE hooks) and all
 * queries (hot-page extraction) go through here; DRAM traffic for
 * misses and write-backs is charged to the Table V counters.
 */
class RptCache
{
  public:
    /** Entry footprint (64-bit packed entry). */
    static constexpr std::uint64_t entryBytes = 8;

    /** DRAM burst transferred on a cache miss (one cacheline). */
    static constexpr std::uint64_t missFillBytes = 64;

    RptCache(Rpt &rpt, mem::Dram &dram, const RptCacheConfig &cfg = {});

    /**
     * PPN -> (PID, VPN) query on behalf of a hot-page extraction.
     * @return nullopt when neither the cache nor the DRAM RPT knows
     *         the frame (e.g. it was just unmapped).
     */
    std::optional<RptEntry> lookup(Ppn ppn);

    /** set_pte/set_pmd hook: install or refresh a mapping. */
    void update(Ppn ppn, const RptEntry &e);

    /** pte_clear/pmd_clear hook: drop a mapping. */
    void invalidate(Ppn ppn);

    /** Counters. */
    const RptCacheStats &stats() const { return stats_; }

    /** Entries the cache can hold. */
    std::size_t capacityEntries() const { return cache_.capacity(); }

  private:
    friend class hopp::check::Access;

    struct Line
    {
        RptEntry entry;
        bool dirty = false;
    };

    void writeback(Ppn ppn, const Line &line);

    Rpt &rpt_;
    mem::Dram &dram_;
    mem::SetAssocCache<Line, Ppn> cache_;
    RptCacheStats stats_;
};

} // namespace hopp::core


/**
 * @file
 * Hot Page Detection (HPD) module (§III-B, Figure 5).
 *
 * A small 16-way x 4-set table in the memory controller that converts
 * cacheline-granular LLC-miss READs into page-granular hot-page
 * extractions: a page is extracted once it accumulates N read misses,
 * and its send bit suppresses repeated extraction until the entry is
 * evicted. WRITEs (including RDMA DMA fills) are ignored (§III-B).
 */

#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "mem/set_assoc.hh"

namespace hopp::core
{

/** HPD geometry and threshold (paper defaults). */
struct HpdConfig
{
    /** Sets; the low log2(sets) PPN bits index the table. */
    std::size_t sets = 4;

    /** Ways per set; sets x ways pages tracked concurrently (64). */
    std::size_t ways = 16;

    /** Read accesses before a page is declared hot (N, default 8). */
    unsigned threshold = 8;
};

/** HPD event counters. */
struct HpdStats
{
    std::uint64_t reads = 0;       //!< read misses observed
    std::uint64_t writesIgnored = 0;
    std::uint64_t hotPages = 0;    //!< extractions emitted
    std::uint64_t suppressed = 0;  //!< drops due to the send bit
    std::uint64_t evictions = 0;   //!< table replacements

    /** Table II's ratio: hot pages extracted per read access. */
    double
    hotRatio() const
    {
        return reads ? static_cast<double>(hotPages) /
                           static_cast<double>(reads)
                     : 0.0;
    }
};

/**
 * The HPD table.
 */
class Hpd
{
  public:
    explicit Hpd(const HpdConfig &cfg)
        : cfg_(cfg), table_(cfg.sets, cfg.ways)
    {
    }

    /**
     * Feed one MC access.
     * @return the PPN of a newly detected hot page, if any.
     */
    std::optional<Ppn>
    access(PhysAddr pa, bool is_write)
    {
        if (is_write) {
            ++stats_.writesIgnored;
            return std::nullopt;
        }
        ++stats_.reads;
        Ppn ppn = pageOf(pa);
        // One combined probe + fill (identical hit/victim behaviour
        // to touch() + insert(), see SetAssocCache); the HPD sits
        // behind every LLC miss, so the probe count shows.
        auto r = table_.probeInsert(ppn, Entry{1, false});
        if (r.hit) {
            Entry *e = r.value;
            if (e->sent) {
                ++stats_.suppressed;
                return std::nullopt;
            }
            if (++e->count >= cfg_.threshold) {
                e->sent = true;
                ++stats_.hotPages;
                return ppn;
            }
            return std::nullopt;
        }
        if (r.evicted)
            ++stats_.evictions;
        if (cfg_.threshold <= 1) {
            // Degenerate configuration: every first touch is hot.
            r.value->sent = true;
            ++stats_.hotPages;
            return ppn;
        }
        return std::nullopt;
    }

    /**
     * Drop the entry of a frame. Wired to the PTE-clear signal the MC
     * already receives for RPT maintenance (§III-C): when a frame is
     * unmapped and recycled for a different page, its stale send bit
     * must not suppress detection of the new page.
     */
    void invalidate(Ppn ppn) { table_.erase(ppn); }

    /** Event counters. */
    const HpdStats &stats() const { return stats_; }

    /** Pages currently tracked. */
    std::size_t tracked() const { return table_.size(); }

    /** Configuration. */
    const HpdConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        unsigned count = 0;
        bool sent = false;
    };

    HpdConfig cfg_;
    mem::SetAssocCache<Entry, Ppn> table_;
    HpdStats stats_;
};

} // namespace hopp::core


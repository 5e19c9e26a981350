/**
 * @file
 * Compact replay-trace codec: the record vocabulary the replay engine
 * consumes (MC accesses plus the PTE events that keep the RPT in sync)
 * and the delta+zigzag+varint encoding that packs a record into a few
 * bytes. Encoding state resets at every block boundary, so any block
 * of a trace file decodes independently (seekability).
 *
 * Byte layout of one encoded record (codec::Delta):
 *
 *   control byte:
 *     bits 0-1  record kind (Mc / PteSet / PteClear / PteInit)
 *     bit  2    isWrite (Mc) or shared (PTE kinds)
 *     Mc:       bits 3-7 tick delta 0..30 inline; 31 = escape, a
 *               zigzag varint tick delta follows the control byte.
 *               (Mc has no huge flag, so bit 3 joins the tick code:
 *               inter-access gaps cluster just past 14 ns, and the
 *               wider field keeps them inline.)
 *     PTE:      bit 3 huge; bits 4-7 tick delta 0..14 inline; 15 =
 *               escape as above
 *   then, by kind:
 *     Mc        zigzag varint of the cacheline-number delta
 *     PteSet /  varint pid, zigzag varint vpn delta, zigzag varint
 *     PteInit   ppn delta
 *     PteClear  same payload as PteSet (flags unused)
 *
 * Deltas are relative to the previous record of the same field within
 * the block; the first record of a block encodes against zeroed state,
 * i.e. an absolute value in zigzag form.
 *
 * Packing addresses/ticks into wire integers is this file's purpose,
 * and the delta baselines live in that raw wire space by design.
 * hopp-analyze: allow-file(raw, page-shift, raw-int-addr)
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hopp::trace
{

/** What one replay record describes. */
enum class ReplayKind : std::uint8_t
{
    /** A memory-controller access (the MC tap). */
    Mc = 0,
    /** set_pte_at: a mapping appeared or changed. */
    PteSet = 1,
    /** pte_clear: a mapping was torn down. */
    PteClear = 2,
    /**
     * A mapping that existed when recording started (the initial
     * page-table snapshot). Replayed straight into the RPT, exactly as
     * HoppSystem::start() builds it, so RPT-cache update counters stay
     * byte-identical to the live run.
     */
    PteInit = 3,
};

/** One decoded replay record. Unused fields stay zero for each kind. */
struct ReplayRecord
{
    ReplayKind kind = ReplayKind::Mc;
    bool isWrite = false; //!< Mc only
    bool shared = false;  //!< PTE kinds only
    bool huge = false;    //!< PTE kinds only
    Pid pid;              //!< PTE kinds only
    PhysAddr pa;          //!< Mc only
    Vpn vpn;              //!< PTE kinds only
    Ppn ppn;              //!< PTE kinds only
    Tick tick;
};

/** Map a signed value onto unsigned with small magnitudes small. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append @p v as a LEB128 varint (7 payload bits per byte). */
inline void
putVarint(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf.push_back(static_cast<std::uint8_t>(v));
}

/**
 * Decode a varint from [@p p, @p end). Advances @p p past the varint.
 * @return false on buffer overrun or a varint wider than 64 bits.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end) {
        std::uint8_t byte = *p++;
        if (shift >= 63 && (byte >> (64 - shift)) != 0)
            return false; // would overflow 64 bits
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            out = v;
            return true;
        }
        shift += 7;
        if (shift > 63)
            return false;
    }
    return false;
}

/**
 * Per-block delta baselines. Zero-initialised at every block start;
 * both sides advance it record by record.
 */
struct DeltaState
{
    std::uint64_t tick = 0;
    std::uint64_t mcLine = 0;
    std::uint64_t vpn = 0;
    std::uint64_t ppn = 0;
};

/** Worst-case encoded size of one record (sizing decode buffers). */
inline constexpr std::size_t maxEncodedRecordBytes =
    1 /* control */ + 10 /* tick */ + 3 /* pid */ + 10 /* vpn/line */ +
    10 /* ppn */;

namespace detail
{

inline constexpr std::uint8_t kindMask = 0x3;
inline constexpr std::uint8_t flagWrite = 1u << 2; // isWrite / shared
inline constexpr std::uint8_t flagHuge = 1u << 3;  // PTE kinds only
// Mc: 5-bit tick code (bit 3 is free — no huge flag).
inline constexpr unsigned mcTickShift = 3;
inline constexpr std::uint64_t mcTickEscape = 31;
// PTE kinds: 4-bit tick code above the huge flag.
inline constexpr unsigned tickShift = 4;
inline constexpr std::uint64_t tickEscape = 15;

} // namespace detail

/** Append the encoding of @p r to @p buf, advancing @p st. */
inline void
encodeRecord(std::vector<std::uint8_t> &buf, DeltaState &st,
             const ReplayRecord &r)
{
    std::int64_t dt =
        static_cast<std::int64_t>(r.tick.raw() - st.tick);
    st.tick = r.tick.raw();
    std::uint8_t ctl = static_cast<std::uint8_t>(r.kind);
    if (r.kind == ReplayKind::Mc ? r.isWrite : r.shared)
        ctl |= detail::flagWrite;
    bool inlineTick;
    if (r.kind == ReplayKind::Mc) {
        inlineTick = dt >= 0 && dt <= 30;
        std::uint64_t code = inlineTick
                                 ? static_cast<std::uint64_t>(dt)
                                 : detail::mcTickEscape;
        ctl |= static_cast<std::uint8_t>(code << detail::mcTickShift);
    } else {
        if (r.huge)
            ctl |= detail::flagHuge;
        inlineTick = dt >= 0 && dt <= 14;
        std::uint64_t code = inlineTick
                                 ? static_cast<std::uint64_t>(dt)
                                 : detail::tickEscape;
        ctl |= static_cast<std::uint8_t>(code << detail::tickShift);
    }
    buf.push_back(ctl);
    if (!inlineTick)
        putVarint(buf, zigzagEncode(dt));
    if (r.kind == ReplayKind::Mc) {
        std::uint64_t line = lineOf(r.pa);
        putVarint(buf, zigzagEncode(static_cast<std::int64_t>(
                           line - st.mcLine)));
        st.mcLine = line;
    } else {
        putVarint(buf, r.pid.raw());
        putVarint(buf, zigzagEncode(static_cast<std::int64_t>(
                           r.vpn.raw() - st.vpn)));
        st.vpn = r.vpn.raw();
        putVarint(buf, zigzagEncode(static_cast<std::int64_t>(
                           r.ppn.raw() - st.ppn)));
        st.ppn = r.ppn.raw();
    }
}

/**
 * Decode one record from [@p p, @p end), advancing @p p and @p st.
 * @return false on a malformed or truncated payload.
 */
inline bool
decodeRecord(const std::uint8_t *&p, const std::uint8_t *end,
             DeltaState &st, ReplayRecord &r)
{
    if (p >= end)
        return false;
    std::uint8_t ctl = *p++;
    r.kind = static_cast<ReplayKind>(ctl & detail::kindMask);
    bool isMc = r.kind == ReplayKind::Mc;
    std::uint64_t code = isMc ? ctl >> detail::mcTickShift
                              : ctl >> detail::tickShift;
    std::int64_t dt;
    if (code == (isMc ? detail::mcTickEscape : detail::tickEscape)) {
        std::uint64_t zz;
        if (!getVarint(p, end, zz))
            return false;
        dt = zigzagDecode(zz);
    } else {
        dt = static_cast<std::int64_t>(code);
    }
    st.tick += static_cast<std::uint64_t>(dt);
    r.tick = Tick{st.tick};
    if (r.kind == ReplayKind::Mc) {
        r.isWrite = (ctl & detail::flagWrite) != 0;
        r.shared = false;
        r.huge = false;
        r.pid = Pid{};
        r.vpn = Vpn{};
        r.ppn = Ppn{};
        std::uint64_t zz;
        if (!getVarint(p, end, zz))
            return false;
        st.mcLine += static_cast<std::uint64_t>(zigzagDecode(zz));
        r.pa = PhysAddr{st.mcLine << lineShift};
        return true;
    }
    r.isWrite = false;
    r.shared = (ctl & detail::flagWrite) != 0;
    r.huge = (ctl & detail::flagHuge) != 0;
    r.pa = PhysAddr{};
    std::uint64_t pid_raw, zz;
    if (!getVarint(p, end, pid_raw) || pid_raw > 0xFFFF)
        return false;
    r.pid = Pid{pid_raw};
    if (!getVarint(p, end, zz))
        return false;
    st.vpn += static_cast<std::uint64_t>(zigzagDecode(zz));
    r.vpn = Vpn{st.vpn};
    if (!getVarint(p, end, zz))
        return false;
    st.ppn += static_cast<std::uint64_t>(zigzagDecode(zz));
    r.ppn = Ppn{st.ppn};
    return true;
}

} // namespace hopp::trace

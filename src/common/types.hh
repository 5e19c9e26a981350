/**
 * @file
 * Fundamental scalar types shared by every HoPP module.
 *
 * The whole simulation is expressed in terms of a small vocabulary:
 * simulated time in nanoseconds, physical/virtual byte addresses, page
 * numbers, and process identifiers. HoPP's correctness hinges on
 * keeping those integer spaces straight — the RPT exists precisely to
 * reverse-translate PPNs back to (PID, VPN), so passing a physical
 * address where a virtual page number is expected is the exact bug
 * class the hardware design manages. This header therefore wraps each
 * space in a zero-overhead strong type:
 *
 *   Tick      absolute simulated time (ns since simulation start)
 *   PhysAddr  byte address in the simulated physical address space
 *   VirtAddr  byte address in a process' virtual address space
 *   Ppn       physical page number (PhysAddr >> pageShift)
 *   Vpn       virtual page number (VirtAddr >> pageShift)
 *   Pid       16-bit process id, range-checked at construction
 *
 * Allowed arithmetic is only what is dimensionally meaningful:
 *
 *   Addr + Bytes -> Addr        Addr - Addr -> Bytes
 *   Tick + Duration -> Tick     Tick - Tick -> Duration
 *   Ppn  + count -> Ppn         Ppn  - Ppn  -> count       (ditto Vpn)
 *   pageOf(PhysAddr) -> Ppn     pageBase(Ppn) -> PhysAddr
 *   pageOf(VirtAddr) -> Vpn     pageBase(Vpn) -> VirtAddr
 *
 * Cross-tag expressions (PhysAddr + VirtAddr, Tick < Ppn, ...) do not
 * compile. Offsets (Bytes, Duration, page counts) are deliberately
 * plain std::uint64_t: they are dimensionless deltas, and tagging them
 * too would force arithmetic noise everywhere for little protection.
 *
 * Escape hatch: .raw() yields the underlying integer. hopp_analyze flags
 * every use outside designated boundary files (trace I/O, stats
 * reporting, hardware tag packing) unless annotated with
 * `hopp-analyze: allow(raw)` and a justification.
 *
 * This file is the definition site: the operators, geometry helpers,
 * and hash specializations below are the single implementation of the
 * tagged types, so unwrapping here is inherent.
 * hopp-analyze: allow-file(raw)
 */

#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

#include "common/logging.hh"

namespace hopp
{

/**
 * Zero-overhead strong wrapper around a 64-bit unsigned integer.
 *
 * Distinct @p Tag types instantiate unrelated wrapper types, so values
 * from different spaces cannot meet in any operator. Construction from
 * a raw integer is explicit; the wrapper is trivially copyable and has
 * the same size and alignment as the integer it wraps (statically
 * asserted below), so it vanishes at -O1.
 */
template <typename Tag>
class TaggedU64
{
  public:
    /** Zero-initialises: tick 0 / address 0 / page 0. */
    constexpr TaggedU64() = default;

    /** Explicit lift from the raw integer space. */
    constexpr explicit TaggedU64(std::uint64_t v) : v_(v) {}

    /**
     * The underlying integer. Boundary use only (serialisation, stats,
     * hardware tag packing); hopp_analyze enforces the annotation rule.
     */
    constexpr std::uint64_t raw() const { return v_; }

    /** Total order / equality within one tag space. */
    constexpr auto operator<=>(const TaggedU64 &) const = default;

    /** Advance by a raw delta (Bytes for addresses, ns for ticks). */
    constexpr TaggedU64 &
    operator+=(std::uint64_t d)
    {
        v_ += d;
        return *this;
    }

    /** Step back by a raw delta. */
    constexpr TaggedU64 &
    operator-=(std::uint64_t d)
    {
        v_ -= d;
        return *this;
    }

    /** Pre-increment: the next page / tick / byte. */
    constexpr TaggedU64 &
    operator++()
    {
        ++v_;
        return *this;
    }

    /** Post-increment. */
    constexpr TaggedU64
    operator++(int)
    {
        TaggedU64 old = *this;
        ++v_;
        return old;
    }

    /** Pre-decrement. */
    constexpr TaggedU64 &
    operator--()
    {
        --v_;
        return *this;
    }

    /** Post-decrement. */
    constexpr TaggedU64
    operator--(int)
    {
        TaggedU64 old = *this;
        --v_;
        return old;
    }

    /** value + delta -> value. */
    friend constexpr TaggedU64
    operator+(TaggedU64 a, std::uint64_t d)
    {
        return TaggedU64{a.v_ + d};
    }

    /** value - delta -> value. */
    friend constexpr TaggedU64
    operator-(TaggedU64 a, std::uint64_t d)
    {
        return TaggedU64{a.v_ - d};
    }

    /** value - value -> delta (same tag only). */
    friend constexpr std::uint64_t
    operator-(TaggedU64 a, TaggedU64 b)
    {
        return a.v_ - b.v_;
    }

    /** Stream as the plain integer (logging / gtest failure output). */
    friend std::ostream &
    operator<<(std::ostream &os, TaggedU64 v)
    {
        return os << v.v_;
    }

  private:
    std::uint64_t v_ = 0;
};

/** Simulated time, in nanoseconds since simulation start. */
using Tick = TaggedU64<struct TickTag>;

/** Byte address in the simulated physical address space. */
using PhysAddr = TaggedU64<struct PhysAddrTag>;

/** Byte address in a simulated process' virtual address space. */
using VirtAddr = TaggedU64<struct VirtAddrTag>;

/** Physical page number (PhysAddr >> pageShift). */
using Ppn = TaggedU64<struct PpnTag>;

/** Virtual page number (VirtAddr >> pageShift). */
using Vpn = TaggedU64<struct VpnTag>;

/** Time delta in nanoseconds (latencies, timeouts, periods). */
using Duration = std::uint64_t;

/** Size delta in bytes. */
using Bytes = std::uint64_t;

/**
 * Process identifier, as carried in RPT entries. The RPT packs the PID
 * into 16 bits of the 64-bit entry (§III-C), so construction range-
 * checks instead of silently truncating: a PID the hardware could not
 * represent is a configuration bug, caught here.
 */
class Pid
{
  public:
    /** PID 0 (the idle/kernel pseudo-process). */
    constexpr Pid() = default;

    /** Lift from an integer; panics when the value exceeds 16 bits. */
    constexpr explicit Pid(std::uint64_t v)
        : v_(static_cast<std::uint16_t>(v))
    {
        hopp_assert(v <= 0xFFFFull,
                    "pid %llu does not fit the RPT's 16-bit field",
                    static_cast<unsigned long long>(v));
    }

    /** The underlying integer (same boundary rules as TaggedU64). */
    constexpr std::uint16_t raw() const { return v_; }

    /** Total order / equality. */
    constexpr auto operator<=>(const Pid &) const = default;

    /** Stream as the plain integer. */
    friend std::ostream &
    operator<<(std::ostream &os, Pid p)
    {
        return os << p.v_;
    }

  private:
    std::uint16_t v_ = 0;
};

/** Sentinel for "no tick": used for unscheduled deadlines. */
inline constexpr Tick maxTick{~std::uint64_t(0)};

/** Base-2 logarithm of the page size: 4 KB pages. */
inline constexpr unsigned pageShift = 12;

/** Page size in bytes. */
inline constexpr Bytes pageBytes = 1ull << pageShift;

/** Base-2 logarithm of the cacheline size: 64 B lines. */
inline constexpr unsigned lineShift = 6;

/** Cacheline size in bytes. */
inline constexpr Bytes lineBytes = 1ull << lineShift;

/** Cachelines per 4 KB page (64) — a count, not an address. */
inline constexpr std::uint64_t linesPerPage = // hopp-analyze: allow(raw-int-addr)
    pageBytes / lineBytes;

namespace time_literals
{

/** One nanosecond of simulated time. */
inline constexpr Duration operator""_ns(unsigned long long v)
{
    return v;
}

/** One microsecond of simulated time. */
inline constexpr Duration operator""_us(unsigned long long v)
{
    return v * 1000ull;
}

/** One millisecond of simulated time. */
inline constexpr Duration operator""_ms(unsigned long long v)
{
    return v * 1000ull * 1000ull;
}

/** One second of simulated time. */
inline constexpr Duration operator""_s(unsigned long long v)
{
    return v * 1000ull * 1000ull * 1000ull;
}

} // namespace time_literals

// The page/line geometry helpers below are the ONE place byte
// addresses are shifted into page/line space and back; hopp_analyze
// rejects manual pageShift arithmetic anywhere else.

/** Convert a physical byte address to its page number. */
constexpr Ppn
pageOf(PhysAddr addr)
{
    return Ppn{addr.raw() >> pageShift};
}

/** Convert a virtual byte address to its page number. */
constexpr Vpn
pageOf(VirtAddr addr)
{
    return Vpn{addr.raw() >> pageShift};
}

/** Base byte address of a physical page. */
constexpr PhysAddr
pageBase(Ppn page)
{
    return PhysAddr{page.raw() << pageShift};
}

/** Base byte address of a virtual page. */
constexpr VirtAddr
pageBase(Vpn page)
{
    return VirtAddr{page.raw() << pageShift};
}

/** Byte offset of an address within its page. */
constexpr Bytes
pageOffset(PhysAddr addr)
{
    return addr.raw() & (pageBytes - 1);
}

/** Byte offset of an address within its page. */
constexpr Bytes
pageOffset(VirtAddr addr)
{
    return addr.raw() & (pageBytes - 1);
}

/** Global cacheline index of a physical byte address. */
constexpr std::uint64_t
lineOf(PhysAddr addr)
{
    return addr.raw() >> lineShift;
}

/** Align a physical byte address down to its cacheline base. */
constexpr PhysAddr
lineBase(PhysAddr addr)
{
    return PhysAddr{addr.raw() & ~(lineBytes - 1)};
}

/** Align a virtual byte address down to its cacheline base. */
constexpr VirtAddr
lineBase(VirtAddr addr)
{
    return VirtAddr{addr.raw() & ~(lineBytes - 1)};
}

/**
 * Signed distance @p to - @p from in the tag's unit (pages for
 * Ppn/Vpn, bytes for addresses, ns for ticks). Stride detectors need
 * directions, which the unsigned same-tag difference cannot express.
 */
template <typename Tag>
constexpr std::int64_t
signedDelta(TaggedU64<Tag> from, TaggedU64<Tag> to)
{
    return static_cast<std::int64_t>(to.raw() - from.raw());
}

/**
 * Offset a value by a signed delta (two's-complement wrap; callers
 * reject out-of-range targets before applying).
 */
template <typename Tag>
constexpr TaggedU64<Tag>
offsetBy(TaggedU64<Tag> v, std::int64_t d)
{
    return TaggedU64<Tag>{v.raw() + static_cast<std::uint64_t>(d)};
}

/**
 * A tagged value as a double, for ratio/rate math in reports and
 * benches (speedups, bandwidth, normalized performance). Keeping the
 * conversion here concentrates the one legitimate escape into
 * floating point behind a named intent.
 */
template <typename Tag>
constexpr double
toDouble(TaggedU64<Tag> v)
{
    return static_cast<double>(v.raw()); // hopp-analyze: allow(raw)
}

// The wrappers must be free: same size/alignment as the raw integer,
// trivially copyable (memcpy-able into trace buffers), and usable in
// constant expressions.
static_assert(sizeof(Tick) == 8 && alignof(Tick) == alignof(std::uint64_t));
static_assert(sizeof(PhysAddr) == 8 && sizeof(VirtAddr) == 8);
static_assert(sizeof(Ppn) == 8 && sizeof(Vpn) == 8);
static_assert(sizeof(Pid) == 2 && alignof(Pid) == alignof(std::uint16_t));
static_assert(std::is_trivially_copyable_v<Tick> &&
              std::is_trivially_copyable_v<PhysAddr> &&
              std::is_trivially_copyable_v<VirtAddr> &&
              std::is_trivially_copyable_v<Ppn> &&
              std::is_trivially_copyable_v<Vpn> &&
              std::is_trivially_copyable_v<Pid>);
static_assert(pageOf(PhysAddr{0x12345}) == Ppn{0x12} &&
              pageBase(Ppn{0x12}) == PhysAddr{0x12000});
static_assert(pageOf(VirtAddr{0x12345}) == Vpn{0x12} &&
              pageBase(Vpn{0x12}) == VirtAddr{0x12000});

} // namespace hopp

// Hash support so the tagged types drop into unordered containers.
// Identity over the raw value, matching the pre-strong-type behaviour.
template <typename Tag>
struct std::hash<hopp::TaggedU64<Tag>>
{
    std::size_t
    operator()(const hopp::TaggedU64<Tag> &v) const noexcept
    {
        return std::hash<std::uint64_t>{}(v.raw());
    }
};

template <>
struct std::hash<hopp::Pid>
{
    std::size_t
    operator()(const hopp::Pid &p) const noexcept
    {
        return std::hash<std::uint16_t>{}(p.raw());
    }
};


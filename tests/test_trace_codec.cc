/**
 * @file
 * Replay-trace codec tests: varint/zigzag edge values, delta sign
 * changes, randomized full round trips, the container's header
 * contract (codec field 0 only; an empty trace is ok and empty),
 * truncated/corrupt file rejection, and block-boundary resume
 * (seekability).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hh"
#include "trace/champsim.hh"
#include "trace/codec.hh"
#include "trace/trace_file.hh"

using namespace hopp;
using namespace hopp::trace;

namespace
{

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

void
expectEqualRecords(const ReplayRecord &a, const ReplayRecord &b,
                   std::size_t i)
{
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.isWrite, b.isWrite) << "record " << i;
    EXPECT_EQ(a.shared, b.shared) << "record " << i;
    EXPECT_EQ(a.huge, b.huge) << "record " << i;
    EXPECT_EQ(a.pid, b.pid) << "record " << i;
    EXPECT_EQ(a.pa, b.pa) << "record " << i;
    EXPECT_EQ(a.vpn, b.vpn) << "record " << i;
    EXPECT_EQ(a.ppn, b.ppn) << "record " << i;
    EXPECT_EQ(a.tick, b.tick) << "record " << i;
}

std::vector<ReplayRecord>
readAll(TraceReader &reader)
{
    std::vector<ReplayRecord> out;
    ReplayRecord buf[37]; // deliberately odd: straddles block edges
    std::size_t n;
    while ((n = reader.nextBatch(buf, std::size(buf))) > 0)
        out.insert(out.end(), buf, buf + n);
    return out;
}

std::vector<ReplayRecord>
roundTrip(const std::vector<ReplayRecord> &in, const char *name,
          TraceWriter::Options opt = {})
{
    std::string path = tmpPath(name);
    TraceWriter w(path, opt);
    for (const auto &r : in)
        w.append(r);
    EXPECT_TRUE(w.finish());
    TraceReader reader;
    EXPECT_EQ(reader.open(path), TraceIoStatus::Ok);
    auto out = readAll(reader);
    EXPECT_EQ(reader.status(), TraceIoStatus::Ok);
    std::remove(path.c_str());
    return out;
}

} // namespace

TEST(Varint, EdgeValuesRoundTrip)
{
    const std::uint64_t values[] = {
        0,       1,      127,        128,
        129,     16383,  16384,      16385,
        1u << 21, (1ull << 35) - 1, 1ull << 35, 1ull << 62,
        ~0ull - 1, ~0ull};
    for (std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        EXPECT_LE(buf.size(), 10u);
        const std::uint8_t *p = buf.data();
        std::uint64_t back = 0;
        ASSERT_TRUE(getVarint(p, buf.data() + buf.size(), back));
        EXPECT_EQ(back, v);
        EXPECT_EQ(p, buf.data() + buf.size());
    }
}

TEST(Varint, TruncatedAndOverlongRejected)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 1ull << 40);
    const std::uint8_t *p = buf.data();
    std::uint64_t v;
    // Cut the buffer one byte short of the terminator.
    EXPECT_FALSE(getVarint(p, buf.data() + buf.size() - 1, v));
    // 11 continuation bytes cannot fit a 64-bit value.
    std::vector<std::uint8_t> overlong(11, 0x80);
    overlong.push_back(0x01);
    p = overlong.data();
    EXPECT_FALSE(getVarint(p, overlong.data() + overlong.size(), v));
}

TEST(Zigzag, SignEdgesRoundTrip)
{
    const std::int64_t values[] = {
        0,  -1, 1,  -2, 2,  63, -64, INT64_MAX, INT64_MIN,
        INT64_MAX - 1, INT64_MIN + 1};
    for (std::int64_t v : values)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    // Small magnitudes must stay small (the property deltas rely on).
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
}

TEST(TraceCodec, DeltaSignChangesRoundTrip)
{
    // Strictly descending then ascending addresses, tick deltas of
    // both signs, interleaved PTE traffic: every delta field changes
    // sign mid-stream.
    std::vector<ReplayRecord> in;
    std::uint64_t ticks[] = {100, 100, 50, 5000, 4999, 5013};
    for (int i = 0; i < 6; ++i) {
        ReplayRecord r;
        r.kind = ReplayKind::Mc;
        r.isWrite = i % 2 == 0;
        r.pa = pageBase(Ppn{static_cast<std::uint64_t>(
                   i < 3 ? 1000 - 100 * i : 100 * i)}) +
               static_cast<std::uint64_t>(i) * lineBytes;
        r.tick = Tick{ticks[i]};
        in.push_back(r);
        ReplayRecord p;
        p.kind = i % 2 ? ReplayKind::PteSet : ReplayKind::PteClear;
        p.pid = Pid{static_cast<std::uint64_t>(7 + i)};
        p.shared = i % 2 != 0;
        p.huge = i == 3;
        p.vpn = Vpn{static_cast<std::uint64_t>(i < 3 ? 1u << 20 : 5)};
        p.ppn = Ppn{static_cast<std::uint64_t>(i < 3 ? 9 : 1u << 19)};
        p.tick = Tick{ticks[i]};
        in.push_back(p);
    }
    auto out = roundTrip(in, "hopp_codec_signs.htrc");
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expectEqualRecords(in[i], out[i], i);
}

TEST(TraceCodec, RandomizedRoundTrip)
{
    Pcg32 rng(0xC0DEC, 42);
    std::vector<ReplayRecord> in;
    std::uint64_t tick = 0;
    for (int i = 0; i < 20000; ++i) {
        ReplayRecord r;
        switch (rng.below(8)) {
          case 0:
            r.kind = ReplayKind::PteSet;
            break;
          case 1:
            r.kind = ReplayKind::PteClear;
            break;
          case 2:
            r.kind = ReplayKind::PteInit;
            break;
          default:
            r.kind = ReplayKind::Mc;
            break;
        }
        // Ticks mostly advance, occasionally jump far or step back.
        switch (rng.below(16)) {
          case 0:
            tick += rng.below(1u << 30);
            break;
          case 1:
            tick -= rng.below(1000);
            break;
          default:
            tick += rng.below(15);
            break;
        }
        r.tick = Tick{tick};
        if (r.kind == ReplayKind::Mc) {
            r.isWrite = rng.below(2) != 0;
            r.pa = pageBase(Ppn{rng.below(1u << 22)}) +
                   rng.below(linesPerPage) * lineBytes;
        } else {
            r.pid = Pid{rng.below(0xFFFF)};
            r.shared = rng.below(2) != 0;
            r.huge = r.kind != ReplayKind::PteClear && rng.below(8) == 0;
            r.vpn = Vpn{rng.below64(1ull << 36)};
            r.ppn = Ppn{rng.below(1u << 22)};
        }
        in.push_back(r);
    }
    // Small blocks so the stream crosses many block boundaries.
    TraceWriter::Options opt;
    opt.blockRecords = 257;
    auto out = roundTrip(in, "hopp_codec_random.htrc", opt);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expectEqualRecords(in[i], out[i], i);
}

TEST(TraceCodec, NonDeltaCodecFieldIsBadHeader)
{
    // The header's codec field (bytes 12..15) must be 0; 1 is what the
    // retired raw 16-byte codec stamped. Flip only that field of a
    // valid trace and the reader must refuse it at open.
    std::string path = tmpPath("hopp_codec_field.htrc");
    {
        TraceWriter w(path);
        ReplayRecord r;
        r.pa = pageBase(Ppn{17});
        r.tick = Tick{300};
        w.append(r);
        ASSERT_TRUE(w.finish());
    }
    TraceReader reader;
    ASSERT_EQ(reader.open(path), TraceIoStatus::Ok);
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::uint32_t codec = 1;
    ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&codec, sizeof(codec), 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(reader.open(path), TraceIoStatus::BadHeader);
    std::remove(path.c_str());
}

TEST(TraceCodec, EmptyTraceIsOkAndEmpty)
{
    // No records means a bare header: a valid trace of zero records,
    // not an error, and distinct from a missing or damaged file.
    std::string path = tmpPath("hopp_codec_empty.htrc");
    {
        TraceWriter w(path);
        ASSERT_TRUE(w.finish());
        EXPECT_EQ(w.records(), 0u);
        EXPECT_EQ(w.bytesWritten(), 16u);
    }
    TraceReader reader;
    ASSERT_EQ(reader.open(path), TraceIoStatus::Ok);
    EXPECT_TRUE(readAll(reader).empty());
    EXPECT_EQ(reader.status(), TraceIoStatus::Ok);
    EXPECT_EQ(reader.recordsDecoded(), 0u);
    std::remove(path.c_str());
}

TEST(TraceCodec, TruncatedFilesRejected)
{
    std::string path = tmpPath("hopp_codec_trunc.htrc");
    std::vector<ReplayRecord> in;
    for (int i = 0; i < 1000; ++i) {
        ReplayRecord r;
        r.pa = pageBase(Ppn{static_cast<std::uint64_t>(i)});
        r.tick = Tick{static_cast<std::uint64_t>(i)};
        in.push_back(r);
    }
    {
        TraceWriter w(path);
        for (const auto &r : in)
            w.append(r);
        ASSERT_TRUE(w.finish());
    }
    long full;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        full = std::ftell(f);
        std::fclose(f);
    }
    // Cut mid-payload, mid-block-header, and mid-file-header: all must
    // surface an error status, never a silently short trace.
    for (long cut : {full - 7L, 16L + 3L, 5L}) {
        ASSERT_EQ(::truncate(path.c_str(), cut), 0);
        TraceReader reader;
        auto st = reader.open(path);
        if (st == TraceIoStatus::Ok) {
            ReplayRecord buf[128];
            while (reader.nextBatch(buf, std::size(buf)) > 0) {
            }
            st = reader.status();
        }
        EXPECT_NE(st, TraceIoStatus::Ok) << "cut at " << cut;
    }
    std::remove(path.c_str());
}

TEST(TraceCodec, MissingFileAndBadMagicRejected)
{
    TraceReader reader;
    EXPECT_EQ(reader.open("/nonexistent/zzz.htrc"),
              TraceIoStatus::OpenFailed);
    std::string path = tmpPath("hopp_codec_badmagic.htrc");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace file at all.....", f);
    std::fclose(f);
    EXPECT_EQ(reader.open(path), TraceIoStatus::BadHeader);
    std::remove(path.c_str());
}

TEST(TraceCodec, BlockBoundaryResume)
{
    // Blocks must decode independently: skip the first k blocks and
    // the remainder must equal the tail of a full sequential read.
    std::string path = tmpPath("hopp_codec_seek.htrc");
    TraceWriter::Options opt;
    opt.blockRecords = 64;
    Pcg32 rng(0x5EED, 7);
    std::vector<ReplayRecord> in;
    std::uint64_t tick = 0;
    {
        TraceWriter w(path, opt);
        for (int i = 0; i < 64 * 5 + 13; ++i) {
            ReplayRecord r;
            r.kind = i % 9 == 0 ? ReplayKind::PteSet : ReplayKind::Mc;
            tick += rng.below(200);
            r.tick = Tick{tick};
            if (r.kind == ReplayKind::Mc) {
                r.pa = pageBase(Ppn{rng.below(1u << 20)});
            } else {
                r.pid = Pid{3};
                r.vpn = Vpn{rng.below(1u << 20)};
                r.ppn = Ppn{rng.below(1u << 20)};
            }
            in.push_back(r);
            w.append(r);
        }
        ASSERT_TRUE(w.finish());
    }
    for (std::uint64_t skip : {1u, 3u, 5u}) {
        TraceReader reader;
        ASSERT_EQ(reader.open(path), TraceIoStatus::Ok);
        ASSERT_EQ(reader.skipBlocks(skip), TraceIoStatus::Ok);
        auto tail = readAll(reader);
        EXPECT_EQ(reader.status(), TraceIoStatus::Ok);
        std::size_t from = skip * 64;
        ASSERT_EQ(tail.size(), in.size() - from) << "skip " << skip;
        for (std::size_t i = 0; i < tail.size(); ++i)
            expectEqualRecords(in[from + i], tail[i], i);
    }
    std::remove(path.c_str());
}

TEST(ChampSim, ImportSynthesizesMappingsAndAccesses)
{
    // Hand-build two 64-byte ChampSim instructions: one with a load
    // and a store, one touching the same page again (no new PteSet).
    std::string in_path = tmpPath("hopp_champsim_in.bin");
    std::string out_path = tmpPath("hopp_champsim_out.htrc");
    {
        std::FILE *f = std::fopen(in_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::uint8_t instr[64] = {};
        auto put64 = [&](unsigned off, std::uint64_t v) {
            std::memcpy(instr + off, &v, 8);
        };
        // Layout: ip @0, flags/regs @8..15, dst mem @16, src mem @32.
        put64(0, 0x400000);
        put64(16, 0x7000'1040);       // store
        put64(32, 0x7000'2000);       // load
        ASSERT_EQ(std::fwrite(instr, 1, 64, f), 64u);
        std::memset(instr, 0, sizeof(instr));
        put64(0, 0x400004);
        put64(32, 0x7000'2100); // load, same page as before
        ASSERT_EQ(std::fwrite(instr, 1, 64, f), 64u);
        std::fclose(f);
    }
    auto imp = importChampSim(in_path, out_path);
    EXPECT_EQ(imp.status, TraceIoStatus::Ok);
    EXPECT_EQ(imp.instructions, 2u);
    EXPECT_EQ(imp.accesses, 3u);
    EXPECT_EQ(imp.pages, 2u);
    TraceReader reader;
    ASSERT_EQ(reader.open(out_path), TraceIoStatus::Ok);
    auto recs = readAll(reader);
    ASSERT_EQ(recs.size(), 5u); // 2 PteSet + 3 Mc
    EXPECT_EQ(recs[0].kind, ReplayKind::PteSet);
    EXPECT_EQ(recs[0].vpn.raw(), // hopp-analyze: allow(raw) identity-map check
              recs[0].ppn.raw());
    // Loads convert before stores: PteSet+read, then PteSet+write.
    EXPECT_EQ(recs[1].kind, ReplayKind::Mc);
    EXPECT_FALSE(recs[1].isWrite);
    EXPECT_EQ(recs[2].kind, ReplayKind::PteSet);
    EXPECT_EQ(recs[3].kind, ReplayKind::Mc);
    EXPECT_TRUE(recs[3].isWrite);
    // Second instruction's load reuses the already-mapped page.
    EXPECT_EQ(recs[4].kind, ReplayKind::Mc);
    EXPECT_FALSE(recs[4].isWrite);
    EXPECT_EQ(pageOf(recs[4].pa), pageOf(recs[1].pa));
    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
    // Importer propagates input IO failures.
    EXPECT_EQ(importChampSim("/nonexistent/zzz.bin", out_path).status,
              TraceIoStatus::OpenFailed);
    std::remove(out_path.c_str());
}

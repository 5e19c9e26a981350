/**
 * @file
 * Blocked, seekable replay-trace container (DESIGN.md §15).
 *
 * File layout:
 *
 *   file header (16 B):  magic "HOPPTRC1" | u32 version | u32 codec
 *   block*:              u32 nRecords | u32 payloadBytes | payload
 *
 * The codec field is always 0: payloads pack ReplayRecords with the
 * delta+zigzag+varint record codec (codec.hh). Encoder state resets at
 * each block, so blocks decode independently and a reader can seek by
 * skipping whole blocks.
 *
 * TraceWriter streams records out block by block; TraceReader's
 * nextBatch decode loop is allocation-free (all buffers are sized once
 * at open) and batched to mirror AccessGenerator::nextBatch.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/codec.hh"

namespace hopp::trace
{

/**
 * Outcome of a trace file operation. Distinguishes "the file has no
 * records" (Ok, empty output) from "the file could not be opened or is
 * damaged" — callers must branch on the status, not the record count.
 */
enum class TraceIoStatus
{
    Ok = 0,
    /** fopen failed (missing file, permissions, bad path). */
    OpenFailed,
    /** fwrite/fclose failed (disk full, IO error). */
    WriteFailed,
    /** File magic/version/codec field is not a trace file's. */
    BadHeader,
    /** File ends mid-record or mid-block. */
    Truncated,
    /** Structurally valid framing but undecodable payload. */
    Corrupt,
};

/** Human-readable name of @p s for error messages. */
const char *traceIoStatusName(TraceIoStatus s);

/** Trace container format version this build reads and writes. */
inline constexpr std::uint32_t traceFormatVersion = 1;

/** Most records one block may carry (bounds reader buffers). */
inline constexpr std::uint32_t maxBlockRecords = 1u << 16;

/**
 * Streaming trace writer. Records are buffered into blocks and
 * flushed when a block fills; finish() flushes the tail and reports
 * whether every write reached the file.
 */
class TraceWriter
{
  public:
    struct Options
    {
        /** Records per block (clamped to [1, maxBlockRecords]). */
        std::uint32_t blockRecords = 4096;
    };

    explicit TraceWriter(const std::string &path)
        : TraceWriter(path, Options{})
    {
    }
    TraceWriter(const std::string &path, Options opt);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** False once any open/write failure happened. */
    bool ok() const { return ok_; }

    /** Append one replay record. */
    void append(const ReplayRecord &r);

    /** Flush the tail block and close. @return ok(). Idempotent. */
    bool finish();

    /** Records accepted so far. */
    std::uint64_t records() const { return records_; }

    /** Bytes written so far, headers included. */
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    void flushBlock();
    void put(const void *p, std::size_t n);

    std::FILE *file_ = nullptr;
    Options opt_;
    std::vector<std::uint8_t> block_;
    DeltaState delta_;
    std::uint32_t blockCount_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t bytesWritten_ = 0;
    bool ok_ = false;
    bool finished_ = false;
};

/**
 * Streaming trace reader. open() validates the header and sizes every
 * buffer; nextBatch() then decodes without allocating. A short batch
 * is returned only at end of file or on error — check status() when
 * nextBatch returns 0.
 */
class TraceReader
{
  public:
    TraceReader() = default;
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Open @p path and validate the file header. */
    TraceIoStatus open(const std::string &path);

    /**
     * Decode up to @p max records into @p out.
     * @return records decoded; 0 means end of file or error.
     */
    std::size_t nextBatch(ReplayRecord *out, std::size_t max);

    /** Ok while healthy (including at clean EOF); sticky on error. */
    TraceIoStatus status() const { return status_; }

    /**
     * Skip @p n whole blocks without decoding them. Valid only at a
     * block boundary (before any nextBatch, or after a block drained
     * exactly). Decoding then resumes with fresh delta state.
     */
    TraceIoStatus skipBlocks(std::uint64_t n);

    /** Records decoded so far. */
    std::uint64_t recordsDecoded() const { return decoded_; }

  private:
    bool loadBlock();

    std::FILE *file_ = nullptr;
    TraceIoStatus status_ = TraceIoStatus::OpenFailed;
    std::vector<std::uint8_t> buf_;
    const std::uint8_t *pos_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    std::uint32_t blockLeft_ = 0;
    DeltaState delta_;
    std::uint64_t decoded_ = 0;
    bool eof_ = false;
};

} // namespace hopp::trace

/**
 * @file
 * Streaming, bounded-memory ingestion of external memory traces.
 *
 * One on-disk format, CTIB, is decoded into per-core MicroOp streams.
 * An 8-byte header ("CTIB", u8 version = 1, u8 numCores, u16
 * reserved = 0) is followed by records of a u16 little-endian payload
 * length (>= 24) and the payload: core u8, cls u8 (OpClass, 0..6),
 * latency u8 (>= 1), flags u8 (bit 0 = mispredict, others reserved
 * = 0), pc u64le, addr u64le, dep1 u16le, dep2 u16le. Payload bytes
 * past 24 are ignored (forward compat).
 *
 * A trace may be gzip-compressed (transport, detected by the 1f 8b
 * file magic) when the build found zlib; see haveGzip().
 *
 * Trace files are untrusted input. Decoding is strict and has one
 * path: the decoder never crashes, hangs, skips a record or silently
 * misparses. Every decode problem is a TraceError carrying the exact
 * byte offset of the offending field (offsets into the decompressed
 * stream for gzip sources); a file that is not CTIB fails at its
 * first byte that differs from the magic. Memory use is bounded by
 * the kMaxRecordBytes/kMaxCores caps regardless of file content.
 */

#ifndef CRITMEM_TRACE_INGEST_INGEST_HH
#define CRITMEM_TRACE_INGEST_INGEST_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/generator.hh"

namespace critmem
{

/**
 * A malformed or unreadable trace file. Carries the byte offset of
 * the offending field so tooling can point at the corruption.
 */
class TraceError : public std::runtime_error
{
  public:
    TraceError(const std::string &message, std::uint64_t byteOffset);

    /** Offset into the file of the field that failed validation. */
    std::uint64_t byteOffset() const { return byteOffset_; }

  private:
    std::uint64_t byteOffset_;
};

namespace ingest
{

// Hard caps that bound the decoder's memory use against hostile
// input. A header or record exceeding a cap is a decode error (never
// an allocation).

/** Largest accepted record payload, bytes. */
constexpr std::uint32_t kMaxRecordBytes = 512;
/** Highest accepted core count in a trace header. */
constexpr std::uint32_t kMaxCores = 64;

/** One decoded record: the micro-op and the core that executes it. */
struct TraceRecord
{
    MicroOp op;
    std::uint32_t core = 0;
};

/**
 * Pull-based streaming decoder over one trace file. Construction
 * opens the file and validates the header; next() decodes one record
 * at a time in O(kMaxRecordBytes) memory. rewind()
 * restarts the stream from the first record. Not thread-safe; use one
 * per consumer.
 */
class TraceDecoder
{
  public:
    /** @throws TraceError on open/header/format problems. */
    explicit TraceDecoder(const std::string &path);
    ~TraceDecoder();

    TraceDecoder(const TraceDecoder &) = delete;
    TraceDecoder &operator=(const TraceDecoder &) = delete;

    /**
     * Decode the next record into @p rec.
     * @return false at end of stream.
     * @throws TraceError on the first malformed record.
     */
    bool next(TraceRecord &rec);

    /** Restart from the first record. */
    void rewind();

    /** Core count declared by the (validated) header. */
    std::uint32_t numCores() const;

    const std::string &path() const;

  private:
    std::unique_ptr<class DecoderImpl> impl_;
};

/** Whole-file summary produced by scanTrace(). */
struct ScanSummary
{
    std::uint32_t numCores = 0;
    std::uint64_t records = 0;
    /** FNV-1a over the raw (compressed, if gzip) file bytes. */
    std::uint64_t contentHash = 0;
    /** Records per core, indexed by core id. */
    std::vector<std::uint64_t> perCoreRecords;
    /**
     * Per-core (base, size) span of the Load/Store addresses seen —
     * the cache-prewarm regions for trace-backed workloads. Size 0
     * means the core issued no memory operations.
     */
    std::vector<std::pair<Addr, std::uint64_t>> coreRegions;
};

/**
 * Validate a whole trace in one streaming pass — every record is
 * decoded exactly as a simulation would see it — and summarize it.
 * This is the pass the fuzzer drives and workload registration runs.
 * @throws TraceError on the first decode problem.
 */
ScanSummary scanTrace(const std::string &path);

/**
 * FNV-1a (64-bit, from a nonstandard offset basis) over a file's raw
 * bytes, for trace identity in campaign hashes.
 * @throws TraceError when the file is unreadable.
 */
std::uint64_t hashFileBytes(const std::string &path);

/** Whether this build can read gzip-compressed traces. */
bool haveGzip();

/**
 * Adapts one core's slice of a trace file to the TraceGenerator
 * interface. At end of file the stream loops back to the first
 * record, matching the synthetic generators' loop semantics. Throws
 * TraceError if a pass over the file yields no record for this core
 * (the stream would otherwise spin forever).
 */
class ExternalTraceReader : public TraceGenerator
{
  public:
    /**
     * @param name Workload name reported to stats/diagnostics.
     * @param path Trace file.
     * @param core Core id whose records this generator yields.
     * @param farRegions Prewarm regions (from ScanSummary), already
     *        filtered to nonzero sizes.
     * @param records Optional cumulative delivered-record counter.
     */
    ExternalTraceReader(
        std::string name, const std::string &path, std::uint32_t core,
        std::vector<std::pair<Addr, std::uint64_t>> farRegions = {},
        stats::Scalar *records = nullptr);

    void next(MicroOp &op) override;

    const std::string &name() const override { return name_; }

    std::vector<std::pair<Addr, std::uint64_t>>
    farRegions() const override
    {
        return far_;
    }

  private:
    std::string name_;
    std::uint32_t core_;
    TraceDecoder decoder_;
    std::vector<std::pair<Addr, std::uint64_t>> far_;
    stats::Scalar *records_;
    std::uint64_t matchedThisPass_ = 0;
};

} // namespace ingest
} // namespace critmem

#endif // CRITMEM_TRACE_INGEST_INGEST_HH

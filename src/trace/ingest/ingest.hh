/**
 * @file
 * Streaming, bounded-memory ingestion of external memory traces.
 *
 * Two on-disk formats are decoded into per-core MicroOp streams:
 *
 *  - "ctext": a ChampSim-style whitespace text format. The first line
 *    is the header `ctrace text 1 <numCores>`; every following line is
 *    `<core> <cls> <pc> <addr> [latency [dep1 [dep2 [mispredict]]]]`
 *    where cls is one of A M F G L S B (IntAlu, IntMul, FpAlu, FpMul,
 *    Load, Store, Branch) and pc/addr accept 0x-hex or decimal.
 *    `#` starts a comment; blank lines are skipped.
 *
 *  - "cbin": a length-prefixed binary format. An 8-byte header
 *    ("CTIB", u8 version = 1, u8 numCores, u16 reserved = 0) is
 *    followed by records of a u16 little-endian payload length
 *    (>= 24) and the payload: core u8, cls u8, latency u8, flags u8
 *    (bit 0 = mispredict), pc u64le, addr u64le, dep1 u16le,
 *    dep2 u16le. Payload bytes past 24 are ignored (forward compat).
 *
 * Either format may be gzip-compressed (transport, detected by the
 * 1f 8b file magic) when the build found zlib; see haveGzip().
 *
 * Trace files are untrusted input. The decoder never crashes, hangs,
 * or silently misparses: every failure is a TraceError carrying the
 * exact byte offset of the offending field (offsets into the
 * decompressed stream for gzip sources), memory use is bounded by the
 * IngestLimits caps regardless of file content, and a per-source
 * RecoveryPolicy decides whether damaged records abort the run, are
 * skipped against a budget, or truncate the stream.
 */

#ifndef CRITMEM_TRACE_INGEST_INGEST_HH
#define CRITMEM_TRACE_INGEST_INGEST_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
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

/** What to do when a trace record fails validation. */
enum class RecoveryPolicy : std::uint8_t
{
    Fail,       ///< throw TraceError on the first problem (default)
    SkipRecord, ///< drop damaged records, up to a budget
    Truncate,   ///< end the stream at the first problem
};

const char *toString(RecoveryPolicy policy);

/** Parse a policy name ("fail", "skip-record", "truncate"). */
bool findRecoveryPolicy(const std::string &name, RecoveryPolicy &out);

/**
 * On-disk trace format. Gzip is a transport, not a format: the file
 * magic selects it, and the decompressed stream is detected (or
 * forced) as text/binary independently.
 */
enum class TraceFormat : std::uint8_t
{
    Auto,   ///< detect from the (decompressed) magic bytes
    Text,   ///< "ctrace text 1 N" header
    Binary, ///< "CTIB" header
};

const char *toString(TraceFormat fmt);

/** Parse a format name ("auto", "text", "binary"). */
bool findTraceFormat(const std::string &name, TraceFormat &out);

/**
 * Hard caps that bound the decoder's memory use against hostile
 * input. A header or record exceeding a cap is a decode error (never
 * an allocation).
 */
struct IngestLimits
{
    /** Longest accepted text line, bytes (excluding the newline). */
    std::uint32_t maxLineBytes = 4096;
    /** Largest accepted binary record payload, bytes. */
    std::uint32_t maxRecordBytes = 512;
    /** Highest accepted core count in a trace header. */
    std::uint32_t maxCores = 64;

    /** Absolute bound on maxCores (per-core scan state is O(cores)). */
    static constexpr std::uint32_t kHardMaxCores = 1024;
    /** Absolute bound on the line/record caps. */
    static constexpr std::uint32_t kHardMaxBytes = 1u << 20;

    /** Append structured errors for out-of-range caps. */
    void validate(ConfigErrors &errors) const;
};

/** Everything configurable about one trace source. */
struct IngestOptions
{
    TraceFormat format = TraceFormat::Auto;
    RecoveryPolicy policy = RecoveryPolicy::Fail;
    /**
     * SkipRecord only: records that may be dropped per pass over the
     * file before the decoder gives up and throws.
     */
    std::uint64_t skipBudget = 64;
    IngestLimits limits;

    /** Append structured errors (delegates to limits). */
    void validate(ConfigErrors &errors) const;
};

/** Decoder counters for the current pass over the file. */
struct PassStats
{
    std::uint64_t records = 0; ///< records delivered
    std::uint64_t dropped = 0; ///< records skipped (SkipRecord)
    bool truncated = false;    ///< stream ended early (Truncate)
    std::uint64_t truncatedAtByte = 0; ///< where, when truncated
};

/** One decoded record: the micro-op and the core that executes it. */
struct TraceRecord
{
    MicroOp op;
    std::uint32_t core = 0;
};

/**
 * Pull-based streaming decoder over one trace file. Construction
 * opens the file and validates the header; next() decodes one record
 * at a time in O(maxLineBytes + maxRecordBytes) memory. rewind()
 * restarts the stream from the first record (resetting the per-pass
 * stats and skip budget). Not thread-safe; use one per consumer.
 */
class TraceDecoder
{
  public:
    /** @throws TraceError on open/header/format problems. */
    TraceDecoder(const std::string &path, const IngestOptions &opts);
    ~TraceDecoder();

    TraceDecoder(const TraceDecoder &) = delete;
    TraceDecoder &operator=(const TraceDecoder &) = delete;

    /**
     * Decode the next record into @p rec.
     * @return false at end of stream (including a Truncate cut).
     * @throws TraceError per the recovery policy.
     */
    bool next(TraceRecord &rec);

    /** Restart from the first record; resets the per-pass stats. */
    void rewind();

    /** Core count declared by the (validated) header. */
    std::uint32_t numCores() const;

    /** The detected (never Auto) format of this file. */
    TraceFormat format() const;

    const PassStats &passStats() const;

    const std::string &path() const;

    /**
     * Optional cumulative counter bumped once per dropped record
     * (survives rewind, unlike passStats().dropped).
     */
    void setDropCounter(stats::Scalar *dropped);

  private:
    std::unique_ptr<class DecoderImpl> impl_;
};

/** Whole-file summary produced by scanTrace(). */
struct ScanSummary
{
    TraceFormat format = TraceFormat::Text; ///< detected format
    std::uint32_t numCores = 0;
    std::uint64_t records = 0; ///< records accepted
    std::uint64_t dropped = 0; ///< records skipped by the policy
    bool truncated = false;
    std::uint64_t truncatedAtByte = 0;
    /** FNV-1a over the raw (compressed, if gzip) file bytes. */
    std::uint64_t contentHash = 0;
    /** Accepted records per core, indexed by core id. */
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
 * decoded under @p opts exactly as a simulation would see it — and
 * summarize it. This is the pass the fuzzer drives and workload
 * registration runs.
 * @throws TraceError per the recovery policy.
 */
ScanSummary scanTrace(const std::string &path,
                      const IngestOptions &opts);

/**
 * FNV-1a (64-bit) over a file's raw bytes, for trace identity in
 * campaign hashes. @throws TraceError when the file is unreadable.
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
     * @param opts Decode options (validated by the caller).
     * @param core Core id whose records this generator yields.
     * @param farRegions Prewarm regions (from ScanSummary), already
     *        filtered to nonzero sizes.
     * @param records Optional cumulative delivered-record counter.
     * @param dropped Optional cumulative dropped-record counter.
     */
    ExternalTraceReader(
        std::string name, const std::string &path,
        const IngestOptions &opts, std::uint32_t core,
        std::vector<std::pair<Addr, std::uint64_t>> farRegions = {},
        stats::Scalar *records = nullptr,
        stats::Scalar *dropped = nullptr);

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

#include "trace/ingest/ingest.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>

#ifdef CRITMEM_HAVE_ZLIB
#include <zlib.h>
#endif

#include "sim/fnv.hh"

namespace critmem
{

TraceError::TraceError(const std::string &message,
                       std::uint64_t byteOffset)
    : std::runtime_error(message + " (byte offset " +
                         std::to_string(byteOffset) + ")"),
      byteOffset_(byteOffset)
{
}

namespace ingest
{

namespace
{

constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kPayloadMin = 24;

// ------------------------------------------------------------- sources

/** Raw decoded byte stream (plain file, or the gzip transport). */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /** Up to @p n bytes into @p buf; 0 = EOF. Throws TraceError. */
    virtual std::size_t read(std::uint8_t *buf, std::size_t n) = 0;

    virtual void rewind() = 0;
};

class FileSource : public ByteSource
{
  public:
    explicit FileSource(const std::string &path)
        : path_(path), file_(std::fopen(path.c_str(), "rb"))
    {
        if (!file_) {
            throw TraceError("cannot open trace file '" + path + "'",
                             0);
        }
    }

    ~FileSource() override { std::fclose(file_); }

    std::size_t
    read(std::uint8_t *buf, std::size_t n) override
    {
        const std::size_t got = std::fread(buf, 1, n, file_);
        consumed_ += got;
        if (got < n && std::ferror(file_)) {
            throw TraceError("I/O error reading trace '" + path_ +
                                 "'",
                             consumed_);
        }
        return got;
    }

    void
    rewind() override
    {
        std::rewind(file_);
        consumed_ = 0;
    }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t consumed_ = 0;
};

#ifdef CRITMEM_HAVE_ZLIB

/**
 * Streaming gzip inflater. Error offsets from this layer are into the
 * compressed file (the decoder's offsets are into the decompressed
 * stream); the messages say which. Concatenated gzip members are
 * accepted, matching `gzip -c a b > c`.
 */
class GzipSource : public ByteSource
{
  public:
    explicit GzipSource(const std::string &path)
        : path_(path), file_(std::fopen(path.c_str(), "rb"))
    {
        if (!file_) {
            throw TraceError("cannot open trace file '" + path + "'",
                             0);
        }
        if (!initStream()) {
            std::fclose(file_);
            throw TraceError("zlib inflateInit failed for '" + path +
                                 "'",
                             0);
        }
    }

    ~GzipSource() override
    {
        inflateEnd(&strm_);
        std::fclose(file_);
    }

    std::size_t
    read(std::uint8_t *buf, std::size_t n) override
    {
        if (done_)
            return 0;
        strm_.next_out = buf;
        strm_.avail_out = static_cast<uInt>(n);
        while (strm_.avail_out > 0 && !done_) {
            const uInt inBefore = strm_.avail_in;
            const uInt outBefore = strm_.avail_out;
            const bool couldRefill = strm_.avail_in == 0 && !fileEof_;
            if (couldRefill)
                refill();
            if (memberEnd_) {
                if (strm_.avail_in == 0 && fileEof_) {
                    done_ = true;
                    break;
                }
                // Trailing compressed bytes: a concatenated member.
                if (inflateReset(&strm_) != Z_OK) {
                    throw TraceError("zlib inflateReset failed for '" +
                                         path_ + "'",
                                     consumed());
                }
                memberEnd_ = false;
                continue;
            }
            if (strm_.avail_in == 0 && fileEof_) {
                throw TraceError("gzip stream in '" + path_ +
                                     "' ends mid-member (truncated "
                                     "at compressed byte " +
                                     std::to_string(fed_) + ")",
                                 fed_);
            }
            const int rc = inflate(&strm_, Z_NO_FLUSH);
            if (rc == Z_STREAM_END) {
                memberEnd_ = true;
                continue;
            }
            if (rc != Z_OK && rc != Z_BUF_ERROR) {
                const char *what =
                    strm_.msg ? strm_.msg : "corrupt deflate data";
                throw TraceError("gzip error in '" + path_ + "': " +
                                     what + " (at compressed byte " +
                                     std::to_string(consumed()) + ")",
                                 consumed());
            }
            // A full pass with no refill and no progress would loop
            // forever on degenerate input; treat it as corruption.
            if (!couldRefill && strm_.avail_in == inBefore &&
                strm_.avail_out == outBefore) {
                throw TraceError("gzip stream in '" + path_ +
                                     "' makes no progress "
                                     "(at compressed byte " +
                                     std::to_string(consumed()) + ")",
                                 consumed());
            }
        }
        return n - strm_.avail_out;
    }

    void
    rewind() override
    {
        std::rewind(file_);
        inflateEnd(&strm_);
        if (!initStream()) {
            throw TraceError("zlib inflateInit failed for '" + path_ +
                                 "'",
                             0);
        }
        fed_ = 0;
        fileEof_ = false;
        memberEnd_ = false;
        done_ = false;
    }

  private:
    bool
    initStream()
    {
        std::memset(&strm_, 0, sizeof(strm_));
        // 16 + MAX_WBITS: gzip wrapper with the full 32 KiB window.
        return inflateInit2(&strm_, 16 + MAX_WBITS) == Z_OK;
    }

    void
    refill()
    {
        const std::size_t got =
            std::fread(inBuf_.data(), 1, inBuf_.size(), file_);
        if (got < inBuf_.size()) {
            if (std::ferror(file_)) {
                throw TraceError("I/O error reading trace '" + path_ +
                                     "'",
                                 fed_ + got);
            }
            fileEof_ = true;
        }
        strm_.next_in = inBuf_.data();
        strm_.avail_in = static_cast<uInt>(got);
        fed_ += got;
    }

    /** Compressed bytes fully consumed by the inflater. */
    std::uint64_t consumed() const { return fed_ - strm_.avail_in; }

    std::string path_;
    std::FILE *file_ = nullptr;
    z_stream strm_{};
    std::array<std::uint8_t, 16 * 1024> inBuf_{};
    std::uint64_t fed_ = 0;
    bool fileEof_ = false;
    bool memberEnd_ = false;
    bool done_ = false;
};

#endif // CRITMEM_HAVE_ZLIB

std::unique_ptr<ByteSource>
openSource(const std::string &path)
{
    // Route the gzip transport on the raw file magic; everything
    // downstream sees the decoded stream.
    std::uint8_t magic[2] = {0, 0};
    {
        std::FILE *probe = std::fopen(path.c_str(), "rb");
        if (!probe) {
            throw TraceError("cannot open trace file '" + path + "'",
                             0);
        }
        const std::size_t got = std::fread(magic, 1, 2, probe);
        std::fclose(probe);
        if (got < 2)
            magic[0] = magic[1] = 0; // too short; header parser reports
    }
    if (magic[0] == 0x1f && magic[1] == 0x8b) {
#ifdef CRITMEM_HAVE_ZLIB
        return std::make_unique<GzipSource>(path);
#else
        throw TraceError("'" + path +
                             "' is gzip-compressed but this build "
                             "has no zlib; decompress it first",
                         0);
#endif
    }
    return std::make_unique<FileSource>(path);
}

// --------------------------------------------------- buffered input

/** Buffered reader tracking the decoded-stream byte offset. */
class Input
{
  public:
    explicit Input(std::unique_ptr<ByteSource> src)
        : src_(std::move(src))
    {
    }

    /** Read up to @p n bytes; returns the count actually read. */
    std::size_t
    read(std::uint8_t *out, std::size_t n)
    {
        std::size_t done = 0;
        while (done < n) {
            if (pos_ == len_ && !fill())
                break;
            const std::size_t take =
                std::min(n - done, len_ - pos_);
            std::memcpy(out + done, buf_.data() + pos_, take);
            pos_ += take;
            done += take;
        }
        offset_ += done;
        return done;
    }

    /** Offset of the next unread byte in the decoded stream. */
    std::uint64_t offset() const { return offset_; }

    void
    rewind()
    {
        src_->rewind();
        pos_ = len_ = 0;
        offset_ = 0;
    }

  private:
    bool
    fill()
    {
        pos_ = 0;
        len_ = src_->read(buf_.data(), buf_.size());
        return len_ > 0;
    }

    std::unique_ptr<ByteSource> src_;
    std::array<std::uint8_t, 64 * 1024> buf_{};
    std::size_t pos_ = 0;
    std::size_t len_ = 0;
    std::uint64_t offset_ = 0;
};

} // namespace

// ----------------------------------------------------------- decoder

class DecoderImpl
{
  public:
    explicit DecoderImpl(const std::string &path)
        : path_(path), input_(openSource(path))
    {
        parseHeader();
    }

    void
    rewind()
    {
        input_.rewind();
        parseHeader();
    }

    /** Next record into @p rec; false at end of stream. */
    bool
    next(TraceRecord &rec)
    {
        const std::uint64_t recStart = input_.offset();
        std::uint8_t lenBuf[2] = {};
        std::size_t got = input_.read(lenBuf, 2);
        if (got == 0)
            return false;
        if (got == 1) {
            throw TraceError("record length prefix at byte " +
                                 std::to_string(recStart) +
                                 " is torn by end of file",
                             input_.offset());
        }
        const std::uint16_t len = static_cast<std::uint16_t>(
            lenBuf[0] | (lenBuf[1] << 8));
        if (len < kPayloadMin) {
            throw TraceError("record at byte " +
                                 std::to_string(recStart) +
                                 " declares a " + std::to_string(len) +
                                 "-byte payload (min 24)",
                             recStart);
        }
        if (len > kMaxRecordBytes) {
            throw TraceError("record at byte " +
                                 std::to_string(recStart) +
                                 " declares a " + std::to_string(len) +
                                 "-byte payload (cap " +
                                 std::to_string(kMaxRecordBytes) + ")",
                             recStart);
        }
        payload_.resize(len);
        got = input_.read(payload_.data(), len);
        if (got < len) {
            throw TraceError("record at byte " +
                                 std::to_string(recStart) +
                                 " is torn by end of file",
                             recStart + 2 + got);
        }

        // Payload layout: core, cls, latency, flags, pc, addr, deps.
        if (payload_[0] >= numCores_) {
            throw TraceError("core id " + std::to_string(payload_[0]) +
                                 " out of range (trace declares " +
                                 std::to_string(numCores_) +
                                 " cores)",
                             recStart + 2);
        }
        if (payload_[1] > static_cast<std::uint8_t>(OpClass::Branch)) {
            throw TraceError("invalid op class " +
                                 std::to_string(payload_[1]),
                             recStart + 3);
        }
        if (payload_[2] == 0)
            throw TraceError("latency 0 is not in 1..255", recStart + 4);
        if ((payload_[3] & ~std::uint8_t{1}) != 0) {
            throw TraceError("flags byte " +
                                 std::to_string(payload_[3]) +
                                 " has reserved bits set",
                             recStart + 5);
        }

        rec.core = payload_[0];
        rec.op = MicroOp{};
        rec.op.cls = static_cast<OpClass>(payload_[1]);
        rec.op.latency = payload_[2];
        rec.op.mispredict = (payload_[3] & 1) != 0;
        std::memcpy(&rec.op.pc, payload_.data() + 4, 8);
        std::memcpy(&rec.op.addr, payload_.data() + 12, 8);
        std::memcpy(&rec.op.dep1, payload_.data() + 20, 2);
        std::memcpy(&rec.op.dep2, payload_.data() + 22, 2);
        // Payload bytes past 24 are a forward-compat extension area.
        return true;
    }

    std::string path_;
    std::uint32_t numCores_ = 0;

  private:
    void
    parseHeader()
    {
        std::uint8_t hdr[kHeaderBytes] = {};
        const std::size_t got = input_.read(hdr, kHeaderBytes);
        // The magic is checked first, byte by byte, so that any file
        // that is not CTIB (text, a retired format, random bytes)
        // fails at its first foreign byte even when it is short.
        static const char magic[4] = {'C', 'T', 'I', 'B'};
        for (std::size_t i = 0; i < std::min<std::size_t>(got, 4); ++i) {
            if (hdr[i] != static_cast<std::uint8_t>(magic[i])) {
                throw TraceError("'" + path_ +
                                     "' is not a CTIB trace (bad magic)",
                                 i);
            }
        }
        if (got < kHeaderBytes) {
            throw TraceError("trace '" + path_ +
                                 "' is shorter than its 8-byte header",
                             got);
        }
        if (hdr[4] != 1) {
            throw TraceError("trace '" + path_ +
                                 "' has unsupported version " +
                                 std::to_string(hdr[4]),
                             4);
        }
        if (hdr[5] == 0) {
            throw TraceError("trace '" + path_ + "' declares zero cores",
                             5);
        }
        if (hdr[5] > kMaxCores) {
            throw TraceError("trace '" + path_ + "' declares " +
                                 std::to_string(hdr[5]) +
                                 " cores (cap " +
                                 std::to_string(kMaxCores) + ")",
                             5);
        }
        if (hdr[6] != 0 || hdr[7] != 0) {
            throw TraceError("trace '" + path_ +
                                 "' has nonzero reserved header bytes",
                             hdr[6] != 0 ? 6u : 7u);
        }
        numCores_ = hdr[5];
    }

    Input input_;
    std::vector<std::uint8_t> payload_;
};

// --------------------------------------------------------- wrappers

TraceDecoder::TraceDecoder(const std::string &path)
    : impl_(std::make_unique<DecoderImpl>(path))
{
}

TraceDecoder::~TraceDecoder() = default;

bool
TraceDecoder::next(TraceRecord &rec)
{
    return impl_->next(rec);
}

void
TraceDecoder::rewind()
{
    impl_->rewind();
}

std::uint32_t
TraceDecoder::numCores() const
{
    return impl_->numCores_;
}

const std::string &
TraceDecoder::path() const
{
    return impl_->path_;
}

bool
haveGzip()
{
#ifdef CRITMEM_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

// -------------------------------------------------------------- scan

std::uint64_t
hashFileBytes(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        throw TraceError("cannot open trace file '" + path + "'", 0);
    // FNV-1a from a nonstandard basis: the standard one with its last
    // decimal digit dropped. Kept, because every trace content hash
    // already folded into a campaign manifest depends on it.
    Fnv1a fnv{1469598103934665603ull};
    std::array<std::uint8_t, 64 * 1024> buf;
    std::uint64_t consumed = 0;
    std::size_t got = 0;
    while ((got = std::fread(buf.data(), 1, buf.size(), file)) > 0) {
        fnv.bytes(buf.data(), got);
        consumed += got;
    }
    const bool bad = std::ferror(file) != 0;
    std::fclose(file);
    if (bad) {
        throw TraceError("I/O error hashing trace '" + path + "'",
                         consumed);
    }
    return fnv.hash;
}

ScanSummary
scanTrace(const std::string &path)
{
    TraceDecoder dec(path);
    ScanSummary sum;
    sum.numCores = dec.numCores();
    sum.perCoreRecords.assign(sum.numCores, 0);
    std::vector<Addr> lo(sum.numCores, kNoAddr);
    std::vector<Addr> hi(sum.numCores, 0);
    TraceRecord rec;
    while (dec.next(rec)) {
        ++sum.records;
        ++sum.perCoreRecords[rec.core];
        if (rec.op.cls == OpClass::Load ||
            rec.op.cls == OpClass::Store) {
            lo[rec.core] = std::min(lo[rec.core], rec.op.addr);
            hi[rec.core] = std::max(hi[rec.core], rec.op.addr);
        }
    }
    sum.coreRegions.resize(sum.numCores, {0, 0});
    for (std::uint32_t c = 0; c < sum.numCores; ++c) {
        if (lo[c] == kNoAddr)
            continue; // no memory ops on this core
        const std::uint64_t span = hi[c] - lo[c];
        const std::uint64_t most =
            std::numeric_limits<std::uint64_t>::max() - 64;
        sum.coreRegions[c] = {lo[c],
                              span > most ? span : span + 64};
    }
    sum.contentHash = hashFileBytes(path);
    return sum;
}

// ------------------------------------------------------------ reader

ExternalTraceReader::ExternalTraceReader(
    std::string name, const std::string &path, std::uint32_t core,
    std::vector<std::pair<Addr, std::uint64_t>> farRegions,
    stats::Scalar *records)
    : name_(std::move(name)), core_(core), decoder_(path),
      far_(std::move(farRegions)), records_(records)
{
    if (core_ >= decoder_.numCores()) {
        throw TraceError("core " + std::to_string(core_) +
                             " out of range for trace '" + path +
                             "' (declares " +
                             std::to_string(decoder_.numCores()) +
                             " cores)",
                         0);
    }
}

void
ExternalTraceReader::next(MicroOp &op)
{
    TraceRecord rec;
    for (;;) {
        if (!decoder_.next(rec)) {
            if (matchedThisPass_ == 0) {
                throw TraceError(
                    "trace '" + decoder_.path() +
                        "' yields no records for core " +
                        std::to_string(core_) +
                        "; the stream cannot loop",
                    0);
            }
            matchedThisPass_ = 0;
            decoder_.rewind();
            continue;
        }
        if (rec.core != core_)
            continue;
        ++matchedThisPass_;
        if (records_)
            ++*records_;
        op = rec.op;
        return;
    }
}

} // namespace ingest
} // namespace critmem

/**
 * @file
 * Tests for the external-trace ingestion frontend (src/trace/ingest):
 * byte-offset accuracy of every TraceError class in the CTIB format,
 * the resource caps, gzip transport, the loop-replay
 * TraceGenerator adapter, the trace-workload registry, and the
 * execution-engine integration (sweep specs, job execution, campaign
 * hashing).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#ifdef CRITMEM_HAVE_ZLIB
#include <zlib.h>
#endif

#include "exec/campaign.hh"
#include "exec/job.hh"
#include "exec/sweep.hh"
#include "sim/stats.hh"
#include "system/experiment.hh"
#include "trace/ingest/ingest.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

class IngestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Per-process dir: ctest -jN runs each test in its own
        // process, and a shared path would race TearDown's
        // remove_all against a sibling's file creation.
        dir_ = std::filesystem::temp_directory_path() /
            ("critmem_ingest_test." + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        clearTraceWorkloads();
    }

    void
    TearDown() override
    {
        clearTraceWorkloads();
        std::filesystem::remove_all(dir_);
    }

    /** Write @p bytes as file @p name under the test dir. */
    std::string
    spill(const std::string &name, const std::string &bytes)
    {
        const std::string path = (dir_ / name).string();
        std::FILE *f = std::fopen(path.c_str(), "wb");
        EXPECT_NE(f, nullptr);
        if (!bytes.empty()) {
            EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
        return path;
    }

    /** Decode @p path and return the TraceError it must throw. */
    TraceError
    mustThrow(const std::string &path)
    {
        try {
            ingest::TraceDecoder decoder(path);
            ingest::TraceRecord rec;
            while (decoder.next(rec)) {
            }
        } catch (const TraceError &err) {
            return err;
        }
        ADD_FAILURE() << "decoder accepted " << path;
        return TraceError("unreachable", 0);
    }

    std::filesystem::path dir_;
};

/** A minimal valid binary record for core @p core. */
std::string
binRecord(std::uint8_t core, std::uint8_t cls, std::uint64_t pc,
          std::uint64_t addr, std::uint8_t latency = 1,
          std::uint16_t len = 24)
{
    std::string out;
    out.push_back(static_cast<char>(len & 0xff));
    out.push_back(static_cast<char>(len >> 8));
    out.push_back(static_cast<char>(core));
    out.push_back(static_cast<char>(cls));
    out.push_back(static_cast<char>(latency));
    out.push_back(0); // flags
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((pc >> (8 * i)) & 0xff));
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((addr >> (8 * i)) & 0xff));
    out.append(4, '\0'); // dep1, dep2
    for (std::uint16_t i = 24; i < len; ++i)
        out.push_back('\x5a'); // extension bytes, must be ignored
    return out;
}

/** The 8-byte binary header declaring @p cores cores. */
std::string
binHeader(std::uint8_t cores)
{
    std::string out = "CTIB";
    out.push_back(1);
    out.push_back(static_cast<char>(cores));
    out.push_back(0);
    out.push_back(0);
    return out;
}

// ---------------------------------------------------------------
// CTIB format
// ---------------------------------------------------------------

TEST_F(IngestTest, BinaryRoundTrip)
{
    std::string bytes = binHeader(2);
    bytes += binRecord(0, 4, 0x400, 0x10040, 3);
    bytes += binRecord(1, 6, 0x404, 0, 1, 30); // extended record
    const std::string path = spill("round.cbin", bytes);

    ingest::TraceDecoder decoder(path);
    EXPECT_EQ(decoder.numCores(), 2u);

    ingest::TraceRecord rec;
    ASSERT_TRUE(decoder.next(rec));
    EXPECT_EQ(rec.core, 0u);
    EXPECT_EQ(rec.op.cls, OpClass::Load);
    EXPECT_EQ(rec.op.pc, 0x400u);
    EXPECT_EQ(rec.op.addr, 0x10040u);
    EXPECT_EQ(rec.op.latency, 3);
    ASSERT_TRUE(decoder.next(rec));
    EXPECT_EQ(rec.core, 1u);
    EXPECT_EQ(rec.op.cls, OpClass::Branch);
    EXPECT_FALSE(decoder.next(rec));
}

TEST_F(IngestTest, BinaryRoundTripEveryField)
{
    // Every payload field survives decoding: full 64-bit pc and addr
    // (little-endian), both 16-bit dependency distances and the
    // mispredict flag.
    std::string load = binRecord(0, 4, 0xfedcba9876543210ull,
                                 0x0123456789abcdefull, 200);
    load[2 + 20] = 2; // dep1 = 0x0102
    load[2 + 21] = 1;
    load[2 + 22] = static_cast<char>(0xff); // dep2 = 0xffff
    load[2 + 23] = static_cast<char>(0xff);
    std::string branch = binRecord(1, 6, 0x404, 0);
    branch[2 + 3] = 1; // mispredict
    const std::string path = spill(
        "fields.cbin", binHeader(2) + load + branch +
                           binRecord(1, 5, 0x408, 66624));

    ingest::TraceDecoder decoder(path);
    EXPECT_EQ(decoder.numCores(), 2u);
    std::vector<ingest::TraceRecord> first;
    ingest::TraceRecord rec;
    while (decoder.next(rec))
        first.push_back(rec);
    ASSERT_EQ(first.size(), 3u);

    EXPECT_EQ(first[0].core, 0u);
    EXPECT_EQ(first[0].op.cls, OpClass::Load);
    EXPECT_EQ(first[0].op.pc, 0xfedcba9876543210ull);
    EXPECT_EQ(first[0].op.addr, 0x0123456789abcdefull);
    EXPECT_EQ(first[0].op.latency, 200);
    EXPECT_EQ(first[0].op.dep1, 0x0102);
    EXPECT_EQ(first[0].op.dep2, 0xffff);
    EXPECT_FALSE(first[0].op.mispredict);
    EXPECT_EQ(first[1].core, 1u);
    EXPECT_EQ(first[1].op.cls, OpClass::Branch);
    EXPECT_TRUE(first[1].op.mispredict);
    EXPECT_EQ(first[2].op.cls, OpClass::Store);
    EXPECT_EQ(first[2].op.addr, 66624u);

    // rewind() replays the stream identically.
    decoder.rewind();
    for (const ingest::TraceRecord &want : first) {
        ASSERT_TRUE(decoder.next(rec));
        EXPECT_EQ(rec.core, want.core);
        EXPECT_EQ(rec.op.cls, want.op.cls);
        EXPECT_EQ(rec.op.pc, want.op.pc);
        EXPECT_EQ(rec.op.addr, want.op.addr);
        EXPECT_EQ(rec.op.latency, want.op.latency);
        EXPECT_EQ(rec.op.dep1, want.op.dep1);
        EXPECT_EQ(rec.op.dep2, want.op.dep2);
        EXPECT_EQ(rec.op.mispredict, want.op.mispredict);
    }
    EXPECT_FALSE(decoder.next(rec));
}

TEST_F(IngestTest, BinaryTruncatedHeaderGoldens)
{
    // A header cut after any of its first seven bytes fails where the
    // file ends: 0 for an empty file, 5 for one cut mid core count.
    const std::string full = binHeader(2);
    for (std::size_t len = 0; len < full.size(); ++len) {
        const TraceError err =
            mustThrow(spill("cut.cbin", full.substr(0, len)));
        EXPECT_EQ(err.byteOffset(), len) << "header cut at " << len;
    }
    // The whole header with no record is a valid, empty trace.
    EXPECT_EQ(ingest::scanTrace(spill("empty.cbin", full)).records, 0u);
}

TEST_F(IngestTest, BinaryHeaderGoldens)
{
    // Magic wrong at its third byte: reported at that byte.
    std::string bad = binHeader(2);
    bad[2] = 'X';
    EXPECT_EQ(mustThrow(spill("b.cbin", bad)).byteOffset(), 2u);
    // A file rewritten under an open decoder has its header checked
    // again on rewind, at the exact byte.
    {
        const std::string path = spill(
            "b2.cbin", binHeader(2) + binRecord(0, 4, 0x400, 0x10040));
        ingest::TraceDecoder decoder(path);
        spill("b2.cbin", bad);
        try {
            decoder.rewind();
            ADD_FAILURE() << "rewind accepted a damaged header";
        } catch (const TraceError &err) {
            EXPECT_EQ(err.byteOffset(), 2u);
        }
    }
    // Unsupported version.
    bad = binHeader(2);
    bad[4] = 9;
    EXPECT_EQ(mustThrow(spill("c.cbin", bad)).byteOffset(), 4u);
    // Zero cores.
    EXPECT_EQ(mustThrow(spill("d.cbin", binHeader(0))).byteOffset(),
              5u);
    // One core over the cap; the cap itself is accepted.
    const TraceError over =
        mustThrow(spill("e.cbin", binHeader(ingest::kMaxCores + 1)));
    EXPECT_EQ(over.byteOffset(), 5u);
    EXPECT_NE(std::string(over.what()).find("cap"), std::string::npos);
    ingest::TraceDecoder atCap(spill("g.cbin", binHeader(ingest::kMaxCores)));
    EXPECT_EQ(atCap.numCores(), ingest::kMaxCores);
    // Reserved header bytes must be zero.
    bad = binHeader(2);
    bad[7] = 1;
    EXPECT_EQ(mustThrow(spill("f.cbin", bad)).byteOffset(), 7u);
}

TEST_F(IngestTest, BinaryTornFinalRecordOffset)
{
    // One full record (8..33), then a second whose 24-byte payload is
    // cut after 10 bytes: the tear is at 34 + 2 + 10 = 46.
    std::string bytes = binHeader(2);
    bytes += binRecord(0, 4, 0x400, 0x10040);
    const std::string second = binRecord(1, 5, 0x404, 0x10080);
    bytes += second.substr(0, 12);
    const TraceError err = mustThrow(spill("torn.cbin", bytes));
    EXPECT_EQ(err.byteOffset(), 46u);
    EXPECT_NE(std::string(err.what()).find("torn"),
              std::string::npos);

    // A lone length-prefix byte at the very end: structural, at the
    // offset where the file ends.
    bytes = binHeader(2);
    bytes += binRecord(0, 4, 0x400, 0x10040);
    bytes += '\x18';
    EXPECT_EQ(mustThrow(spill("torn2.cbin", bytes)).byteOffset(),
              35u);
}

TEST_F(IngestTest, BinaryMidFileCorruptionOffset)
{
    // Second record (at byte 34) carries op class 9: content error
    // at 34 + 3 = 37.
    std::string bytes = binHeader(2);
    bytes += binRecord(0, 4, 0x400, 0x10040);
    bytes += binRecord(1, 9, 0x404, 0x10080);
    bytes += binRecord(0, 5, 0x408, 0x100c0);
    EXPECT_EQ(mustThrow(spill("mid.cbin", bytes)).byteOffset(), 37u);
}

TEST_F(IngestTest, BinaryFieldValidationOffsets)
{
    // Each payload check points at its own byte of the second record
    // (at byte 34): core at +2, op class at +3, latency at +4, flags
    // at +5.
    struct Case
    {
        std::size_t field; // payload byte to overwrite
        char value;
        std::uint64_t off;
        const char *what;
    };
    const std::vector<Case> cases = {
        {0, 2, 36, "out of range"},   // core 2 of a 2-core trace
        {1, 7, 37, "op class"},       // one past Branch
        {2, 0, 38, "latency 0"},
        {3, 2, 39, "reserved bits"},  // flag bit 1
    };
    for (const Case &c : cases) {
        std::string bytes = binHeader(2);
        bytes += binRecord(0, 4, 0x400, 0x10040);
        bytes += binRecord(1, 5, 0x404, 0x10080);
        bytes[34 + 2 + c.field] = c.value;
        const TraceError err = mustThrow(spill("field.cbin", bytes));
        EXPECT_EQ(err.byteOffset(), c.off) << c.what;
        EXPECT_NE(std::string(err.what()).find(c.what), std::string::npos)
            << err.what();
    }
}

TEST_F(IngestTest, BinaryLengthCapsAreStructural)
{
    // Payload length below the 24-byte minimum.
    std::string bytes = binHeader(2);
    bytes += binRecord(0, 4, 0x400, 0x10040);
    bytes += binRecord(1, 4, 0x404, 0x10080, 1, 30);
    bytes[8 + 26] = 10; // rewrite the second record's length to 10
    bytes[8 + 27] = 0;
    EXPECT_EQ(mustThrow(spill("len.cbin", bytes)).byteOffset(), 34u);

    // A payload exactly at the cap decodes; one byte over fails at
    // the record's length prefix.
    bytes = binHeader(2);
    bytes += binRecord(0, 4, 0x400, 0x10040);
    bytes += binRecord(1, 4, 0x404, 0x10080, 1, ingest::kMaxRecordBytes);
    EXPECT_EQ(ingest::scanTrace(spill("cap.cbin", bytes)).records, 2u);
    bytes += binRecord(0, 4, 0x408, 0x100c0, 1,
                       ingest::kMaxRecordBytes + 1);
    const std::uint64_t over = 8 + 26 + 2 + ingest::kMaxRecordBytes;
    EXPECT_EQ(mustThrow(spill("big.cbin", bytes)).byteOffset(), over);
}

TEST_F(IngestTest, NonCtibInputFailsAtOffsetZero)
{
    // Anything that does not start with the CTIB magic fails at its
    // first byte: an empty file, a text trace, the retired
    // record/replay magic, random bytes.
    std::string retired;
    const std::uint32_t magic = 0x43544d54;
    retired.resize(4);
    std::memcpy(retired.data(), &magic, 4);
    retired += std::string(12, '\0');
    const std::vector<std::string> inputs = {
        "",
        "0 L 0x10 0x20\n1 S 0x14 0x40\n", // text records
        "hello world\n",
        retired,
        std::string("\x9b\x01\xff\x00\x42\x17\x00\x00", 8),
    };
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const TraceError err = mustThrow(spill("x.trace", inputs[i]));
        EXPECT_EQ(err.byteOffset(), 0u) << "input " << i;
    }
    // A short file that starts like CTIB fails where its bytes end.
    EXPECT_EQ(mustThrow(spill("y.trace", "CTI")).byteOffset(), 3u);
}

// ---------------------------------------------------------------
// Gzip transport
// ---------------------------------------------------------------

#ifdef CRITMEM_HAVE_ZLIB
std::string
gzipCompress(const std::string &raw)
{
    z_stream strm{};
    EXPECT_EQ(deflateInit2(&strm, Z_BEST_COMPRESSION, Z_DEFLATED,
                           16 + MAX_WBITS, 8, Z_DEFAULT_STRATEGY),
              Z_OK);
    std::string out;
    out.resize(deflateBound(&strm, raw.size()));
    strm.next_in =
        reinterpret_cast<Bytef *>(const_cast<char *>(raw.data()));
    strm.avail_in = static_cast<uInt>(raw.size());
    strm.next_out = reinterpret_cast<Bytef *>(out.data());
    strm.avail_out = static_cast<uInt>(out.size());
    EXPECT_EQ(deflate(&strm, Z_FINISH), Z_STREAM_END);
    out.resize(out.size() - strm.avail_out);
    deflateEnd(&strm);
    return out;
}

TEST_F(IngestTest, GzipRoundTrip)
{
    EXPECT_TRUE(ingest::haveGzip());
    const std::string raw = binHeader(2) +
        binRecord(0, 4, 0x400, 0x10040) +
        binRecord(1, 5, 0x404, 0x20040) + binRecord(0, 0, 0x408, 0);
    const std::string rawPath = spill("plain.cbin", raw);
    const std::string gzPath =
        spill("plain.cbin.gz", gzipCompress(raw));

    const ingest::ScanSummary a = ingest::scanTrace(rawPath);
    const ingest::ScanSummary b = ingest::scanTrace(gzPath);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.numCores, b.numCores);
    EXPECT_EQ(a.perCoreRecords, b.perCoreRecords);
    EXPECT_EQ(a.coreRegions, b.coreRegions);
    // Identity covers the raw (compressed) bytes, so the two files
    // hash differently.
    EXPECT_NE(a.contentHash, b.contentHash);
}

TEST_F(IngestTest, GzipCorruptionIsTraceError)
{
    const std::string raw =
        binHeader(1) + binRecord(0, 4, 0x400, 0x10040);
    std::string gz = gzipCompress(raw);
    gz[gz.size() / 2] ^= 0x40; // damage the deflate stream
    const std::string path = spill("bad.cbin.gz", gz);
    EXPECT_THROW(ingest::scanTrace(path), TraceError);

    // Truncation of the compressed stream is also a TraceError, not
    // a silent short read.
    const std::string cut =
        spill("cut.cbin.gz",
              gzipCompress(raw).substr(0, gz.size() - 6));
    EXPECT_THROW(ingest::scanTrace(cut), TraceError);
}

TEST_F(IngestTest, GzipMidFileCorruptionOffset)
{
    // Offsets count decompressed bytes: the bad op class of the
    // second record sits at 34 + 3 = 37, as in the plain file.
    std::string raw = binHeader(2);
    raw += binRecord(0, 4, 0x400, 0x10040);
    raw += binRecord(1, 9, 0x404, 0x10080);
    raw += binRecord(0, 5, 0x408, 0x100c0);
    const TraceError err =
        mustThrow(spill("mid.cbin.gz", gzipCompress(raw)));
    EXPECT_EQ(err.byteOffset(), 37u);
    EXPECT_NE(std::string(err.what()).find("op class"),
              std::string::npos);
}

TEST_F(IngestTest, GzipTornFinalRecordOffset)
{
    // A well-formed gzip stream whose content ends mid record: the
    // tear is reported at its decompressed offset, 34 + 2 + 10 = 46.
    std::string raw = binHeader(2);
    raw += binRecord(0, 4, 0x400, 0x10040);
    raw += binRecord(1, 5, 0x404, 0x10080).substr(0, 12);
    const TraceError err =
        mustThrow(spill("torn.cbin.gz", gzipCompress(raw)));
    EXPECT_EQ(err.byteOffset(), 46u);
    EXPECT_NE(std::string(err.what()).find("torn"), std::string::npos);
}
#endif // CRITMEM_HAVE_ZLIB

// ---------------------------------------------------------------
// Loop-replay adapter and registry
// ---------------------------------------------------------------

TEST_F(IngestTest, ExternalTraceReaderLoops)
{
    const std::string path =
        spill("loop.cbin", binHeader(2) + binRecord(0, 4, 0x10, 0x40) +
                               binRecord(1, 5, 0x20, 0x80) +
                               binRecord(0, 0, 0x14, 0));
    ingest::ExternalTraceReader reader("loop", path, 0);
    MicroOp op;
    for (int pass = 0; pass < 3; ++pass) {
        reader.next(op);
        EXPECT_EQ(op.pc, 0x10u) << "pass " << pass;
        EXPECT_EQ(op.cls, OpClass::Load);
        reader.next(op);
        EXPECT_EQ(op.pc, 0x14u) << "pass " << pass;
        EXPECT_EQ(op.cls, OpClass::IntAlu);
    }
}

TEST_F(IngestTest, ExternalTraceReaderStarvedCoreThrows)
{
    const std::string path =
        spill("starve.cbin", binHeader(2) + binRecord(0, 4, 0x10, 0x40));
    ingest::ExternalTraceReader reader("starve", path, 1);
    MicroOp op;
    EXPECT_THROW(reader.next(op), TraceError);
}

TEST_F(IngestTest, RegistryValidatesAndRefreshes)
{
    const std::string twoRecords = binHeader(2) +
        binRecord(0, 4, 0x10, 0x40) + binRecord(1, 5, 0x20, 0x80);
    const std::string path = spill("reg.cbin", twoRecords);
    const TraceWorkload &wl =
        registerTraceWorkload("regt", path);
    EXPECT_EQ(wl.numCores, 2u);
    EXPECT_EQ(wl.records, 2u);
    EXPECT_NE(wl.contentHash, 0u);
    ASSERT_EQ(wl.coreRegions.size(), 2u);
    EXPECT_EQ(wl.coreRegions[0].first, 0x40u);
    EXPECT_NE(findTraceWorkload("regt"), nullptr);

    // Misuse: bad names, collisions with the built-in registries,
    // and renaming a path out from under a workload.
    EXPECT_THROW(registerTraceWorkload("", path),
                 std::runtime_error);
    EXPECT_THROW(registerTraceWorkload("has space", path),
                 std::runtime_error);
    EXPECT_THROW(registerTraceWorkload("a/b", path),
                 std::runtime_error);
    EXPECT_THROW(registerTraceWorkload("art", path),
                 std::runtime_error);
    const std::string other =
        spill("reg2.cbin", binHeader(1) + binRecord(0, 4, 0x10, 0x40));
    EXPECT_THROW(registerTraceWorkload("regt", other),
                 std::runtime_error);

    // Same name + same path refreshes (file may have changed).
    const std::uint64_t before = wl.contentHash;
    spill("reg.cbin", twoRecords + binRecord(1, 0, 0x24, 0));
    const TraceWorkload &fresh =
        registerTraceWorkload("regt", path);
    EXPECT_EQ(fresh.records, 3u);
    EXPECT_NE(fresh.contentHash, before);
    EXPECT_EQ(traceWorkloads().size(), 1u);
}

TEST_F(IngestTest, RegistryRejectsStarvedCores)
{
    const std::string path =
        spill("starved.cbin", binHeader(3) + binRecord(0, 4, 0x10, 0x40) +
                                  binRecord(1, 5, 0x20, 0x80));
    try {
        registerTraceWorkload("starved", path);
        FAIL() << "registered a trace with a record-less core";
    } catch (const TraceError &err) {
        EXPECT_NE(std::string(err.what()).find("core 2"),
                  std::string::npos);
    }
}

TEST_F(IngestTest, RegistryRejectsEmptyTraces)
{
    const std::string path = spill("empty.cbin", binHeader(1));
    EXPECT_THROW(registerTraceWorkload("empty", path),
                 TraceError);
}

// ---------------------------------------------------------------
// System / exec integration
// ---------------------------------------------------------------

/** A 2-core trace with enough memory traffic to exercise DRAM. */
std::string
twoCoreTrace()
{
    std::string out = binHeader(2);
    for (int i = 0; i < 64; ++i) {
        // Load, Store, IntAlu in turn.
        const std::uint8_t cls = i % 3 == 0 ? 4 : i % 3 == 1 ? 5 : 0;
        out += binRecord(static_cast<std::uint8_t>(i % 2), cls,
                         0x400 + i * 4,
                         0x100000 + (i % 2) * 0x40000 + i * 4096);
    }
    return out;
}

TEST_F(IngestTest, SystemFromTraceIsDeterministic)
{
    const std::string path = spill("sys.cbin", twoCoreTrace());
    const TraceWorkload &wl =
        registerTraceWorkload("syst", path);

    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.numCores = wl.numCores;
    ASSERT_TRUE(cfg.validate().empty());

    std::uint64_t cycles[2] = {};
    for (int run = 0; run < 2; ++run) {
        System sys(cfg, wl);
        const RunResult r = runSystem(sys, 2000, 500, true);
        cycles[run] = r.cycles;
        EXPECT_GT(r.cycles, 0u);
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST_F(IngestTest, SweepSpecParsesTraceLines)
{
    std::istringstream in(
        "mode = parallel\n"
        "workloads = tr1\n"
        "trace tr1 : path=/tmp/x.cbin\n"
        "variant base : sched=frfcfs\n");
    const exec::SweepSpec spec = exec::parseSweepSpec(in);
    ASSERT_EQ(spec.traces.size(), 1u);
    EXPECT_EQ(spec.traces[0].name, "tr1");
    EXPECT_EQ(spec.traces[0].path, "/tmp/x.cbin");

    // Malformed trace lines carry SweepError line info: the trace
    // line is line 2. The removed per-trace keys (format, policy,
    // skip-budget and the three caps) are unknown keys.
    const std::vector<std::string> bad = {
        "trace t :\n",                       // missing path
        "trace t : path=/x nope=1\n",        // unknown key
        "trace t : path=/x format=binary\n",
        "trace t : path=/x policy=fail\n",
        "trace t : policy=skip-record path=/x\n",
        "trace t : path=/x skip-budget=5\n",
        "trace t : path=/x max-line=8192\n",
        "trace t : path=/x max-record=1024\n",
        "trace t : path=/x max-cores=128\n",
        "trace a : path=/x\ntrace a : path=/y\n", // duplicate
    };
    for (const std::string &body : bad) {
        std::istringstream is("mode = parallel\n" + body +
                              "variant base : sched=frfcfs\n");
        try {
            exec::parseSweepSpec(is);
            ADD_FAILURE() << "accepted " << body;
        } catch (const exec::SweepError &err) {
            const std::size_t line =
                body.find("trace a") == 0 ? 3 : 2;
            EXPECT_EQ(err.lineNo(), line) << body;
        }
    }
}

TEST_F(IngestTest, SweepExpandsTraceJobs)
{
    const std::string path = spill("sweep.cbin", twoCoreTrace());

    exec::SweepSpec spec;
    spec.traces.push_back({"swt", path});
    spec.variants.push_back(
        {"base", {{"sched", "frfcfs"}, {"cores", "8"}}});
    // Empty workload list: every parallel app plus the trace.
    const std::vector<exec::JobSpec> all = spec.expand();
    bool sawTrace = false;
    for (const exec::JobSpec &job : all) {
        if (job.workload != "swt")
            continue;
        sawTrace = true;
        EXPECT_EQ(job.kind, exec::RunKind::Trace);
        // The trace dictates the core count over the cores= setting.
        EXPECT_EQ(job.cfg.numCores, 2u);
    }
    EXPECT_TRUE(sawTrace);

    // Explicit selection by trace name and job execution.
    spec.workloads = {"swt"};
    spec.quota = 500;
    const std::vector<exec::JobSpec> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    const RunResult r = exec::executeJob(jobs[0]);
    EXPECT_GT(r.cycles, 0u);

    // The repro command round-trips the trace registration.
    const std::string repro = exec::reproCommand(jobs[0]);
    EXPECT_NE(repro.find("--trace swt=" + path), std::string::npos);

    // A spec declaring a missing trace file fails to expand with the
    // underlying TraceError.
    exec::SweepSpec missing = spec;
    missing.traces[0].name = "swm";
    missing.traces[0].path = (dir_ / "nope.cbin").string();
    missing.workloads = {"swm"};
    EXPECT_THROW(missing.expand(), TraceError);
}

TEST_F(IngestTest, CampaignHashTracksTraceContent)
{
    const std::string path = spill("hash.cbin", twoCoreTrace());

    exec::SweepSpec spec;
    spec.traces.push_back({"hsh", path});
    spec.workloads = {"hsh"};
    spec.variants.push_back({"base", {{"sched", "frfcfs"}}});

    const std::vector<exec::JobSpec> jobs = spec.expand();
    const std::uint64_t h1 = exec::campaignHash(jobs);
    // Re-expanding over unchanged bytes is stable.
    EXPECT_EQ(exec::campaignHash(spec.expand()), h1);

    // Appending one record changes the campaign identity even though
    // the job list itself is unchanged.
    spill("hash.cbin", twoCoreTrace() + binRecord(0, 4, 0x900, 0x900000));
    const std::vector<exec::JobSpec> jobs2 = spec.expand();
    EXPECT_NE(exec::campaignHash(jobs2), h1);
}

TEST_F(IngestTest, ShippedTraceSpecHashIsPinned)
{
    // The spec-hash a `--spec specs/traces.sweep --campaign` run from
    // the repository root stores. Trace paths are folded as spelled,
    // so expand from there.
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(CRITMEM_REPO_ROOT);
    const std::vector<exec::JobSpec> jobs =
        exec::parseSweepFile("specs/traces.sweep").expand();
    std::filesystem::current_path(cwd);
    const std::uint64_t pinned = 0x839d9db53124a944ull;
    EXPECT_EQ(exec::campaignHash(jobs), pinned);

    // A trace registered later that the jobs do not run leaves the
    // hash alone.
    exec::SweepSpec other;
    other.traces.push_back({"other", spill("other.cbin", twoCoreTrace())});
    other.workloads = {"other"};
    other.variants.push_back({"base", {{"sched", "frfcfs"}}});
    other.expand();
    EXPECT_EQ(exec::campaignHash(jobs), pinned);
}

} // namespace

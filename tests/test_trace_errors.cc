/**
 * @file
 * Regression tests for trace-file hardening: every class of mangled
 * input must raise a TraceError carrying the byte offset of the
 * corruption, never crash, abort, or over-allocate.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "trace/trace_file.hh"

using namespace critmem;

namespace
{

class TraceErrorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process and test: ctest -jN runs every test in
        // its own process, all sharing one temp directory.
        path_ = std::filesystem::temp_directory_path() /
            ("critmem_trace_error_test." + std::to_string(::getpid()) +
             "." +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name() +
             ".bin");
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** Write raw bytes as the trace file. */
    void
    writeRaw(const std::vector<std::uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path_.string().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (!bytes.empty()) {
            ASSERT_EQ(
                std::fwrite(bytes.data(), 1, bytes.size(), f),
                bytes.size());
        }
        std::fclose(f);
    }

    /** A structurally valid file: header + @p records zeroed records. */
    std::vector<std::uint8_t>
    validBytes(std::uint64_t records)
    {
        std::vector<std::uint8_t> bytes(16 + records * 24, 0);
        const std::uint32_t magic = TraceWriter::kMagic;
        const std::uint32_t version = TraceWriter::kVersion;
        std::memcpy(bytes.data(), &magic, 4);
        std::memcpy(bytes.data() + 4, &version, 4);
        std::memcpy(bytes.data() + 8, &records, 8);
        return bytes;
    }

    /** Open the file and return the TraceError it must throw. */
    TraceError
    mustThrow()
    {
        try {
            TraceReader reader(path_.string());
        } catch (const TraceError &err) {
            return err;
        }
        ADD_FAILURE() << "TraceReader accepted a mangled file";
        return TraceError("unreachable", 0);
    }

    std::filesystem::path path_;
};

} // namespace

TEST_F(TraceErrorTest, MissingFileThrowsAtOffsetZero)
{
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 0u);
    EXPECT_NE(std::string(err.what()).find("cannot open"),
              std::string::npos);
}

TEST_F(TraceErrorTest, EmptyFileIsShorterThanHeader)
{
    writeRaw({});
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 0u);
    EXPECT_NE(std::string(err.what()).find("shorter than"),
              std::string::npos);
}

TEST_F(TraceErrorTest, TruncatedHeaderReportsFileSize)
{
    writeRaw({0x54, 0x4d, 0x54, 0x43, 1, 0, 0}); // 7 bytes
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 7u);
    EXPECT_NE(std::string(err.what()).find("byte offset 7"),
              std::string::npos);
}

TEST_F(TraceErrorTest, BadMagicThrowsAtOffsetZero)
{
    auto bytes = validBytes(1);
    bytes[0] ^= 0xff;
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 0u);
    EXPECT_NE(std::string(err.what()).find("bad magic"),
              std::string::npos);
}

TEST_F(TraceErrorTest, UnsupportedVersionThrowsAtOffsetFour)
{
    auto bytes = validBytes(1);
    bytes[4] = 99;
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 4u);
    EXPECT_NE(std::string(err.what()).find("version"),
              std::string::npos);
}

TEST_F(TraceErrorTest, ZeroRecordCountThrowsAtOffsetEight)
{
    auto bytes = validBytes(1);
    std::memset(bytes.data() + 8, 0, 8); // count = 0, body present
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 8u);
    EXPECT_NE(std::string(err.what()).find("empty"),
              std::string::npos);
}

TEST_F(TraceErrorTest, CorruptCountCannotDriveHugeAllocation)
{
    // Two real records but a count claiming ~768 exabytes; the reader
    // must reject it from the file size instead of calling resize().
    auto bytes = validBytes(2);
    const std::uint64_t absurd = ~std::uint64_t{0} / 24;
    std::memcpy(bytes.data() + 8, &absurd, 8);
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 8u);
    EXPECT_NE(std::string(err.what()).find("fit in the file"),
              std::string::npos);
}

TEST_F(TraceErrorTest, TruncatedRecordIsRejected)
{
    auto bytes = validBytes(2);
    bytes.resize(bytes.size() - 10); // last record loses 10 bytes
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 8u); // count no longer fits the body
}

TEST_F(TraceErrorTest, TrailingBytesAreRejectedWithTheirOffset)
{
    auto bytes = validBytes(2);
    bytes.push_back(0xab); // one byte of junk after the last record
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 16u + 2 * 24u);
    EXPECT_NE(std::string(err.what()).find("trailing"),
              std::string::npos);
}

TEST_F(TraceErrorTest, InvalidOpClassNamesTheRecordOffset)
{
    auto bytes = validBytes(3);
    bytes[16 + 1 * 24 + 16] = 250; // record 1's class byte
    writeRaw(bytes);
    const TraceError err = mustThrow();
    EXPECT_EQ(err.byteOffset(), 16u + 1 * 24u + 16u);
    EXPECT_NE(std::string(err.what()).find("invalid op class 250"),
              std::string::npos);
}

TEST_F(TraceErrorTest, ValidFileStillLoads)
{
    auto bytes = validBytes(2);
    // Give record 0 a recognizable payload.
    const std::uint64_t pc = 0x1234;
    std::memcpy(bytes.data() + 16, &pc, 8);
    bytes[16 + 16] = 2; // a legal op class
    writeRaw(bytes);
    TraceReader reader(path_.string());
    ASSERT_EQ(reader.size(), 2u);
    MicroOp op;
    reader.next(op);
    EXPECT_EQ(op.pc, 0x1234u);
    EXPECT_EQ(op.cls, static_cast<OpClass>(2));
}

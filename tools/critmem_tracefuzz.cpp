/**
 * @file
 * critmem-tracefuzz: deterministic structured fuzzing of the trace
 * ingestion frontend.
 *
 * Loads a seed corpus of valid traces, applies seeded structured
 * mutations (bit flips, byte sets, zero-fill, truncations,
 * extensions, field splices, header lies), and feeds every mutant to
 * the decoder, asserting the contract the rest of the tree relies
 * on: each input is either accepted or rejected with a TraceError
 * whose byte offset points inside the mutated region — never a
 * crash, a hang, or an error pointing somewhere unrelated.
 *
 * The run is fully deterministic: all randomness comes from one
 * seeded critmem::Rng and the corpus is visited in sorted order, so
 * a failing (seed, iteration) pair reproduces exactly.
 *
 *   critmem-tracefuzz --corpus tests/trace/fixtures \
 *                     --iterations 10000 --seed 1
 *   critmem-tracefuzz --write-corpus tests/trace/fixtures
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#ifdef CRITMEM_HAVE_ZLIB
#include <zlib.h>
#endif

#include "exec/job.hh"
#include "sim/atomic_file.hh"
#include "sim/random.hh"
#include "trace/ingest/ingest.hh"

using namespace critmem;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: critmem-tracefuzz [options]\n"
        "  --corpus DIR       seed traces to mutate (default\n"
        "                     tests/trace/fixtures)\n"
        "  --iterations N     mutants to try (default 10000)\n"
        "  --seed N           fuzz seed (default 1)\n"
        "  --scratch FILE     scratch path for mutants (default\n"
        "                     tracefuzz.scratch)\n"
        "  --write-corpus DIR deterministically regenerate the seed\n"
        "                     corpus into DIR and exit\n"
        "  --quiet            only print the final summary\n");
    std::exit(1);
}

/** exec::parseUint() of @p flag's value; exit 1 naming it if bad. */
std::uint64_t
numberArg(const char *flag, const char *value)
{
    try {
        return exec::parseUint(flag, value);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "critmem-tracefuzz: %s\n", err.what());
        std::exit(1);
    }
}

struct CorpusEntry
{
    std::string name;
    /** Behind gzip: error offsets are in the decompressed stream. */
    bool gzip = false;
    std::vector<unsigned char> bytes;
};

std::vector<CorpusEntry>
loadCorpus(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file())
            files.push_back(entry.path());
    }
    // Directory iteration order is filesystem-dependent; sort for a
    // deterministic corpus <-> iteration mapping.
    std::sort(files.begin(), files.end());

    std::vector<CorpusEntry> corpus;
    for (const fs::path &file : files) {
        std::FILE *f = std::fopen(file.string().c_str(), "rb");
        if (!f) {
            std::fprintf(stderr, "cannot open corpus file %s\n",
                         file.string().c_str());
            std::exit(1);
        }
        CorpusEntry entry;
        entry.name = file.filename().string();
        unsigned char buf[4096];
        std::size_t got = 0;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            entry.bytes.insert(entry.bytes.end(), buf, buf + got);
        std::fclose(f);
        entry.gzip = entry.bytes.size() >= 2 &&
            entry.bytes[0] == 0x1f && entry.bytes[1] == 0x8b;
        corpus.push_back(std::move(entry));
    }
    return corpus;
}

// --------------------------------------------------------------
// Corpus generation (--write-corpus): small valid CTIB traces, plain
// and behind gzip. Deterministic for a given seed so the checked-in
// fixtures are reproducible.
// --------------------------------------------------------------

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>(v >> 8));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** The 8-byte CTIB header declaring @p cores cores. */
std::string
header(std::uint8_t cores)
{
    std::string out = "CTIB";
    out.push_back(1); // version
    out.push_back(static_cast<char>(cores));
    out.push_back(0); // reserved
    out.push_back(0);
    return out;
}

/** One record's fields; the payload bytes past 24 are appended apart. */
struct Fields
{
    std::uint16_t len = 24;
    std::uint8_t core = 0;
    std::uint8_t cls = 0;
    std::uint8_t latency = 1;
    bool mispredict = false;
    std::uint64_t pc = 0;
    std::uint64_t addr = 0;
    std::uint16_t dep1 = 0;
    std::uint16_t dep2 = 0;
};

void
putRecord(std::string &out, const Fields &f)
{
    putU16(out, f.len);
    out.push_back(static_cast<char>(f.core));
    out.push_back(static_cast<char>(f.cls));
    out.push_back(static_cast<char>(f.latency));
    out.push_back(f.mispredict ? 1 : 0);
    putU64(out, f.pc);
    putU64(out, f.addr);
    putU16(out, f.dep1);
    putU16(out, f.dep2);
}

/**
 * A 4-core mixed workload of 200 plain 24-byte records. Every fourth
 * record is a branch (sometimes mispredicted) with no address; the
 * others carry optional latencies and dependence distances.
 */
std::string
makeMixTrace(Rng &rng)
{
    std::string out = header(4);
    for (int i = 0; i < 200; ++i) {
        Fields f;
        f.core = static_cast<std::uint8_t>(i % 4);
        // Weight toward memory ops so the trace exercises the DRAM
        // path when replayed.
        const std::uint64_t pick = rng.below(10);
        f.cls = pick < 4 ? 4                          // Load
            : pick < 6   ? 5                          // Store
            : static_cast<std::uint8_t>(rng.below(4)); // ALU/FP
        f.pc = 0x400000ull + f.core * 0x100000ull +
            static_cast<std::uint64_t>(i) * 4;
        // MB-spread, line-aligned addresses per core.
        f.addr = (1ull << 30) + f.core * (1ull << 24) +
            (rng.below(1ull << 22) & ~63ull);
        // Each case draws in the order the checked-in mix4.cbin was
        // generated with (TraceFuzz.CorpusIsReproducible pins it).
        switch (i % 4) {
          case 0:
            break;
          case 1:
            f.latency = static_cast<std::uint8_t>(1 + rng.below(8));
            break;
          case 2:
            f.dep2 = static_cast<std::uint16_t>(rng.below(8));
            f.dep1 = static_cast<std::uint16_t>(rng.below(8));
            f.latency = static_cast<std::uint8_t>(1 + rng.below(4));
            break;
          default:
            f.mispredict = rng.below(2) != 0;
            f.dep1 = static_cast<std::uint16_t>(rng.below(4));
            f.cls = 6; // Branch
            f.addr = 0;
            break;
        }
        putRecord(out, f);
    }
    return out;
}

std::string
makeBinaryTrace(Rng &rng)
{
    std::string out = header(2);
    for (int i = 0; i < 120; ++i) {
        Fields f;
        f.core = static_cast<std::uint8_t>(i % 2);
        const std::uint64_t pick = rng.below(10);
        f.cls = pick < 4 ? 4 // Load
            : pick < 6   ? 5 // Store
            : static_cast<std::uint8_t>(rng.below(4));
        // ~10% extended records exercise forward compatibility.
        f.len = rng.below(10) == 0 ? 28 : 24;
        f.latency = static_cast<std::uint8_t>(1 + rng.below(8));
        f.mispredict = f.cls == 6 && rng.below(4) == 0;
        f.pc = 0x400000ull + f.core * 0x100000ull +
            static_cast<std::uint64_t>(i) * 4;
        f.addr = (1ull << 28) + f.core * (1ull << 24) +
            (rng.below(1ull << 21) & ~63ull);
        f.dep1 = static_cast<std::uint16_t>(rng.below(8));
        f.dep2 = static_cast<std::uint16_t>(rng.below(8));
        putRecord(out, f);
        for (std::uint16_t extra = 24; extra < f.len; ++extra)
            out.push_back(static_cast<char>(rng.below(256)));
    }
    return out;
}

#ifdef CRITMEM_HAVE_ZLIB
std::string
gzipCompress(const std::string &raw)
{
    z_stream strm{};
    // 16+MAX_WBITS selects the gzip wrapper; zlib writes a zeroed
    // mtime so the output is byte-identical across runs.
    if (deflateInit2(&strm, Z_BEST_COMPRESSION, Z_DEFLATED,
                     16 + MAX_WBITS, 8,
                     Z_DEFAULT_STRATEGY) != Z_OK) {
        std::fprintf(stderr, "deflateInit2 failed\n");
        std::exit(1);
    }
    std::string out;
    out.resize(deflateBound(&strm, raw.size()));
    strm.next_in = reinterpret_cast<Bytef *>(
        const_cast<char *>(raw.data()));
    strm.avail_in = static_cast<uInt>(raw.size());
    strm.next_out = reinterpret_cast<Bytef *>(out.data());
    strm.avail_out = static_cast<uInt>(out.size());
    if (deflate(&strm, Z_FINISH) != Z_STREAM_END) {
        std::fprintf(stderr, "deflate failed\n");
        std::exit(1);
    }
    out.resize(out.size() - strm.avail_out);
    deflateEnd(&strm);
    return out;
}
#endif

int
writeCorpus(const std::string &dir, std::uint64_t seed)
{
    std::filesystem::create_directories(dir);
    Rng rng(seed);
    AtomicFile::writeAll(dir + "/mix4.cbin", makeMixTrace(rng));
    const std::string bin = makeBinaryTrace(rng);
    AtomicFile::writeAll(dir + "/pair2.cbin", bin);
#ifdef CRITMEM_HAVE_ZLIB
    AtomicFile::writeAll(dir + "/pair2.cbin.gz", gzipCompress(bin));
#else
    std::fprintf(stderr,
                 "note: zlib unavailable, skipping pair2.cbin.gz\n");
#endif
    std::printf("corpus written to %s\n", dir.c_str());
    return 0;
}

// --------------------------------------------------------------
// Mutation engine
// --------------------------------------------------------------

/**
 * Apply one structured mutation to @p buf; @return the smallest byte
 * offset the mutation could have disturbed (for the offset-window
 * check), or SIZE_MAX when the mutation was a no-op on this buffer.
 */
std::uint64_t
mutateOnce(std::vector<unsigned char> &buf, Rng &rng,
           std::uint64_t headerSpan)
{
    const std::uint64_t which = rng.below(7);
    // Extension is the only mutation that works on an empty buffer.
    if (buf.empty() && which != 4)
        return ~std::uint64_t{0};
    switch (which) {
      case 0: { // bit flip
        const std::size_t pos = rng.below(buf.size());
        buf[pos] ^= static_cast<unsigned char>(1u << rng.below(8));
        return pos;
      }
      case 1: { // byte set
        const std::size_t pos = rng.below(buf.size());
        buf[pos] = static_cast<unsigned char>(rng.below(256));
        return pos;
      }
      case 2: { // zero-fill a short run
        const std::size_t pos = rng.below(buf.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(64),
                                  buf.size() - pos);
        std::fill_n(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                    len, 0);
        return pos;
      }
      case 3: { // truncate
        const std::size_t pos = rng.below(buf.size());
        buf.resize(pos);
        return pos;
      }
      case 4: { // extend with garbage
        const std::size_t old = buf.size();
        const std::size_t len = 1 + rng.below(128);
        for (std::size_t i = 0; i < len; ++i)
            buf.push_back(
                static_cast<unsigned char>(rng.below(256)));
        return old;
      }
      case 5: { // field splice: copy a chunk elsewhere in the file
        const std::size_t src = rng.below(buf.size());
        const std::size_t dst = rng.below(buf.size());
        const std::size_t len = std::min<std::size_t>(
            1 + rng.below(64),
            std::min(buf.size() - src, buf.size() - dst));
        std::memmove(buf.data() + dst, buf.data() + src, len);
        return dst;
      }
      default: { // header lie
        const std::size_t span = std::min<std::size_t>(
            buf.size(), static_cast<std::size_t>(headerSpan));
        const std::size_t pos = rng.below(span);
        buf[pos] = static_cast<unsigned char>(rng.below(256));
        return pos;
      }
    }
}

struct FuzzStats
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failures = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string corpusDir = "tests/trace/fixtures";
    std::string scratch = "tracefuzz.scratch";
    std::string writeDir;
    std::uint64_t iterations = 10000;
    std::uint64_t seed = 1;
    bool quiet = false;

    auto nextArg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corpus") {
            corpusDir = nextArg(i);
        } else if (arg == "--iterations") {
            iterations = numberArg("--iterations", nextArg(i));
        } else if (arg == "--seed") {
            seed = numberArg("--seed", nextArg(i));
        } else if (arg == "--scratch") {
            scratch = nextArg(i);
        } else if (arg == "--write-corpus") {
            writeDir = nextArg(i);
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage();
        }
    }
    if (!writeDir.empty())
        return writeCorpus(writeDir, seed);

    const std::vector<CorpusEntry> corpus = loadCorpus(corpusDir);
    if (corpus.empty()) {
        std::fprintf(stderr, "no corpus files under %s\n",
                     corpusDir.c_str());
        return 1;
    }
    // Every corpus entry must decode cleanly before mutation: a
    // rejected seed would make "rejection near the mutation" vacuous.
    for (const CorpusEntry &entry : corpus) {
        const std::string path = corpusDir + "/" + entry.name;
        try {
            ingest::scanTrace(path);
        } catch (const std::exception &err) {
            std::fprintf(stderr, "seed corpus %s does not decode: %s\n",
                         entry.name.c_str(), err.what());
            return 1;
        }
    }

    Rng rng(seed);
    FuzzStats stats;
    std::vector<unsigned char> buf;
    for (std::uint64_t iter = 0; iter < iterations; ++iter) {
        const CorpusEntry &entry = corpus[rng.below(corpus.size())];
        buf = entry.bytes;

        // The fixed-layout 8-byte header is where "lies" (plausible
        // but wrong counts/magics) live; everything after it is
        // records.
        const std::uint64_t headerSpan = 8;
        const std::uint64_t mutations = 1 + rng.below(3);
        std::uint64_t minStart = ~std::uint64_t{0};
        for (std::uint64_t m = 0; m < mutations; ++m)
            minStart =
                std::min(minStart, mutateOnce(buf, rng, headerSpan));

        {
            // lint:allow(durable-write): scratch mutant, rewritten
            // every iteration; a torn scratch is itself a fuzz input
            std::FILE *f = std::fopen(scratch.c_str(), "wb");
            if (!f || (buf.size() &&
                       std::fwrite(buf.data(), 1, buf.size(), f) !=
                           buf.size())) {
                std::fprintf(stderr, "cannot write scratch file %s\n",
                             scratch.c_str());
                return 1;
            }
            std::fclose(f);
        }

        bool ok = true;
        std::string problem;
        try {
            ingest::scanTrace(scratch);
            ++stats.accepted;
        } catch (const TraceError &err) {
            ++stats.rejected;
            const std::uint64_t off = err.byteOffset();
            // The error must point inside the file, and either at
            // the header (always fair game for framing errors) or
            // no earlier than one max-sized record (payload plus its
            // 2-byte length) before the first mutated byte. Gzip offsets are in the
            // decompressed domain and cannot be window-checked
            // against compressed-file positions.
            if (!entry.gzip) {
                const std::uint64_t slack = ingest::kMaxRecordBytes + 2;
                const std::uint64_t windowLo =
                    minStart == ~std::uint64_t{0} || minStart < slack
                    ? 0
                    : minStart - slack;
                if (off > buf.size()) {
                    ok = false;
                    problem = "offset " + std::to_string(off) +
                        " past end of " +
                        std::to_string(buf.size()) + "-byte mutant";
                } else if (off > headerSpan && off < windowLo) {
                    ok = false;
                    problem = "offset " + std::to_string(off) +
                        " points before the mutated region (first "
                        "mutation at " + std::to_string(minStart) +
                        ")";
                }
                if (!ok)
                    problem += "; error: " + std::string(err.what());
            }
        } catch (const std::exception &err) {
            // Anything but TraceError is a contract violation.
            ok = false;
            problem = std::string("non-TraceError exception: ") +
                err.what();
        }
        if (!ok) {
            ++stats.failures;
            std::fprintf(stderr,
                         "FAIL seed=%llu iter=%llu corpus=%s: %s\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(iter),
                         entry.name.c_str(), problem.c_str());
        }
        if (!quiet && iter != 0 && iter % 2000 == 0) {
            std::fprintf(stderr,
                         "... %llu/%llu mutants (%llu accepted, "
                         "%llu rejected)\n",
                         static_cast<unsigned long long>(iter),
                         static_cast<unsigned long long>(iterations),
                         static_cast<unsigned long long>(
                             stats.accepted),
                         static_cast<unsigned long long>(
                             stats.rejected));
        }
    }
    std::remove(scratch.c_str());

    std::printf("tracefuzz: %llu mutants over %zu corpus files: "
                "%llu accepted, %llu rejected, %llu contract "
                "failures\n",
                static_cast<unsigned long long>(iterations),
                corpus.size(),
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.failures));
    return stats.failures == 0 ? 0 : 1;
}

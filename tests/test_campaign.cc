/**
 * @file
 * Tests of the crash-safe campaign machinery (exec/campaign.*,
 * sim/atomic_file.*, and the JobRunner's CampaignLog/stop/timeout
 * paths): atomic publication semantics, journal round-trips with
 * bit-exact doubles, torn-tail recovery, malformed-input fuzzing
 * with byte-offset errors (mirroring the trace-error tests), and
 * replay byte-identity — a resumed campaign's sink output must equal
 * an uninterrupted run's.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/campaign.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "exec/sweep.hh"
#include "sim/atomic_file.hh"
#include "sim/fnv.hh"

using namespace critmem;

namespace
{

namespace fs = std::filesystem;

/**
 * Fresh scratch directory per test and process (two build trees may
 * run the suite at once), removed on teardown.
 */
class CampaignTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
            ("critmem_campaign_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "." + std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::string
    slurp(const std::string &file) const
    {
        std::ifstream in(file, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }

    void
    spill(const std::string &file, const std::string &content) const
    {
        std::ofstream out(file, std::ios::binary);
        out << content;
    }

    fs::path dir_;
};

exec::JobSpec
parallelJob(const std::string &name, const std::string &app,
            std::uint64_t quota, std::uint64_t seed = 1)
{
    exec::JobSpec job;
    job.name = name;
    job.kind = exec::RunKind::Parallel;
    job.workload = app;
    job.cfg = SystemConfig::parallelDefault();
    job.cfg.seed = seed;
    job.quota = quota;
    return job;
}

std::vector<exec::JobSpec>
smallCampaign(std::uint64_t quota)
{
    std::vector<exec::JobSpec> jobs;
    for (const char *app : {"art", "mg"}) {
        jobs.push_back(parallelJob(std::string(app) + "/base", app,
                                   quota, 1));
        jobs.push_back(parallelJob(std::string(app) + "/alt", app,
                                   quota, 2));
    }
    return jobs;
}

/** A fully populated record (awkward strings, fractional doubles). */
exec::JobRecord
sampleRecord(std::size_t index)
{
    exec::JobRecord rec;
    rec.index = index;
    rec.spec = parallelJob("art/tab\tnew\nline\\slash", "art", 600,
                           7 + index);
    rec.status = exec::JobStatus::Ok;
    rec.attempts = 3;
    rec.warmupUsed = 150;
    rec.result.cycles = 123456789 + index;
    rec.result.finishCycles = {100, 200, 300, 400};
    rec.result.committed = {600, 601, 602, 603};
    rec.result.dynamicLoads = 11;
    rec.result.blockingLoads = 12;
    rec.result.robBlockedCycles = 13;
    rec.result.coreCycles = 14;
    rec.result.loadsIssued = 15;
    rec.result.critLoadsIssued = 16;
    rec.result.lqFullCycles = 17;
    rec.result.l2MissLatCrit = 123.456789e-3;
    rec.result.l2MissLatNonCrit = -0.1; // not representable in binary
    rec.result.demandMisses = 18;
    rec.result.critMissCount = 19;
    rec.result.nonCritMissCount = 20;
    rec.result.rowHits = 21;
    rec.result.rowMisses = 22;
    rec.result.dramReads = 23;
    rec.result.maxCbpValue = 24;
    rec.result.cbpPopulated = 25;
    rec.error = "boom\twith\nnewline";
    rec.statsJson = "{\"a\":\t1}";
    return rec;
}

void
expectRecordsEqual(const exec::JobRecord &a, const exec::JobRecord &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.spec.name, b.spec.name);
    EXPECT_EQ(a.spec.cfg.seed, b.spec.cfg.seed);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.warmupUsed, b.warmupUsed);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.finishCycles, b.result.finishCycles);
    EXPECT_EQ(a.result.committed, b.result.committed);
    EXPECT_EQ(a.result.critLoadsIssued, b.result.critLoadsIssued);
    EXPECT_EQ(a.result.cbpPopulated, b.result.cbpPopulated);
    // Bit-exact, not approximately-equal: the replay path must
    // reproduce sink output byte-for-byte.
    EXPECT_EQ(a.result.l2MissLatCrit, b.result.l2MissLatCrit);
    EXPECT_EQ(a.result.l2MissLatNonCrit, b.result.l2MissLatNonCrit);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

std::string
forgeLine(const std::string &payload)
{
    return "r1 " + exec::hashHex(fnv1a(payload)) + ' ' + payload +
        '\n';
}

// ---------------------------------------------------------------
// AtomicFile
// ---------------------------------------------------------------

TEST_F(CampaignTest, AtomicFileCommitPublishes)
{
    const std::string target = path("out.txt");
    {
        AtomicFile file(target);
        file.stream() << "hello\n";
        EXPECT_FALSE(fs::exists(target)) <<
            "content visible before commit";
        file.commit();
        EXPECT_TRUE(file.committed());
    }
    EXPECT_EQ(slurp(target), "hello\n");
    EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST_F(CampaignTest, AtomicFileAbandonedWriteLeavesOldContent)
{
    const std::string target = path("out.txt");
    spill(target, "old\n");
    {
        AtomicFile file(target);
        file.stream() << "half-written new conte";
        // destroyed without commit(): the error/crash path
    }
    EXPECT_EQ(slurp(target), "old\n");
    EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST_F(CampaignTest, AtomicFileWriteAllReplaces)
{
    const std::string target = path("out.txt");
    spill(target, "old\n");
    AtomicFile::writeAll(target, "new\n");
    EXPECT_EQ(slurp(target), "new\n");
}

// ---------------------------------------------------------------
// Journal round-trip and recovery
// ---------------------------------------------------------------

TEST_F(CampaignTest, JournalRoundTripIsBitExact)
{
    const std::string journal = path("journal.txt");
    {
        auto log = exec::CampaignJournal::create(journal);
        log->record(sampleRecord(0));
        log->record(sampleRecord(5));
    }
    const exec::JournalLoad load = exec::loadJournal(journal);
    EXPECT_FALSE(load.tornTail);
    ASSERT_EQ(load.records.size(), 2u);
    expectRecordsEqual(load.records[0], sampleRecord(0));
    expectRecordsEqual(load.records[1], sampleRecord(5));
    EXPECT_EQ(load.validBytes, fs::file_size(journal));
    EXPECT_EQ(load.offsets[0], 0u);
}

TEST_F(CampaignTest, JournalTornTailDetectedAndTruncated)
{
    const std::string journal = path("journal.txt");
    {
        auto log = exec::CampaignJournal::create(journal);
        log->record(sampleRecord(0));
        log->record(sampleRecord(1));
    }
    const std::uint64_t intact = fs::file_size(journal);
    // A crash mid-append leaves a partial final line.
    std::ofstream(journal, std::ios::app | std::ios::binary)
        << "r1 0123456789abcdef partial-record-without-newl";

    const exec::JournalLoad load = exec::loadJournal(journal);
    EXPECT_TRUE(load.tornTail);
    EXPECT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.validBytes, intact);

    // resume() truncates the torn tail on disk.
    auto log = exec::CampaignJournal::resume(journal);
    EXPECT_TRUE(log->tornTailTruncated());
    EXPECT_EQ(log->loadedCount(), 2u);
    EXPECT_EQ(fs::file_size(journal), intact);
}

TEST_F(CampaignTest, JournalFuzzMalformedRecords)
{
    const std::string good0 =
        exec::encodeJournalRecord(sampleRecord(0));
    const std::string good1 =
        exec::encodeJournalRecord(sampleRecord(1));

    struct Case
    {
        const char *label;
        std::string content;
        std::uint64_t offset; ///< expected CampaignError offset
    };
    // Mid-file damage is never recoverable (only a torn final line
    // is): every case must throw, carrying the byte offset of the
    // bad line.
    std::string badCrc = good0;
    badCrc[3] = badCrc[3] == '0' ? '1' : '0'; // corrupt the checksum
    const std::vector<Case> cases = {
        {"bad checksum mid-file", badCrc + good1, 0},
        {"bad magic mid-file", "x9 " + good0.substr(3) + good1, 0},
        {"short line mid-file", std::string("r1 12\n") + good1, 0},
        {"duplicate job index", good0 + good1 + good0,
         static_cast<std::uint64_t>(good0.size() + good1.size())},
        {"wrong field count", good0 + forgeLine("1\tname\t2"),
         static_cast<std::uint64_t>(good0.size())},
        {"unknown status", good0 +
             forgeLine("9\tj\t1\tnot-a-status\t1\t0\t0\t\t\t0\t0\t0"
                       "\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t"
                       "0000000000000000\t0000000000000000\t\t"),
         static_cast<std::uint64_t>(good0.size())},
        {"non-numeric index", good0 + forgeLine(
             "x\tj\t1\tok\t1\t0\t0\t\t\t0\t0\t0\t0\t0\t0\t0\t0\t0"
             "\t0\t0\t0\t0\t0\t0\t0000000000000000"
             "\t0000000000000000\t\t"),
         static_cast<std::uint64_t>(good0.size())},
    };

    for (const Case &fuzz : cases) {
        const std::string journal = path("fuzz.txt");
        spill(journal, fuzz.content);
        try {
            exec::loadJournal(journal);
            FAIL() << fuzz.label << " did not throw";
        } catch (const exec::CampaignError &err) {
            EXPECT_EQ(err.byteOffset(), fuzz.offset) << fuzz.label;
            EXPECT_NE(std::string(err.what()).find("byte offset"),
                      std::string::npos)
                << fuzz.label;
        }
    }
}

TEST_F(CampaignTest, JournalAttachRejectsForeignRecords)
{
    const std::string journal = path("journal.txt");
    {
        auto log = exec::CampaignJournal::create(journal);
        exec::JobRecord rec = sampleRecord(0);
        rec.spec.name = "art/base";
        rec.spec.cfg.seed = 1;
        log->record(rec);
    }
    auto log = exec::CampaignJournal::resume(journal);

    // Same slot, different job: the journal belongs to another
    // campaign and must be rejected, not silently replayed.
    std::vector<exec::JobSpec> renamed = {
        parallelJob("art/other", "art", 600, 1)};
    EXPECT_THROW(log->attach(renamed), exec::CampaignError);

    std::vector<exec::JobSpec> reseeded = {
        parallelJob("art/base", "art", 600, 99)};
    EXPECT_THROW(log->attach(reseeded), exec::CampaignError);

    // Index past the end of the expanded list.
    std::vector<exec::JobSpec> empty;
    EXPECT_THROW(log->attach(empty), exec::CampaignError);

    std::vector<exec::JobSpec> match = {
        parallelJob("art/base", "art", 600, 1)};
    log->attach(match);
    ASSERT_NE(log->replay(0), nullptr);
    EXPECT_EQ(log->replay(0)->spec.workload, "art");
}

// ---------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------

TEST_F(CampaignTest, ManifestRoundTripAndVerification)
{
    const std::string manifest = path("manifest.txt");
    exec::writeManifest(manifest, {{"spec", "specs/fig10.sweep"},
                                   {"spec-hash", "00ff"},
                                   {"jobs", "45"}});
    const exec::Manifest loaded = exec::loadManifest(manifest);
    ASSERT_EQ(loaded.fields.size(), 3u);
    ASSERT_NE(loaded.find("spec"), nullptr);
    EXPECT_EQ(*loaded.find("spec"), "specs/fig10.sweep");
    EXPECT_EQ(loaded.find("nope"), nullptr);

    loaded.expectValue("jobs", "45");
    try {
        loaded.expectValue("spec-hash", "beef");
        FAIL() << "hash mismatch accepted";
    } catch (const exec::CampaignError &err) {
        // The error points at the spec-hash line, past the magic
        // line and the spec line.
        EXPECT_GT(err.byteOffset(), 0u);
        EXPECT_NE(std::string(err.what()).find("spec-hash"),
                  std::string::npos);
    }
    EXPECT_THROW(loaded.expectValue("absent-key", "x"),
                 exec::CampaignError);
}

TEST_F(CampaignTest, ManifestFuzzMalformedFiles)
{
    struct Case
    {
        const char *label;
        std::string content;
    };
    const std::vector<Case> cases = {
        {"missing magic", "spec = a.sweep\n"},
        {"wrong magic", "critmem-campaign v999\nspec = a.sweep\n"},
        {"key line without separator",
         "critmem-campaign v1\nspec a.sweep\n"},
        {"duplicate key",
         "critmem-campaign v1\nspec = a\nspec = b\n"},
        {"missing final newline", "critmem-campaign v1\nspec = a"},
        {"empty file", ""},
    };
    for (const Case &fuzz : cases) {
        const std::string manifest = path("manifest.txt");
        spill(manifest, fuzz.content);
        EXPECT_THROW(exec::loadManifest(manifest),
                     exec::CampaignError)
            << fuzz.label;
    }
}

TEST_F(CampaignTest, ConfigHashSeesSchedulerKnobs)
{
    const SystemConfig base = SystemConfig::multiprogDefault();
    EXPECT_EQ(exec::configHash(base), exec::configHash(base));

    SystemConfig sched = base;
    sched.sched.algo = SchedAlgo::Bliss;
    EXPECT_NE(exec::configHash(base), exec::configHash(sched));

    SystemConfig knob = base;
    knob.sched.morseMaxCommands += 1;
    EXPECT_NE(exec::configHash(base), exec::configHash(knob));

    SystemConfig seed = base;
    seed.seed += 1;
    EXPECT_NE(exec::configHash(base), exec::configHash(seed));
}

TEST_F(CampaignTest, CampaignHashTracksJobIdentity)
{
    const std::vector<exec::JobSpec> jobs = smallCampaign(600);
    EXPECT_EQ(exec::campaignHash(jobs), exec::campaignHash(jobs));

    std::vector<exec::JobSpec> reseeded = jobs;
    reseeded[0].cfg.seed += 1;
    EXPECT_NE(exec::campaignHash(jobs), exec::campaignHash(reseeded));

    std::vector<exec::JobSpec> requota = jobs;
    requota[1].quota += 1;
    EXPECT_NE(exec::campaignHash(jobs), exec::campaignHash(requota));

    std::vector<exec::JobSpec> shorter(jobs.begin(), jobs.end() - 1);
    EXPECT_NE(exec::campaignHash(jobs), exec::campaignHash(shorter));

    // Config-only edits a spec's variant settings can make: each one
    // changes the results, so each must change the hash (else
    // --resume would replay stale records).
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"morse-cmds", "2"}, {"ranks", "1"}, {"dirty", "0.5"},
             {"lq", "16"}, {"closed-page", "1"},
             {"inject", "skip-refresh"}}) {
        std::vector<exec::JobSpec> edited = jobs;
        exec::applySetting(edited[0].cfg, key, value);
        EXPECT_NE(exec::campaignHash(jobs), exec::campaignHash(edited))
            << key << "=" << value;
    }
}

// ---------------------------------------------------------------
// Sweep-spec parse errors
// ---------------------------------------------------------------

TEST_F(CampaignTest, SweepErrorCarriesLineAndByteOffset)
{
    // Line 1 is 17 bytes ("mode = parallel\n" is 16; use explicit
    // strings so the expected offset is readable).
    const std::string line1 = "mode = parallel\n";
    const std::string line2 = "workloads = art\n";
    const std::string bad = "quota = not-a-number\n";
    std::istringstream in(line1 + line2 + bad);
    try {
        exec::parseSweepSpec(in);
        FAIL() << "malformed quota accepted";
    } catch (const exec::SweepError &err) {
        EXPECT_EQ(err.lineNo(), 3u);
        EXPECT_EQ(err.byteOffset(), line1.size() + line2.size());
        EXPECT_NE(std::string(err.what()).find("line 3"),
                  std::string::npos);
    }

    std::istringstream badLine("not a spec directive\n");
    EXPECT_THROW(exec::parseSweepSpec(badLine), exec::SweepError);
}

// ---------------------------------------------------------------
// Runner integration: replay, stop, timeout, run-once
// ---------------------------------------------------------------

TEST_F(CampaignTest, ResumedCampaignIsByteIdenticalToFreshRun)
{
    const std::vector<exec::JobSpec> jobs = smallCampaign(600);
    const std::string journal = path("journal.txt");

    // Reference: uninterrupted campaign, journaling as it goes.
    std::ostringstream fresh;
    {
        exec::JsonlSink sink(fresh);
        auto log = exec::CampaignJournal::create(journal);
        exec::RunnerOptions opts;
        opts.threads = 2;
        const exec::CampaignSummary summary =
            exec::JobRunner(opts).run(jobs, {&sink}, log.get());
        EXPECT_EQ(summary.ok, jobs.size());
        EXPECT_EQ(summary.replayed, 0u);
        EXPECT_FALSE(summary.interrupted);
    }

    // Full resume: every job replays from the journal, nothing runs,
    // and the sink output is byte-identical.
    std::ostringstream resumed;
    {
        exec::JsonlSink sink(resumed);
        auto log = exec::CampaignJournal::resume(journal);
        log->attach(jobs);
        exec::RunnerOptions opts;
        opts.threads = 2;
        const exec::CampaignSummary summary =
            exec::JobRunner(opts).run(jobs, {&sink}, log.get());
        EXPECT_EQ(summary.ok, jobs.size());
        EXPECT_EQ(summary.replayed, jobs.size());
    }
    EXPECT_EQ(fresh.str(), resumed.str());

    // Partial resume: keep only the first journaled record (whatever
    // completion order produced), re-run the rest — still identical.
    const exec::JournalLoad load = exec::loadJournal(journal);
    ASSERT_GT(load.records.size(), 1u);
    fs::resize_file(journal, load.offsets[1]);

    std::ostringstream partial;
    {
        exec::JsonlSink sink(partial);
        auto log = exec::CampaignJournal::resume(journal);
        EXPECT_EQ(log->loadedCount(), 1u);
        log->attach(jobs);
        exec::RunnerOptions opts;
        opts.threads = 2;
        const exec::CampaignSummary summary =
            exec::JobRunner(opts).run(jobs, {&sink}, log.get());
        EXPECT_EQ(summary.ok, jobs.size());
        EXPECT_EQ(summary.replayed, 1u);
    }
    EXPECT_EQ(fresh.str(), partial.str());

    // The re-run must have re-journaled everything: a second resume
    // replays all jobs from the now-complete journal.
    auto log = exec::CampaignJournal::resume(journal);
    EXPECT_EQ(log->loadedCount(), jobs.size());
}

TEST_F(CampaignTest, StopRequestBeforeRunLeavesEverythingPending)
{
    const std::vector<exec::JobSpec> jobs = smallCampaign(600);
    std::atomic<int> stop{1};
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 2;
    opts.stopRequested = &stop;
    const exec::CampaignSummary summary =
        exec::JobRunner(opts).run(jobs, {&sink});
    EXPECT_TRUE(summary.interrupted);
    EXPECT_EQ(summary.pending, jobs.size());
    EXPECT_EQ(summary.ok, 0u);
    EXPECT_TRUE(sink.records().empty());
}

TEST_F(CampaignTest, TimeoutCancelsWedgedJobWithoutRetry)
{
    // A quota this size takes minutes; the 150 ms budget must cancel
    // it cooperatively and mark it Timeout after one execution.
    std::vector<exec::JobSpec> jobs = {
        parallelJob("art/wedged", "art", 50000000)};
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 1;
    opts.jobTimeoutMs = 150;
    const exec::CampaignSummary summary =
        exec::JobRunner(opts).run(jobs, {&sink});
    EXPECT_EQ(summary.failed, 1u);
    ASSERT_EQ(sink.records().size(), 1u);
    const exec::JobRecord &rec = sink.records()[0];
    EXPECT_EQ(rec.status, exec::JobStatus::Timeout);
    EXPECT_EQ(rec.attempts, 1u);
    EXPECT_FALSE(rec.error.empty());
}

TEST_F(CampaignTest, FailureRecordsAreDeterministic)
{
    std::vector<exec::JobSpec> jobs = {
        parallelJob("bogus", "no-such-app", 600)};
    exec::RunnerOptions opts;
    opts.threads = 1;

    std::ostringstream first, second;
    for (std::ostringstream *out : {&first, &second}) {
        exec::JsonlSink sink(*out);
        const exec::CampaignSummary summary =
            exec::JobRunner(opts).run(jobs, {&sink});
        EXPECT_EQ(summary.failed, 1u);
    }
    // Identical specs ⇒ identical failure records: nothing
    // wall-clock-dependent leaks into results, and the job ran once.
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("\"attempts\":1,"), std::string::npos);
}

TEST_F(CampaignTest, RunnerRefusesMoreThanOneAttempt)
{
    std::vector<exec::JobSpec> jobs = {
        parallelJob("art/base", "art", 600)};
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.maxAttempts = 2;
    EXPECT_THROW(exec::JobRunner(opts).run(jobs, {&sink}),
                 std::invalid_argument);
    EXPECT_TRUE(sink.records().empty());
}

} // namespace

/**
 * @file
 * Tests of process-isolated job execution (exec/worker.hh): the
 * byte-identity contract between in-thread and forked execution, the
 * failure taxonomy (crashed / oom / exit / timeout) incl. the
 * waitpid-status classifier, the --max-failures circuit breaker, and
 * the journal-line wire protocol the worker pipe shares with the
 * campaign journal.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "exec/campaign.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "exec/worker.hh"
#include "sim/config.hh"

using namespace critmem;

namespace
{

exec::JobSpec
parallelJob(const std::string &name, const std::string &app,
            std::uint64_t quota, std::uint64_t seed = 1)
{
    exec::JobSpec job;
    job.name = name;
    job.kind = exec::RunKind::Parallel;
    job.workload = app;
    job.cfg = SystemConfig::parallelDefault();
    job.cfg.sched.algo = SchedAlgo::FrFcfs;
    job.cfg.seed = seed;
    job.quota = quota;
    return job;
}

/** Rig @p job to fault its own process after @p period CAS issues. */
void
armFault(exec::JobSpec &job, FaultKind kind, std::uint64_t period)
{
    job.cfg.check.enabled = true;
    job.cfg.check.fault = kind;
    job.cfg.check.faultPeriod = period;
}

std::string
runToJsonl(const std::vector<exec::JobSpec> &jobs,
           exec::RunnerOptions opts,
           exec::CampaignSummary *summary = nullptr)
{
    std::ostringstream out;
    exec::JsonlSink sink(out);
    exec::JobRunner runner(opts);
    const exec::CampaignSummary s = runner.run(jobs, {&sink});
    if (summary != nullptr)
        *summary = s;
    return out.str();
}

} // namespace

TEST(Isolation, JsonlIdenticalToInThreadExecution)
{
    std::vector<exec::JobSpec> jobs;
    for (const char *app : {"art", "mg"}) {
        jobs.push_back(
            parallelJob(std::string(app) + "/base", app, 600));
        jobs.back().captureStats = true; // statsJson crosses the pipe
    }

    exec::RunnerOptions inThread;
    inThread.threads = 2;
    exec::RunnerOptions isolated = inThread;
    isolated.isolate = true;

    const std::string reference = runToJsonl(jobs, inThread);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(reference, runToJsonl(jobs, isolated));

    isolated.threads = 1; // and independent of worker count
    EXPECT_EQ(reference, runToJsonl(jobs, isolated));
}

TEST(Isolation, CrashIsContained)
{
    std::vector<exec::JobSpec> jobs;
    jobs.push_back(parallelJob("healthy", "art", 600));
    jobs.push_back(parallelJob("doomed", "art", 600));
    armFault(jobs.back(), FaultKind::CrashWorker, 200);

    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 2;
    opts.isolate = true;
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary =
        runner.run(jobs, {&sink});

    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);
    const exec::JobRecord *healthy = sink.find("healthy");
    ASSERT_NE(healthy, nullptr);
    EXPECT_EQ(healthy->status, exec::JobStatus::Ok);

    const exec::JobRecord *doomed = sink.find("doomed");
    ASSERT_NE(doomed, nullptr);
    EXPECT_EQ(doomed->status, exec::JobStatus::Crashed);
    EXPECT_NE(doomed->error.find("SIGSEGV"), std::string::npos)
        << doomed->error;
    // The crash is final after one execution: no rerun, no note.
    EXPECT_EQ(doomed->attempts, 1u);
    EXPECT_EQ(doomed->error.find("quarant"), std::string::npos)
        << doomed->error;
}

TEST(Isolation, MemoryHogBecomesOomUnderBudget)
{
    std::vector<exec::JobSpec> jobs;
    jobs.push_back(parallelJob("hog", "art", 600));
    armFault(jobs.back(), FaultKind::HogMemory, 200);

    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 1;
    opts.isolate = true;
    opts.jobMemMb = 512;
    exec::JobRunner runner(opts);
    runner.run(jobs, {&sink});

    const exec::JobRecord *hog = sink.find("hog");
    ASSERT_NE(hog, nullptr);
    EXPECT_EQ(hog->status, exec::JobStatus::Oom);
    EXPECT_NE(hog->error.find("--job-mem-mb"), std::string::npos)
        << hog->error;
}

TEST(Isolation, ClassifyWaitStatusTaxonomy)
{
    exec::WorkerLimits limits;
    limits.memMb = 256;
    limits.cpuSeconds = 10;
    std::string detail;

    // Plain exit(0) with no record: Exit (the record never arrived).
    EXPECT_EQ(exec::classifyWaitStatus(0 << 8, limits, detail),
              exec::JobStatus::Exit);
    // exit(35): Exit, code in the detail.
    EXPECT_EQ(exec::classifyWaitStatus(35 << 8, limits, detail),
              exec::JobStatus::Exit);
    EXPECT_NE(detail.find("35"), std::string::npos) << detail;
    // Fatal SIGSEGV: Crashed, signal named.
    EXPECT_EQ(exec::classifyWaitStatus(SIGSEGV, limits, detail),
              exec::JobStatus::Crashed);
    EXPECT_NE(detail.find("SIGSEGV"), std::string::npos) << detail;
    // SIGXCPU: the RLIMIT_CPU backstop fired -> Timeout.
    EXPECT_EQ(exec::classifyWaitStatus(SIGXCPU, limits, detail),
              exec::JobStatus::Timeout);
    // SIGKILL is still a signal death to the classifier (the
    // supervisor separately distinguishes *whose* SIGKILL it was).
    EXPECT_EQ(exec::classifyWaitStatus(SIGKILL, limits, detail),
              exec::JobStatus::Crashed);
    EXPECT_NE(detail.find("SIGKILL"), std::string::npos) << detail;
}

TEST(Isolation, CircuitBreakerStopsDispatch)
{
    // Six jobs that all fail permanently (unknown workload) with a
    // two-failure breaker: dispatch must stop early, leaving pending
    // jobs, and the summary must say why.
    std::vector<exec::JobSpec> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back(parallelJob("bogus" + std::to_string(i),
                                   "no-such-app", 600));

    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 1;
    opts.maxFailures = 2;
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary =
        runner.run(jobs, {&sink});

    EXPECT_TRUE(summary.breakerTripped);
    EXPECT_TRUE(summary.interrupted);
    EXPECT_GT(summary.pending, 0u);
}

TEST(Isolation, PercentBreakerTripsAtThreshold)
{
    std::vector<exec::JobSpec> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(parallelJob("bogus" + std::to_string(i),
                                   "no-such-app", 600));

    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 1;
    opts.maxFailuresPct = 50; // 2 of 4
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary =
        runner.run(jobs, {&sink});
    EXPECT_TRUE(summary.breakerTripped);
}

TEST(Isolation, JournalIoFailuresAreCampaignErrors)
{
    // An unwritable journal path fails loudly with a CampaignError
    // carrying the byte offset, not a silent half-campaign.
    EXPECT_THROW(exec::CampaignJournal::create(
                     "/nonexistent-dir-critmem/journal.txt"),
                 exec::CampaignError);
    try {
        exec::CampaignJournal::create(
            "/nonexistent-dir-critmem/journal.txt");
    } catch (const exec::CampaignError &err) {
        EXPECT_EQ(err.byteOffset(), 0u);
        EXPECT_NE(std::string(err.what()).find("journal"),
                  std::string::npos);
    }
}

TEST(Isolation, JournalTracksAppendOffset)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/critmem_journal_offset." +
        std::to_string(::getpid()) + ".txt";
    std::remove(path.c_str());
    auto journal = exec::CampaignJournal::create(path);
    EXPECT_EQ(journal->appendOffset(), 0u);

    exec::JobRecord rec;
    rec.spec = parallelJob("wire", "art", 600);
    rec.index = 0;
    rec.status = exec::JobStatus::Ok;
    journal->record(rec);
    EXPECT_EQ(journal->appendOffset(),
              exec::encodeJournalRecord(rec).size());
    journal->record(rec);
    EXPECT_EQ(journal->appendOffset(),
              2 * exec::encodeJournalRecord(rec).size());
    std::remove(path.c_str());
}

TEST(Isolation, NewStatusStringsRoundTripTheWireProtocol)
{
    for (const exec::JobStatus status :
         {exec::JobStatus::Crashed, exec::JobStatus::Oom,
          exec::JobStatus::Exit, exec::JobStatus::CycleLimit}) {
        exec::JobRecord rec;
        rec.spec = parallelJob("wire", "art", 600);
        rec.index = 7;
        rec.status = status;
        rec.attempts = 2;
        rec.error = "killed by signal 11 (SIGSEGV)";
        const std::string line = exec::encodeJournalRecord(rec);
        const exec::JobRecord back =
            exec::decodeJournalRecord(line);
        EXPECT_EQ(back.status, status);
        EXPECT_EQ(back.index, rec.index);
        EXPECT_EQ(back.error, rec.error);
        EXPECT_EQ(toString(back.status), toString(status));
    }
    // And the parser rejects garbage statuses rather than guessing.
    exec::JobStatus parsed;
    EXPECT_FALSE(exec::parseJobStatus("melted", parsed));
    EXPECT_TRUE(exec::parseJobStatus("crashed", parsed));
    EXPECT_EQ(parsed, exec::JobStatus::Crashed);
    EXPECT_TRUE(exec::parseJobStatus("oom", parsed));
    EXPECT_EQ(parsed, exec::JobStatus::Oom);
    EXPECT_TRUE(exec::parseJobStatus("cycle_limit", parsed));
    EXPECT_EQ(parsed, exec::JobStatus::CycleLimit);
}

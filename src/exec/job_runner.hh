/**
 * @file
 * Parallel job runner for simulation campaigns.
 *
 * Workers take the pending jobs in submission order from one shared
 * cursor, and each keeps its job until it has a final record. Every
 * job constructs its own System, so workers share no simulation
 * state and a campaign's numbers are independent of thread count and
 * scheduling order. A single aggregation thread releases finished
 * records to the sinks in submission order; since dispatch follows
 * that order too, records reach the sinks as soon as the jobs before
 * them are done.
 *
 * Failure isolation: every job runs once, through runJob() (in the
 * worker thread, or in a forked worker under --isolate), which turns
 * a CheckViolation / TraceError / std::exception into a record (with
 * a repro command line); the campaign itself never aborts. A job is
 * deterministic, so a rerun would fail the same way: a failed record
 * is final. A per-job wall-clock timeout cooperatively cancels
 * wedged jobs (diagnostics snapshots attached to the failure record).
 *
 * Crash safety: a CampaignLog (the durable journal behind
 * critmem-sweep --campaign/--resume) can pre-supply completed
 * records — those jobs are replayed into the sinks without running —
 * and durably absorbs every freshly finished record. A cooperative
 * stop flag turns SIGINT/SIGTERM into a graceful drain: dispatch
 * stops, in-flight jobs get a bounded deadline, finished work is
 * journaled, and the summary reports the campaign as interrupted.
 */

#ifndef CRITMEM_EXEC_JOB_RUNNER_HH
#define CRITMEM_EXEC_JOB_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "exec/result_sink.hh"

namespace critmem::exec
{

/**
 * Checkpoint/resume hook of one campaign: supplies records completed
 * by a previous (interrupted) execution and durably absorbs fresh
 * ones. Implemented by CampaignJournal (exec/campaign.hh).
 */
class CampaignLog
{
  public:
    virtual ~CampaignLog() = default;

    /** Completed record for job @p index; nullptr = must run. */
    virtual const JobRecord *replay(std::size_t index) const = 0;

    /**
     * Durably record a freshly finished job. Called from worker
     * threads (never for replayed records); implementations must be
     * thread-safe and should persist record-at-a-time.
     */
    virtual void record(const JobRecord &rec) = 0;
};

/** Knobs of one campaign execution. */
struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    /**
     * Executions per job. Must be 1 (run() throws
     * std::invalid_argument otherwise): every job runs once. Kept
     * only because perfbench/campaign_bench.cpp still assigns it.
     */
    unsigned maxAttempts = 1;
    /** Emit a live [done/total] throughput/ETA line on stderr. */
    bool progress = false;

    /**
     * Wall-clock budget per job execution, ms; 0 disables. A job past
     * its budget is cooperatively cancelled and recorded as
     * JobStatus::Timeout, with channel snapshots in the error text.
     */
    std::uint64_t jobTimeoutMs = 0;

    /**
     * Graceful-shutdown request. nullptr or 0 = run normally; any
     * nonzero value stops dispatch: jobs not yet started are left
     * unrun, in-flight jobs drain (for up to 20 s, then cooperative
     * cancel), finished records are journaled/flushed, and the
     * summary comes back with interrupted = true.
     */
    const std::atomic<int> *stopRequested = nullptr;

    /**
     * Record decorator invoked on the aggregation thread, in
     * submission order, before a record reaches any sink — for fresh
     * and replayed records alike (the journal stores undecorated
     * records, so resumes stay byte-identical as long as the decorator
     * is deterministic). The arena fairness annotator hooks in here.
     */
    std::function<void(JobRecord &)> annotate;

    /**
     * Run each job in a forked, resource-governed worker process
     * (exec/worker.hh): a crash, runaway allocation or wedge is
     * contained to that job and classified (crashed/oom/timeout/
     * exit) instead of taking the campaign down. Result files stay
     * byte-identical to in-thread execution.
     */
    bool isolate = false;
    /**
     * Per-job address-space budget in MiB (RLIMIT_AS inside the
     * worker, relative to the pre-fork baseline); 0 = unlimited.
     * Only meaningful with isolate.
     */
    std::uint64_t jobMemMb = 0;
    /**
     * Circuit breaker: stop dispatching once this many jobs have
     * failed (0 = off). The campaign drains like a
     * graceful shutdown and the summary reports breakerTripped, so a
     * broken build aborts in seconds instead of burning hours —
     * resumable once fixed.
     */
    std::size_t maxFailures = 0;
    /** Circuit breaker, percent form: trip once failures
     *  reach this percentage of the total job count (0 = off). */
    unsigned maxFailuresPct = 0;
};

/** Campaign-level accounting returned by JobRunner::run(). */
struct CampaignSummary
{
    std::size_t total = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    /** Jobs replayed from a CampaignLog instead of executed. */
    std::size_t replayed = 0;
    /** Jobs never completed (graceful shutdown left them unrun). */
    std::size_t pending = 0;
    /** Isolated workers killed by an external SIGKILL and run
     *  again. */
    std::size_t respawned = 0;
    /** True when a stop request cut the campaign short. */
    bool interrupted = false;
    /** The --max-failures circuit breaker aborted dispatch. */
    bool breakerTripped = false;
    double wallMs = 0.0;
};

/** Executes a batch of jobs across a pool of worker threads. */
class JobRunner
{
  public:
    explicit JobRunner(RunnerOptions opts = {}) : opts_(opts) {}

    /**
     * Run every job, feeding @p sinks in submission order, and block
     * until the campaign completes. Safe to call repeatedly.
     *
     * With @p log, jobs whose records the log already holds are
     * replayed into the sinks without executing, and every freshly
     * finished record is handed to log->record() before it becomes
     * visible to the sinks — so the sink outputs of a resumed
     * campaign are byte-identical to an uninterrupted one.
     */
    CampaignSummary run(const std::vector<JobSpec> &jobs,
                        const std::vector<ResultSink *> &sinks,
                        CampaignLog *log = nullptr);

  private:
    RunnerOptions opts_;
};

} // namespace critmem::exec

#endif // CRITMEM_EXEC_JOB_RUNNER_HH

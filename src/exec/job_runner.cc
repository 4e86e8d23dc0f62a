#include "exec/job_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/console.hh"
#include "exec/worker.hh"

namespace critmem::exec
{

namespace
{

// lint:allow(wall-clock): wallMs/progress ETA/timeouts feed the
// stderr display and the cancellation watchdog only and are never
// serialized into result files (see JobRecord).
using Clock = std::chrono::steady_clock;

/** Why the watchdog raised a job's cooperative cancel flag. */
enum class CancelReason : int
{
    None = 0,
    Timeout = 1, ///< per-job wall-clock budget exceeded
    Drain = 2,   ///< graceful-shutdown drain deadline expired
};

/**
 * An externally SIGKILLed worker runs its job again (the execution
 * "never happened"), but only this many times:
 * a job that keeps attracting SIGKILL — e.g. the kernel OOM killer
 * with no --job-mem-mb budget set — must eventually be recorded as
 * crashed instead of looping forever.
 */
constexpr std::uint32_t kMaxRespawns = 3;

/** ms allowed for in-flight jobs to drain after a stop request. */
constexpr std::int64_t kDrainDeadlineMs = 20000;

/**
 * Watchdog-visible state of one worker. The worker publishes what it
 * is running and since when; the watchdog raises `cancel`, which the
 * simulation loop polls (System::setAbortFlag).
 */
struct WorkerSlot
{
    static constexpr std::size_t kIdle = ~std::size_t{0};

    std::atomic<std::size_t> jobIndex{kIdle};
    /** Start of the current execution, in ms since the clock's epoch. */
    std::atomic<std::int64_t> startMs{0};
    std::atomic<bool> cancel{false};
    std::atomic<int> reason{static_cast<int>(CancelReason::None)};
};

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Shared state of one campaign execution. */
struct Campaign
{
    const std::vector<JobSpec> &jobs;
    const RunnerOptions &opts;
    CampaignLog *log;

    std::vector<std::unique_ptr<WorkerSlot>> slots;

    // The jobs left to run, in submission order; each worker takes the
    // next one by advancing the cursor and keeps it until it has a
    // final record.
    std::vector<std::size_t> pending;
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> respawns{0};
    std::atomic<unsigned> activeWorkers{0};

    // Circuit breaker (--max-failures): once enough jobs have failed,
    // dispatch stops exactly like a graceful shutdown.
    std::atomic<std::size_t> failures{0};
    std::atomic<bool> breakerTripped{false};

    // Watchdog shutdown handshake.
    std::mutex watchdogMutex;
    std::condition_variable watchdogCv;
    bool watchdogDone = false;

    // Completed records, slotted by job index; the aggregator
    // releases them to the sinks in index order.
    std::mutex recordMutex;
    std::condition_variable recordCv;
    std::vector<std::unique_ptr<JobRecord>> records;
    std::size_t replayed = 0;

    explicit Campaign(const std::vector<JobSpec> &jobs_,
                      const RunnerOptions &opts_, unsigned threads,
                      CampaignLog *log_)
        : jobs(jobs_), opts(opts_), log(log_), records(jobs_.size())
    {
        for (unsigned i = 0; i < threads; ++i)
            slots.push_back(std::make_unique<WorkerSlot>());
        // Slot replayed records; everything else runs.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobRecord *old = log ? log->replay(i) : nullptr;
            if (old == nullptr) {
                pending.push_back(i);
                continue;
            }
            records[i] = std::make_unique<JobRecord>(*old);
            ++replayed;
        }
    }

    bool
    stopping() const
    {
        return breakerTripped.load(std::memory_order_relaxed) ||
            (opts.stopRequested != nullptr &&
             opts.stopRequested->load(std::memory_order_relaxed) != 0);
    }

    /** Count one failure and trip the breaker at the configured
     *  count or percentage threshold. */
    void
    noteFailure()
    {
        const std::size_t failed = failures.fetch_add(1) + 1;
        const bool overCount =
            opts.maxFailures != 0 && failed >= opts.maxFailures;
        const bool overPct = opts.maxFailuresPct != 0 &&
            !jobs.empty() &&
            failed * 100 >=
                static_cast<std::size_t>(opts.maxFailuresPct) *
                    jobs.size();
        if ((overCount || overPct) && !breakerTripped.exchange(true)) {
            Console::instance().line(
                "circuit breaker: " + std::to_string(failed) +
                " failure(s) reached the --max-failures "
                "threshold; aborting dispatch");
            recordCv.notify_one();
        }
    }

    void
    finish(std::size_t index, JobRecord record)
    {
        // Journal before the record becomes visible to the
        // aggregator: a record a sink has consumed is always durable,
        // so a resumed campaign can only re-run jobs whose output the
        // interrupted run had not emitted yet.
        if (log != nullptr)
            log->record(record);
        const bool failed = !record.ok();
        {
            std::lock_guard<std::mutex> lock(recordMutex);
            records[index] =
                std::make_unique<JobRecord>(std::move(record));
        }
        if (failed)
            noteFailure();
        recordCv.notify_one();
    }

    // Runs on a pool thread; must never reach the sinks, the
    // fairness annotator or the stats splice.
    void
    workerLoop(unsigned worker)
    {
        // Graceful shutdown stops dispatch: the jobs past the cursor
        // stay unrun (pending) and are re-run on --resume.
        while (!stopping()) {
            const std::size_t next = cursor.fetch_add(1);
            if (next >= pending.size())
                break;
            runToCompletion(worker, pending[next]);
        }
        activeWorkers.fetch_sub(1);
        // The aggregator may be waiting for a record that will now
        // never arrive (drain-abandoned job); let it re-check.
        recordCv.notify_one();
    }

    /**
     * Run job @p index once and hand its record to finish(). Only an
     * external SIGKILL of an isolated worker runs it again, so a job
     * is never re-queued. A job abandoned by the shutdown drain
     * deadline gets no record at all: it stays out of the journal and
     * the sinks, and --resume re-runs it from scratch.
     */
    // Runs on a pool thread via workerLoop.
    void
    runToCompletion(unsigned worker, std::size_t index)
    {
        const JobSpec &spec = jobs[index];
        WorkerSlot &slot = *slots[worker];
        std::uint32_t respawnCount = 0;
        for (;;) {
            slot.cancel.store(false);
            slot.reason.store(static_cast<int>(CancelReason::None));
            slot.startMs.store(nowMs());
            slot.jobIndex.store(index);

            const Clock::time_point start = Clock::now();
            JobRecord record;
            bool externalKill = false;
            if (opts.isolate) {
                // Out-of-process: the job runs in a forked worker; a
                // crash, OOM or wedge is contained to that process
                // and comes back as a classified record. The
                // watchdog's cancel flags steer the worker monitor
                // exactly like the in-thread cooperative cancel.
                WorkerLimits limits;
                limits.memMb = opts.jobMemMb;
                if (opts.jobTimeoutMs != 0)
                    limits.cpuSeconds = opts.jobTimeoutMs / 1000 * 2 + 5;
                IsolatedRun run =
                    runJobIsolated(spec, index, limits, &slot.cancel);
                externalKill = run.externalKill;
                record = std::move(run.record);
            } else {
                record = runJob(spec, index, &slot.cancel);
            }
            record.wallMs = std::chrono::duration<double, std::milli>(
                                Clock::now() - start)
                                .count();
            slot.jobIndex.store(WorkerSlot::kIdle);

            if (externalKill && respawnCount < kMaxRespawns &&
                !stopping()) {
                // An external SIGKILL (operator, kernel OOM killer)
                // is an environmental event, not a property of the
                // job: run it again so the final record — and the
                // result files — are byte-identical to a run where
                // nobody interfered.
                ++respawnCount;
                respawns.fetch_add(1);
                if (opts.progress) {
                    Console::instance().line(
                        "respawn " + spec.name +
                        " (worker killed externally, respawn " +
                        std::to_string(respawnCount) + "/" +
                        std::to_string(kMaxRespawns) + ")");
                }
                continue;
            }

            if (!record.ok() && slot.cancel.load()) {
                const auto reason =
                    static_cast<CancelReason>(slot.reason.load());
                if (reason == CancelReason::Drain)
                    return; // abandoned: no record at all
                if (reason == CancelReason::Timeout)
                    record.status = JobStatus::Timeout;
            }
            finish(index, std::move(record));
            return;
        }
    }

    /**
     * Cancellation watchdog: raises per-worker cancel flags when a
     * job exceeds its wall-clock budget (reason Timeout) and, after a
     * shutdown request has been pending for kDrainDeadlineMs, on every
     * still-running job (reason Drain).
     */
    void
    watchdogLoop()
    {
        std::int64_t stopSeenMs = -1;
        std::unique_lock<std::mutex> lock(watchdogMutex);
        while (!watchdogDone) {
            watchdogCv.wait_for(lock, std::chrono::milliseconds(20));
            if (watchdogDone)
                break;
            const std::int64_t now = nowMs();
            if (stopping() && stopSeenMs < 0)
                stopSeenMs = now;
            const bool drainExpired = stopSeenMs >= 0 &&
                now - stopSeenMs >=
                    kDrainDeadlineMs;
            for (const auto &slot : slots) {
                const std::size_t index = slot->jobIndex.load();
                if (index == WorkerSlot::kIdle)
                    continue;
                CancelReason why = CancelReason::None;
                if (drainExpired) {
                    why = CancelReason::Drain;
                } else if (opts.jobTimeoutMs != 0 &&
                           now - slot->startMs.load() >=
                               static_cast<std::int64_t>(
                                   opts.jobTimeoutMs)) {
                    why = CancelReason::Timeout;
                }
                if (why == CancelReason::None)
                    continue;
                if (!slot->cancel.exchange(true))
                    slot->reason.store(static_cast<int>(why));
            }
        }
    }

    void
    stopWatchdog()
    {
        {
            std::lock_guard<std::mutex> lock(watchdogMutex);
            watchdogDone = true;
        }
        watchdogCv.notify_all();
    }

    // The single thread allowed to feed ResultSinks and splice
    // fairness stats: the one that called JobRunner::run, whose frame
    // alone holds the sinks and the annotator.
    CampaignSummary
    aggregate(const std::vector<ResultSink *> &sinks,
              const std::function<void(JobRecord &)> &annotate)
    {
        CampaignSummary summary;
        summary.total = jobs.size();
        summary.replayed = replayed;
        const Clock::time_point start = Clock::now();
        Clock::time_point lastLine = start;

        std::size_t consumed = 0;
        for (std::size_t next = 0; next < jobs.size(); ++next) {
            std::unique_ptr<JobRecord> record;
            {
                std::unique_lock<std::mutex> lock(recordMutex);
                for (;;) {
                    if (records[next] != nullptr) {
                        record = std::move(records[next]);
                        break;
                    }
                    // A shutdown can leave this slot permanently
                    // empty (job never started, or abandoned by the
                    // drain deadline). Once every worker has exited
                    // no further record can arrive: stop here so the
                    // sinks keep a clean submission-order prefix.
                    if (stopping() && activeWorkers.load() == 0)
                        break;
                    recordCv.wait_for(lock,
                                      std::chrono::milliseconds(50));
                }
            }
            if (record == nullptr)
                break;
            ++consumed;
            if (record->ok())
                ++summary.ok;
            else
                ++summary.failed;
            if (annotate)
                annotate(*record);
            for (ResultSink *sink : sinks)
                sink->consume(*record);

            if (opts.progress) {
                const Clock::time_point now = Clock::now();
                const double elapsed =
                    std::chrono::duration<double>(now - start).count();
                const std::size_t done = consumed;
                if (now - lastLine >
                        std::chrono::milliseconds(100) ||
                    done == jobs.size()) {
                    lastLine = now;
                    const double rate =
                        elapsed > 0.0 ? done / elapsed : 0.0;
                    const double eta = rate > 0.0
                        ? static_cast<double>(jobs.size() - done) / rate
                        : 0.0;
                    char line[160];
                    std::snprintf(line, sizeof(line),
                                  "[%zu/%zu] ok=%zu failed=%zu "
                                  "%.1f jobs/s ETA %.0fs",
                                  done, jobs.size(), summary.ok,
                                  summary.failed, rate, eta);
                    Console::instance().progress(line);
                }
            }
        }
        if (opts.progress)
            Console::instance().close();
        summary.pending = jobs.size() - consumed;
        summary.interrupted = summary.pending != 0 && stopping();
        summary.respawned = respawns.load();
        summary.breakerTripped = breakerTripped.load();
        summary.wallMs = std::chrono::duration<double, std::milli>(
                             Clock::now() - start)
                             .count();
        return summary;
    }
};

} // namespace

CampaignSummary
JobRunner::run(const std::vector<JobSpec> &jobs,
               const std::vector<ResultSink *> &sinks,
               CampaignLog *log)
{
    if (opts_.maxAttempts != 1)
        throw std::invalid_argument(
            "RunnerOptions::maxAttempts must be 1: every job runs once");

    const std::size_t wanted = opts_.threads != 0
        ? opts_.threads
        : std::thread::hardware_concurrency();
    const auto threads = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min(wanted, jobs.size())));

    RunnerOptions opts = opts_;
    // The annotator, like the sinks, lives only in this frame: the
    // Campaign the workers share never sees it.
    const std::function<void(JobRecord &)> annotate =
        std::exchange(opts.annotate, nullptr);

    Campaign campaign(jobs, opts, threads, log);

    for (ResultSink *sink : sinks)
        sink->begin(jobs.size());

    campaign.activeWorkers.store(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        workers.emplace_back(
            [&campaign, w] { campaign.workerLoop(w); });

    std::thread watchdog;
    if (opts.jobTimeoutMs != 0 || opts.stopRequested != nullptr ||
        opts.maxFailures != 0 || opts.maxFailuresPct != 0)
        watchdog = std::thread([&campaign] {
            campaign.watchdogLoop();
        });

    CampaignSummary summary = campaign.aggregate(sinks, annotate);

    for (std::thread &worker : workers)
        worker.join();
    campaign.stopWatchdog();
    if (watchdog.joinable())
        watchdog.join();
    for (ResultSink *sink : sinks)
        sink->end();
    return summary;
}

} // namespace critmem::exec

#include "exec/job_runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "check/check.hh"
#include "exec/console.hh"
#include "exec/worker.hh"
#include "sim/random.hh"
#include "trace/ingest/ingest.hh"

namespace critmem::exec
{

namespace
{

// lint:allow(wall-clock): wallMs/progress ETA/timeouts feed the
// stderr display and the cancellation watchdog only and are never
// serialized into result files (see JobRecord).
using Clock = std::chrono::steady_clock;

// CancelReason lives in exec/worker.hh: the isolated-worker monitor
// interprets the same flags the watchdog raises for in-thread jobs.

/**
 * An externally SIGKILLed worker is re-dispatched at the same attempt
 * number (the execution "never happened"), but only this many times:
 * a job that keeps attracting SIGKILL — e.g. the kernel OOM killer
 * with no --job-mem-mb budget set — must eventually be recorded as
 * crashed instead of looping forever.
 */
constexpr std::uint32_t kMaxRespawns = 3;

/** One queued execution: which job and which attempt this is. */
struct Task
{
    std::size_t index;
    std::uint32_t attempt;
    /** External-SIGKILL re-dispatches of this attempt so far. */
    std::uint32_t respawns = 0;
};

/** A worker's deque: owner pops the back, thieves pop the front. */
struct WorkerQueue
{
    std::mutex mutex;
    std::deque<Task> tasks;
};

/**
 * Watchdog-visible state of one worker. The worker publishes what it
 * is running and since when; the watchdog raises `cancel`, which the
 * simulation loop polls (System::setAbortFlag).
 */
struct WorkerSlot
{
    static constexpr std::size_t kIdle = ~std::size_t{0};

    std::atomic<std::size_t> jobIndex{kIdle};
    /** Clock::now() at dispatch, in ms since the clock's epoch. */
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
    unsigned threads;
    CampaignLog *log;

    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::unique_ptr<WorkerSlot>> slots;

    // Sleep/wake coordination for workers with empty deques.
    std::mutex idleMutex;
    std::condition_variable idleCv;
    std::atomic<std::size_t> queuedTasks{0};
    std::atomic<std::size_t> unfinishedJobs{0};
    std::atomic<std::size_t> retries{0};
    std::atomic<std::size_t> respawns{0};
    std::atomic<unsigned> activeWorkers{0};

    // Circuit breaker (--max-failures): once enough jobs have failed
    // permanently, dispatch stops exactly like a graceful shutdown.
    std::atomic<std::size_t> permanentFailures{0};
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
                      const RunnerOptions &opts_, unsigned threads_,
                      CampaignLog *log_)
        : jobs(jobs_), opts(opts_), threads(threads_), log(log_),
          records(jobs_.size())
    {
        for (unsigned i = 0; i < threads; ++i) {
            queues.push_back(std::make_unique<WorkerQueue>());
            slots.push_back(std::make_unique<WorkerSlot>());
        }
    }

    bool
    stopping() const
    {
        return breakerTripped.load(std::memory_order_relaxed) ||
            (opts.stopRequested != nullptr &&
             opts.stopRequested->load(std::memory_order_relaxed) != 0);
    }

    /** Count one permanent failure and trip the breaker at the
     *  configured count or percentage threshold. */
    void
    noteFailure()
    {
        const std::size_t failures =
            permanentFailures.fetch_add(1) + 1;
        const bool overCount =
            opts.maxFailures != 0 && failures >= opts.maxFailures;
        const bool overPct = opts.maxFailuresPct != 0 &&
            !jobs.empty() &&
            failures * 100 >=
                static_cast<std::size_t>(opts.maxFailuresPct) *
                    jobs.size();
        if ((overCount || overPct) && !breakerTripped.exchange(true)) {
            Console::instance().line(
                "circuit breaker: " + std::to_string(failures) +
                " permanent failure(s) reached the --max-failures "
                "threshold; aborting dispatch");
            idleCv.notify_all();
            recordCv.notify_one();
        }
    }

    /**
     * Slot replayed records and queue the rest. Returns the number of
     * jobs that still need to run.
     */
    std::size_t
    seed()
    {
        std::size_t fresh = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobRecord *old = log ? log->replay(i) : nullptr;
            if (old != nullptr) {
                records[i] = std::make_unique<JobRecord>(*old);
                ++replayed;
                continue;
            }
            ++fresh;
        }
        unfinishedJobs.store(fresh);
        // Round-robin the fresh jobs across the workers *after* the
        // replay scan so the seeding is balanced on resume too.
        std::size_t next = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (records[i] != nullptr)
                continue;
            push(static_cast<unsigned>(next % threads),
                 {i, /*attempt=*/1});
            ++next;
        }
        return fresh;
    }

    void
    push(unsigned worker, Task task)
    {
        {
            std::lock_guard<std::mutex> lock(queues[worker]->mutex);
            queues[worker]->tasks.push_back(task);
        }
        queuedTasks.fetch_add(1);
        idleCv.notify_one();
    }

    bool
    popOwn(unsigned worker, Task &task)
    {
        std::lock_guard<std::mutex> lock(queues[worker]->mutex);
        if (queues[worker]->tasks.empty())
            return false;
        task = queues[worker]->tasks.back();
        queues[worker]->tasks.pop_back();
        return true;
    }

    bool
    steal(unsigned thief, Task &task)
    {
        for (unsigned i = 1; i < threads; ++i) {
            WorkerQueue &victim = *queues[(thief + i) % threads];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = victim.tasks.front();
                victim.tasks.pop_front();
                return true;
            }
        }
        return false;
    }

    /** Blocking acquire; false when finished or dispatch stopped. */
    bool
    acquire(unsigned worker, Task &task)
    {
        for (;;) {
            // Graceful shutdown: stop handing out work. Queued jobs
            // stay unrun (pending) and are re-run on --resume.
            if (stopping())
                return false;
            if (popOwn(worker, task) || steal(worker, task)) {
                queuedTasks.fetch_sub(1);
                return true;
            }
            std::unique_lock<std::mutex> lock(idleMutex);
            if (unfinishedJobs.load() == 0)
                return false;
            idleCv.wait_for(lock, std::chrono::milliseconds(50), [&] {
                return queuedTasks.load() > 0 ||
                    unfinishedJobs.load() == 0 || stopping();
            });
            if (unfinishedJobs.load() == 0 && queuedTasks.load() == 0)
                return false;
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
        unfinishedJobs.fetch_sub(1);
        if (failed)
            noteFailure();
        recordCv.notify_one();
        idleCv.notify_all();
    }

    // lint:thread(worker): runs on a pool thread; must never reach
    // the sinks, the fairness annotator or the stats splice.
    void
    workerLoop(unsigned worker)
    {
        Task task;
        while (acquire(worker, task))
            execute(worker, task);
        activeWorkers.fetch_sub(1);
        // The aggregator may be waiting for a record that will now
        // never arrive (drain-abandoned job); let it re-check.
        recordCv.notify_one();
    }

    /**
     * Jittered exponential backoff before a retry. Deterministic:
     * the jitter stream is seeded from (backoffSeed, attempt, job
     * name), never from time. Sleeps in slices so a shutdown request
     * cuts the wait short; returns false when interrupted.
     */
    bool
    backoff(const JobSpec &spec, std::uint32_t nextAttempt)
    {
        if (opts.backoffBaseMs == 0)
            return !stopping();
        std::uint64_t delay = opts.backoffBaseMs;
        for (std::uint32_t i = 1; i + 1 < nextAttempt; ++i) {
            delay *= 2;
            if (delay >= opts.backoffCapMs)
                break;
        }
        if (delay > opts.backoffCapMs)
            delay = opts.backoffCapMs;
        Rng rng(deriveSeed(opts.backoffSeed + nextAttempt, spec.name));
        const std::uint64_t half = delay / 2;
        delay = half + rng.below(half + 1);
        const std::int64_t deadline =
            nowMs() + static_cast<std::int64_t>(delay);
        while (nowMs() < deadline) {
            if (stopping())
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return !stopping();
    }

    // lint:thread(worker): runs on a pool thread via workerLoop.
    void
    execute(unsigned worker, Task task)
    {
        const JobSpec &spec = jobs[task.index];
        WorkerSlot &slot = *slots[worker];
        JobRecord record;
        record.index = task.index;
        record.spec = spec;
        record.attempts = task.attempt;
        record.warmupUsed = spec.warmup == kDefaultWarmup
            ? defaultWarmup(spec.quota)
            : spec.warmup;

        slot.cancel.store(false);
        slot.reason.store(static_cast<int>(CancelReason::None));
        slot.startMs.store(nowMs());
        slot.jobIndex.store(task.index);

        const Clock::time_point start = Clock::now();
        bool abandoned = false;
        bool externalKill = false;
        if (opts.isolate) {
            // Out-of-process: the job runs in a forked worker; a
            // crash, OOM or wedge is contained to that process and
            // comes back as a classified record. The watchdog's
            // cancel flags steer the worker monitor exactly like the
            // in-thread cooperative cancel.
            WorkerLimits limits;
            limits.memMb = opts.jobMemMb;
            if (opts.jobTimeoutMs != 0)
                limits.cpuSeconds = opts.jobTimeoutMs / 1000 * 2 + 5;
            IsolatedRun run = runJobIsolated(
                spec, task.index, task.attempt, limits, &slot.cancel,
                &slot.reason);
            abandoned = run.abandoned;
            externalKill = run.externalKill;
            if (!abandoned)
                record = std::move(run.record);
        } else {
            try {
                record.result =
                    executeJob(spec, &record.statsJson, &slot.cancel);
                record.status = JobStatus::Ok;
            } catch (const CheckViolation &err) {
                record.status = JobStatus::CheckViolation;
                record.error = err.what();
            } catch (const TraceError &err) {
                record.status = JobStatus::TraceError;
                record.error = err.what();
            } catch (const CycleLimitError &err) {
                record.status = JobStatus::CycleLimit;
                record.error = err.what();
            } catch (const std::bad_alloc &) {
                // Same taxonomy as an isolated worker that hit its
                // budget, minus the RLIMIT (in-thread jobs share the
                // supervisor's address space).
                record.status = JobStatus::Oom;
                record.error =
                    "std::bad_alloc (no --job-mem-mb budget set)";
            } catch (const std::exception &err) {
                record.status = JobStatus::Error;
                record.error = err.what();
            }
        }
        record.wallMs = std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count();
        slot.jobIndex.store(WorkerSlot::kIdle);

        if (abandoned) {
            // Drain deadline killed the worker: not a result at all
            // (mirrors the in-thread CancelReason::Drain path below).
            return;
        }
        if (externalKill && task.respawns < kMaxRespawns &&
            !stopping()) {
            // An external SIGKILL (operator, kernel OOM killer) is an
            // environmental event, not a property of the job:
            // re-dispatch at the same attempt number so the final
            // record — and the result files — are byte-identical to a
            // run where nobody interfered.
            respawns.fetch_add(1);
            if (opts.progress) {
                Console::instance().line(
                    "respawn " + spec.name +
                    " (worker killed externally, respawn " +
                    std::to_string(task.respawns + 1) + "/" +
                    std::to_string(kMaxRespawns) + ")");
            }
            push(worker, {task.index, task.attempt,
                          task.respawns + 1});
            return;
        }

        if (!record.ok() && slot.cancel.load()) {
            const auto reason =
                static_cast<CancelReason>(slot.reason.load());
            if (reason == CancelReason::Drain) {
                // Abandoned by the shutdown drain deadline: not a
                // result at all. Leave it out of the journal and the
                // sinks; --resume re-runs it from scratch.
                return;
            }
            if (reason == CancelReason::Timeout) {
                record.status = JobStatus::Timeout;
                // A rerun would be just as slow: never retried.
                finish(task.index, std::move(record));
                return;
            }
        }

        if (!record.ok() && task.attempt < opts.maxAttempts &&
            !stopping()) {
            // Bounded retry: requeue locally and try again after a
            // jittered exponential backoff. The rerun is
            // deterministic, so this only helps against transient
            // environmental failures — which is exactly the point of
            // recording the attempt count.
            retries.fetch_add(1);
            if (opts.progress) {
                Console::instance().line(
                    "retry " + spec.name + " (attempt " +
                    std::to_string(task.attempt + 1) + "/" +
                    std::to_string(opts.maxAttempts) + ")");
            }
            if (backoff(spec, task.attempt + 1)) {
                push(worker, {task.index, task.attempt + 1});
                return;
            }
            // Shutdown arrived mid-backoff: the retry will not run;
            // record the failure we already have.
        }
        if (!record.ok() && opts.maxAttempts > 1 &&
            task.attempt >= opts.maxAttempts &&
            (record.status == JobStatus::Crashed ||
             record.status == JobStatus::Oom ||
             record.status == JobStatus::Exit)) {
            // Repeat offender: every allowed attempt died at the
            // process level. The record is permanent — this run will
            // never dispatch the job again — and says so.
            record.error += "; quarantined after " +
                std::to_string(task.attempt) + " failed attempts";
        }
        finish(task.index, std::move(record));
    }

    /**
     * Cancellation watchdog: raises per-worker cancel flags when a
     * job exceeds its wall-clock budget (reason Timeout) and, after a
     * shutdown request has been pending for drainDeadlineMs, on every
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
                    static_cast<std::int64_t>(opts.drainDeadlineMs);
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

    // lint:thread(aggregation): the single thread allowed to feed
    // ResultSinks and splice fairness stats.
    CampaignSummary
    aggregate(const std::vector<ResultSink *> &sinks)
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
                    // empty (job still queued, or abandoned by the
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
            if (opts.annotate)
                opts.annotate(*record);
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
        summary.retries = retries.load();
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
    unsigned threads = opts_.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > jobs.size() && !jobs.empty())
        threads = static_cast<unsigned>(jobs.size());
    if (threads == 0)
        threads = 1;

    RunnerOptions opts = opts_;
    if (opts.maxAttempts == 0)
        opts.maxAttempts = 1;

    Campaign campaign(jobs, opts, threads, log);
    campaign.seed();

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

    CampaignSummary summary = campaign.aggregate(sinks);

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

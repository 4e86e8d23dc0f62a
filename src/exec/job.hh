/**
 * @file
 * Job model of the experiment-execution engine.
 *
 * A JobSpec is one isolated simulation: a complete SystemConfig, a
 * workload (parallel app, Table 4 bundle, or an alone-run baseline),
 * a quota/warmup pair and a seed. Jobs share nothing at run time —
 * every execution constructs its own System — so a campaign's results
 * are bit-identical regardless of worker-thread count or completion
 * order. See DESIGN.md ("Experiment execution engine").
 */

#ifndef CRITMEM_EXEC_JOB_HH
#define CRITMEM_EXEC_JOB_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fair/metrics.hh"
#include "sim/config.hh"
#include "system/experiment.hh"

namespace critmem::exec
{

/** Which System a job builds and which methodology drives it. */
enum class RunKind
{
    Parallel, ///< every core runs one thread of the app; cores stop
              ///< at the quota and the run time is the result
    Bundle,   ///< Table 4 bundle, one app per core; cores keep
              ///< running for contention until all reach the quota
    Alone,    ///< the app on core 0 with the other cores idle (the
              ///< weighted-speedup baseline of a bundle app)
    Trace,    ///< external trace: every core replays its slice
};

const char *toString(RunKind kind);

/** Terminal outcome of a job. */
enum class JobStatus
{
    Ok,             ///< completed, result is valid
    CheckViolation, ///< the protocol checker/watchdog fired
    TraceError,     ///< a trace file failed to parse
    Error,          ///< any other exception (bad spec, ...)
    Timeout,        ///< cooperatively aborted at the wall-clock limit
    Crashed,        ///< isolated worker died on a signal (--isolate)
    Oom,            ///< per-job memory budget exhausted (--job-mem-mb)
    Exit,           ///< isolated worker exited nonzero without a record
    CycleLimit,     ///< stopped at the safety cycle limit (truncated)
};

/** Parse a toString(JobStatus) name back; false on unknown names. */
bool parseJobStatus(const std::string &name, JobStatus &out);

const char *toString(JobStatus status);

/** One simulation to run, self-contained and immutable once queued. */
struct JobSpec
{
    /** Unique campaign-wide key, e.g. "art/maxstall". */
    std::string name;
    RunKind kind = RunKind::Parallel;
    /** App name (Parallel/Alone) or bundle name (Bundle). */
    std::string workload;
    /** Complete configuration; cfg.seed is this job's seed. */
    SystemConfig cfg;
    std::uint64_t quota = 24000;
    /** kDefaultWarmup resolves via defaultWarmup(quota) at run time. */
    std::uint64_t warmup = kDefaultWarmup;
    /**
     * cfg was derived from SystemConfig::multiprogDefault(); recorded
     * so the repro command can start from the right preset.
     */
    bool multiprogPreset = false;
    /** Capture the full stats tree as JSON into the record. */
    bool captureStats = false;
    /** Free-form labels a driver can attach (figure row/column...). */
    std::map<std::string, std::string> tags;

    /**
     * Cores stop fetching at the quota (the parallel methodology);
     * bundles keep every core running until all reach it.
     */
    bool stopAtQuota() const { return kind != RunKind::Bundle; }
};

/** A job at the default warmup, with no stats capture or tags. */
JobSpec makeJob(std::string name, RunKind kind, std::string workload,
                SystemConfig cfg, std::uint64_t quota);

/** Outcome of one job, as delivered to the result sinks. */
struct JobRecord
{
    /** Position in the submitted batch; sinks receive records in
     *  this order regardless of completion order. */
    std::size_t index = 0;
    JobSpec spec;
    JobStatus status = JobStatus::Ok;
    /**
     * Executions of the job: always 1, since every job runs once.
     * Kept as a JSONL, CSV and journal column so result files keep
     * their layout and older journals still replay.
     */
    std::uint32_t attempts = 1;
    /** Warmup actually used (spec.warmup with the sentinel resolved). */
    std::uint64_t warmupUsed = 0;
    /** What the failed execution threw; empty when Ok. */
    std::string error;
    /** Simulation outcome; only meaningful when status == Ok. */
    RunResult result;
    /** Stats tree JSON when spec.captureStats; else empty. */
    std::string statsJson;
    /**
     * Fairness metrics, filled in by the arena annotator
     * (exec/arena.hh) for Bundle records whose alone baselines were
     * available; fairness.valid stays false otherwise. Derived
     * deterministically from other records, so never journaled.
     */
    fair::FairnessMetrics fairness;
    /** Wall-clock of the execution, ms. Informational only —
     *  never serialized, so result files stay deterministic. */
    double wallMs = 0.0;

    bool ok() const { return status == JobStatus::Ok; }
};

/**
 * Parse a decimal unsigned number; throws std::runtime_error naming
 * @p key on anything else (empty, sign, junk, overflow).
 */
std::uint64_t parseUint(const std::string &key, const std::string &value);

/** Parse 1/true/yes or 0/false/no; throws naming @p key otherwise. */
bool parseBool(const std::string &key, const std::string &value);

/**
 * Apply one configuration setting. The keys are both the .sweep
 * variant settings and critmem-sim's config flags (--KEY VALUE):
 * sched, predictor, entries, reset, counter-width, prob-shift,
 * ranks, channels, speed, map (page | block), lq, dirty (the
 * prewarmed L2's dirty fraction), burstiness (overrides every app's),
 * prefetch, closed-page, split-wq, morse-cmds, cores, seed, inject
 * (implies the checker) and inject-period. Throws std::runtime_error
 * on unknown keys or unparsable values.
 */
void applySetting(SystemConfig &cfg, const std::string &key,
                  const std::string &value);

/** A critmem-sim invocation: the job plus what to do with it. */
struct SimCommand
{
    JobSpec spec;
    /** --fairness: also run each bundle app alone. */
    bool fairness = false;
    /** --stats: print the stats tree. */
    bool dumpStats = false;
    /** --stats-json FILE ('-' = stdout); empty = none. */
    std::string statsJsonPath;
    bool listWorkloads = false;
    bool listSchedulers = false;
    bool quiet = false;
    bool help = false;
};

/**
 * Parse critmem-sim's arguments (argv without the program name): the
 * inverse of reproCommand(). Every config flag --KEY VALUE is
 * applySetting(cfg, KEY, VALUE); --prefetch, --closed-page and
 * --split-wq pass "1". Registers the --trace sources (after the flag
 * pass, so the recovery flags apply wherever they appear). Unless a
 * listing or --help was asked for, resolves the workload: exactly
 * one of --app, --bundle or a lone --trace. The core count defaults
 * to the run kind's (the bundle's app count, the trace's core count,
 * else the preset's); --cores overrides it. Throws std::runtime_error
 * naming the offending flag.
 */
SimCommand parseSimCommand(const std::vector<std::string> &args);

/**
 * A critmem-sim command line reproducing @p spec in isolation —
 * attached to every failure record so a crash found mid-campaign can
 * be replayed immediately. parseSimCommand() of it rebuilds the
 * spec's kind, workload, quota, warmup, preset and config.
 */
std::string reproCommand(const JobSpec &spec);

/**
 * Build the System @p spec describes, ready for runSystem() with
 * spec.quota, spec.warmup and spec.stopAtQuota(). Throws
 * std::runtime_error on an invalid config, an unknown workload or a
 * core count the workload cannot use, and TraceError when a trace
 * fails to decode.
 */
std::unique_ptr<System> buildSystem(const JobSpec &spec);

/**
 * Execute one job synchronously in the calling thread: buildSystem()
 * then runSystem().
 * Throws CheckViolation / TraceError / std::runtime_error; runJob()
 * maps those onto JobStatus (callers running jobs by hand get the
 * raw exception).
 * @param statsJson When non-null and spec.captureStats, receives the
 *        finished System's stats tree as JSON.
 * @param cancel When non-null, polled by the simulation loop; setting
 *        it aborts the run with CheckViolation (diagnostics snapshots
 *        attached). The JobRunner's per-job timeout watchdog and the
 *        graceful-shutdown drain deadline both drive this flag.
 */
RunResult executeJob(const JobSpec &spec,
                     std::string *statsJson = nullptr,
                     const std::atomic<bool> *cancel = nullptr);

/**
 * The record of job @p index before it runs: index, spec and the
 * resolved warmup.
 */
JobRecord newRecord(const JobSpec &spec, std::size_t index);

/**
 * Run job @p index once and classify its outcome — the one
 * execution path of the in-thread runner and of a forked --isolate
 * worker alike. executeJob()'s exceptions become statuses:
 * CheckViolation, TraceError, CycleLimitError, std::bad_alloc -> Oom
 * (naming @p memBudgetMb, the --job-mem-mb budget the job runs under;
 * 0 = none) and any other std::exception -> Error. @p cancel is
 * executeJob()'s cooperative-cancel flag. wallMs is left to the
 * caller.
 */
JobRecord runJob(const JobSpec &spec, std::size_t index,
                 const std::atomic<bool> *cancel,
                 std::uint64_t memBudgetMb = 0);

/**
 * Derive a per-job seed from a campaign seed and the job's name —
 * stable across platforms, independent of expansion order, and
 * decorrelated between jobs (splitmix64 over an FNV-1a name hash).
 */
std::uint64_t deriveSeed(std::uint64_t campaignSeed,
                         const std::string &jobName);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_JOB_HH

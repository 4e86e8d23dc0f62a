/**
 * @file
 * Shared helpers for the per-figure/table bench binaries: canonical
 * configurations, quota handling and row formatting. Every bench
 * prints the same rows/series as the corresponding figure or table of
 * the paper; CRITMEM_INSTRS (and CRITMEM_WARMUP) scale simulation
 * length.
 */

#ifndef CRITMEM_BENCH_BENCH_UTIL_HH
#define CRITMEM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/job_runner.hh"
#include "exec/table.hh"
#include "fair/metrics.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "system/experiment.hh"
#include "trace/workloads.hh"

namespace critmem::bench
{

// Row formatting lives in the exec layer (shared with critmem-sweep).
using exec::Averager;
using exec::makeJob;
using exec::printHeader;
using exec::printRow;

/** Default per-core quota for bench runs (scaled by CRITMEM_INSTRS). */
inline std::uint64_t
quota(std::uint64_t fallback = 24000)
{
    return defaultQuota(fallback);
}

/**
 * CRITMEM_CHECK=1 in the environment attaches the protocol invariant
 * checker to every bench run: any violation aborts the bench via
 * CheckViolation instead of silently producing a bad figure.
 */
inline bool
checkRequested()
{
    const char *env = std::getenv("CRITMEM_CHECK");
    return env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0');
}

/** Apply checkRequested() to @p cfg. */
inline SystemConfig
withCheckEnv(SystemConfig cfg)
{
    if (checkRequested())
        cfg.check.enabled = true;
    return cfg;
}

/** The paper's 8-core baseline: FR-FCFS, no criticality. */
inline SystemConfig
parallelBase()
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::FrFcfs;
    cfg.crit.predictor = CritPredictor::None;
    return withCheckEnv(cfg);
}

/** The multiprogrammed baseline (PAR-BS, Section 5.8.2). */
inline SystemConfig
multiprogBase()
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    cfg.sched.algo = SchedAlgo::ParBs;
    cfg.crit.predictor = CritPredictor::None;
    return withCheckEnv(cfg);
}

/** Attach a criticality predictor + scheduler to a configuration. */
inline SystemConfig
withPredictor(SystemConfig cfg, CritPredictor pred,
              std::uint32_t entries = 64,
              SchedAlgo algo = SchedAlgo::CasRasCrit)
{
    cfg.crit.predictor = pred;
    cfg.crit.tableEntries = entries;
    cfg.sched.algo = algo;
    return cfg;
}

/** One Parallel job run serially: @p app on every core under @p cfg. */
inline RunResult
runApp(const SystemConfig &cfg, const AppParams &app, std::uint64_t q)
{
    return exec::executeJob(
        makeJob(app.name, exec::RunKind::Parallel, app.name, cfg, q));
}

/**
 * Fairness of bundle job "<bundle>/<variant>" in @p sink against the
 * "alone/<app>" baselines of the same campaign.
 */
inline fair::FairnessMetrics
bundleFairness(const exec::MemorySink &sink, const Bundle &bundle,
               const std::string &variant, std::uint64_t q)
{
    std::vector<double> alone;
    for (const std::string &app : bundle.apps)
        alone.push_back(sink.result("alone/" + app).ipc(0, q));
    return fair::computeFairness(
        fair::sharedIpcs(sink.result(bundle.name + "/" + variant), q,
                         static_cast<std::uint32_t>(alone.size())),
        alone);
}

/**
 * Run a bench campaign on the execution engine and buffer the results
 * for table construction. CRITMEM_JOBS caps the worker threads
 * (default: all cores); the numbers are identical either way.
 */
inline void
runCampaign(const std::vector<exec::JobSpec> &jobs,
            exec::MemorySink &sink)
{
    exec::RunnerOptions opts;
    if (const char *env = std::getenv("CRITMEM_JOBS"))
        opts.threads = static_cast<unsigned>(std::atoi(env));
    exec::JobRunner runner(opts);
    const std::vector<exec::ResultSink *> sinks{&sink};
    runner.run(jobs, sinks);
}

} // namespace critmem::bench

#endif // CRITMEM_BENCH_BENCH_UTIL_HH

/**
 * @file
 * The measurement methodology shared by every run: the prewarm /
 * warmup / measured-window sequence, result aggregation and speedup.
 * Runs are described and built by exec::JobSpec (exec/job.hh);
 * fairness metrics live in fair/metrics.hh.
 */

#ifndef CRITMEM_SYSTEM_EXPERIMENT_HH
#define CRITMEM_SYSTEM_EXPERIMENT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace critmem
{

/** Aggregated outcome of one simulation run. */
struct RunResult
{
    /** Cycles until every core finished (the execution time). */
    Cycle cycles = 0;
    /** Per-core cycle at which the commit quota was reached. */
    std::vector<Cycle> finishCycles;
    /** Per-core committed micro-ops (>= quota). */
    std::vector<std::uint64_t> committed;

    // Core-side aggregates (summed over cores).
    std::uint64_t dynamicLoads = 0;
    std::uint64_t blockingLoads = 0;
    std::uint64_t robBlockedCycles = 0;
    std::uint64_t coreCycles = 0;
    std::uint64_t loadsIssued = 0;
    std::uint64_t critLoadsIssued = 0;
    std::uint64_t lqFullCycles = 0;

    // Memory-side aggregates.
    double l2MissLatCrit = 0.0;    ///< mean, CPU cycles
    double l2MissLatNonCrit = 0.0; ///< mean, CPU cycles
    std::uint64_t demandMisses = 0;
    std::uint64_t critMissCount = 0;
    std::uint64_t nonCritMissCount = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t dramReads = 0;

    // Predictor-side aggregates.
    std::uint64_t maxCbpValue = 0;   ///< Table 5 raw maximum
    std::uint64_t cbpPopulated = 0;  ///< flagged entries, summed

    /** Per-core IPC over the measurement window. */
    double
    ipc(std::uint32_t core, std::uint64_t quota) const
    {
        const Cycle fin = finishCycles[core];
        return fin == 0 || fin == kNoCycle
            ? 0.0
            : static_cast<double>(quota) / static_cast<double>(fin);
    }
};

/** The default warmup: half the quota (warmup instructions). */
std::uint64_t defaultWarmup(std::uint64_t quota);

/** Sentinel warmup value meaning "use defaultWarmup(quota)". */
inline constexpr std::uint64_t kDefaultWarmup = ~std::uint64_t{0};

/** Collect a RunResult from a finished System. */
RunResult collect(System &sys);

/** A run stopped at System::run()'s safety cycle limit. */
class CycleLimitError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Drive an already-constructed System through the standard
 * methodology — cache prewarm, warmup window, measured run — and
 * collect the result. The System outlives the call, so callers can
 * export its stats or diagnostics afterwards.
 * @param warmup Warmup micro-ops; kDefaultWarmup runs
 *        defaultWarmup(quota).
 * @param stopAtQuota See System::run().
 * @throws CycleLimitError when the warmup or the measured run stopped
 *         at the safety cycle limit: the numbers would describe a
 *         truncated run.
 */
RunResult runSystem(System &sys, std::uint64_t quota,
                    std::uint64_t warmup = kDefaultWarmup,
                    bool stopAtQuota = true);

/** baseCycles / testCycles. */
inline double
speedup(const RunResult &base, const RunResult &test)
{
    return static_cast<double>(base.cycles) /
        static_cast<double>(test.cycles);
}

} // namespace critmem

#endif // CRITMEM_SYSTEM_EXPERIMENT_HH

/**
 * @file
 * Multiprogrammed fairness metrics (Snavely/Tullsen weighted speedup,
 * Luo et al. harmonic speedup, and the maximum-slowdown / unfairness
 * pair popularized by the BLISS line of work).
 *
 * All four derive from per-core slowdowns, slowdown_i = IPC_alone,i /
 * IPC_shared,i: how much slower application i runs when sharing the
 * memory system than when running alone on the same hardware. The
 * metrics work on plain vectors so 2-, 4- and 8-core systems all use
 * the same code path.
 */

#ifndef CRITMEM_FAIR_METRICS_HH
#define CRITMEM_FAIR_METRICS_HH

#include <cstdint>
#include <vector>

namespace critmem
{

struct RunResult;

namespace fair
{

/** Derived fairness metrics of one multiprogrammed run. */
struct FairnessMetrics
{
    /**
     * True when every core had strictly positive shared and alone
     * IPC; all other fields are zero when false (a core that never
     * reached its quota has no meaningful slowdown).
     */
    bool valid = false;
    /** Per-core slowdown, IPC_alone / IPC_shared. */
    std::vector<double> slowdown;
    /** Sum over cores of IPC_shared / IPC_alone (system throughput). */
    double weightedSpeedup = 0.0;
    /** N / sum of slowdowns (balances throughput and fairness). */
    double harmonicSpeedup = 0.0;
    /** Largest per-core slowdown (the BLISS fairness headline). */
    double maxSlowdown = 0.0;
    /** Max slowdown / min slowdown (1.0 = perfectly fair). */
    double unfairness = 0.0;
};

/**
 * Compute all metrics from per-core shared and alone IPCs. The
 * vectors must be the same length, one entry per core.
 */
FairnessMetrics computeFairness(const std::vector<double> &sharedIpc,
                                const std::vector<double> &aloneIpc);

/**
 * Per-core shared IPCs of a finished multiprogrammed run, one entry
 * per core in [0, numCores).
 */
std::vector<double> sharedIpcs(const RunResult &run, std::uint64_t quota,
                               std::uint32_t numCores);

} // namespace fair
} // namespace critmem

#endif // CRITMEM_FAIR_METRICS_HH

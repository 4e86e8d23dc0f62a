/**
 * @file
 * Thread Cluster Memory scheduling (Kim et al. [12]).
 *
 * Every quantum, threads are split into a latency-sensitive cluster
 * (the least memory-intensive threads whose combined bandwidth share
 * stays below a threshold) and a bandwidth-sensitive cluster. Latency-
 * sensitive threads outrank everyone; inside the bandwidth cluster,
 * thread ranks are periodically shuffled for fairness. The final
 * tiebreak is FR-FCFS — or, in the paper's TCM+MaxStallTime hybrid
 * (Section 5.8.2), criticality-aware FR-FCFS.
 */

#ifndef CRITMEM_SCHED_TCM_HH
#define CRITMEM_SCHED_TCM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"
#include "sim/random.hh"

namespace critmem
{

/** TCM policy, optionally hybridized with criticality. */
class TcmScheduler : public Scheduler
{
  public:
    /**
     * Re-clustering quantum, DRAM cycles: this simulator's value,
     * scaled to its short windows. The shuffle runs ten times a
     * quantum.
     */
    static constexpr DramCycle kQuantum = 100000;
    /**
     * Bandwidth share the latency-sensitive cluster may take (TCM's
     * ClusterThresh [12]).
     */
    static constexpr double kClusterThresh = 0.10;

    /**
     * @param numCores Number of hardware threads.
     * @param critTiebreak Replace the FR-FCFS tiebreak with
     *        criticality-aware FR-FCFS (TCM+Crit hybrid).
     * @param seed Seed for the fairness shuffle.
     * @param quantum Re-clustering quantum, DRAM cycles.
     * @param clusterThresh Latency-cluster bandwidth share, in (0, 1).
     */
    TcmScheduler(std::uint32_t numCores, bool critTiebreak,
                 std::uint64_t seed, DramCycle quantum = kQuantum,
                 double clusterThresh = kClusterThresh);

    int pick(std::uint32_t channel,
             const std::vector<SchedCandidate> &cands,
             DramCycle now) override;

    void onIssue(std::uint32_t channel, const SchedCandidate &cand,
                 DramCycle now) override;

    void tick(DramCycle now) override;

    DramCycle
    nextEventCycle(DramCycle now) const override
    {
        (void)now;
        return std::min(nextQuantum_, nextShuffle_);
    }

    const char *
    name() const override
    {
        return critTiebreak_ ? "TCM+Crit" : "TCM";
    }

    /** @return true when @p core is in the latency-sensitive cluster. */
    bool
    inLatencyCluster(CoreId core) const
    {
        return latencyCluster_[core];
    }

  private:
    void recluster();
    void shuffle();

    const std::uint32_t numCores_;
    const DramCycle quantum_;
    const double clusterThresh_;
    const bool critTiebreak_;
    Rng rng_;

    /** CAS commands served per core in the current quantum. */
    std::vector<std::uint64_t> served_;
    std::vector<bool> latencyCluster_;
    /** Smaller rank = higher priority. */
    std::vector<std::uint32_t> rank_;
    DramCycle nextQuantum_;
    DramCycle nextShuffle_;
};

} // namespace critmem

#endif // CRITMEM_SCHED_TCM_HH

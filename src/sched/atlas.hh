/**
 * @file
 * ATLAS scheduling (Kim et al., HPCA 2010 [11]) — an extension beyond
 * the paper's comparison set, included because the paper cites it as
 * the other major fairness-oriented scheduler family.
 *
 * ATLAS ranks threads by Least-Attained-Service over long quanta:
 * a thread that has received little memory service recently is
 * prioritized over memory hogs, which (like TCM's latency cluster)
 * implicitly favors latency-sensitive threads. Attained service decays
 * geometrically across quanta. Within a rank: row hits, then age.
 */

#ifndef CRITMEM_SCHED_ATLAS_HH
#define CRITMEM_SCHED_ATLAS_HH

#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"

namespace critmem
{

/** ATLAS (adaptive per-thread least-attained-service) policy. */
class AtlasScheduler : public Scheduler
{
  public:
    /**
     * Ranking quantum, DRAM cycles: this simulator's value, scaled to
     * its short windows.
     */
    static constexpr DramCycle kQuantum = 100000;
    /** Weight of past quanta in attained service (ATLAS's alpha [11]). */
    static constexpr double kDecay = 0.875;

    /**
     * @param numCores Hardware threads to rank.
     * @param quantum Ranking quantum, DRAM cycles.
     * @param decay Geometric decay of attained service per quantum.
     */
    explicit AtlasScheduler(std::uint32_t numCores,
                            DramCycle quantum = kQuantum,
                            double decay = kDecay);

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
        return nextQuantum_; // rerank() only fires at quantum edges
    }

    const char *name() const override { return "ATLAS"; }

    /** Attained service score of @p core (for tests). */
    double attained(CoreId core) const { return attained_[core]; }

  private:
    void rerank();

    const std::uint32_t numCores_;
    const DramCycle quantum_;
    const double decay_;
    DramCycle nextQuantum_;
    /** Decayed CAS-count service received per thread. */
    std::vector<double> attained_;
    /** Service accrued in the current quantum. */
    std::vector<double> current_;
    /** Smaller = higher priority (least attained service first). */
    std::vector<std::uint32_t> rank_;
};

} // namespace critmem

#endif // CRITMEM_SCHED_ATLAS_HH

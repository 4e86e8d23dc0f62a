/**
 * @file
 * Dynamic-threshold criticality scheduling — a self-tuning variant of
 * the paper's Crit-CASRAS policy (cf. the dyn-thresh schedulers in
 * GPGPU-Sim's controller zoo).
 *
 * The fixed policies treat any nonzero criticality magnitude as
 * critical, so when the predictor tags most loads the "critical" class
 * stops discriminating. This variant keeps a magnitude threshold and
 * only treats candidates at or above it as critical; each epoch it
 * compares the fraction of issued CAS that were treated critical
 * against a target and doubles (too many) or halves (too few) the
 * threshold, clamped at 1. Within a class: row hits, magnitude, age.
 */

#ifndef CRITMEM_SCHED_DYN_THRESH_HH
#define CRITMEM_SCHED_DYN_THRESH_HH

#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"

namespace critmem
{

/** Criticality FR-FCFS with an adaptive magnitude threshold. */
class DynThreshCritScheduler : public Scheduler
{
  public:
    /** Adaptation epoch, DRAM cycles: this simulator's choice. */
    static constexpr DramCycle kEpoch = 50000;
    /** Target critical share of CAS issues: this simulator's choice. */
    static constexpr std::uint32_t kTargetPct = 25;

    /**
     * @param epoch Threshold-adaptation period, DRAM cycles.
     * @param targetPct Target percentage of CAS issues treated
     *                  critical, in [1, 100].
     */
    explicit DynThreshCritScheduler(DramCycle epoch = kEpoch,
                                    std::uint32_t targetPct = kTargetPct);

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
        return nextEpoch_; // adapt() only fires at epoch edges
    }

    const char *name() const override { return "DynThresh-Crit"; }

    /** Current criticality threshold (for tests). */
    CritLevel threshold() const { return thresh_; }
    /** CAS issued in the current epoch (for tests). */
    std::uint64_t casIssued() const { return casIssued_; }
    /** Critical-class CAS issued in the current epoch (for tests). */
    std::uint64_t critIssued() const { return critIssued_; }

  private:
    void adapt();

    const DramCycle epoch_;
    const std::uint32_t targetPct_;
    DramCycle nextEpoch_;
    CritLevel thresh_ = 1;
    std::uint64_t casIssued_ = 0;
    std::uint64_t critIssued_ = 0;
};

} // namespace critmem

#endif // CRITMEM_SCHED_DYN_THRESH_HH

/**
 * @file
 * The paper's criticality-aware FR-FCFS variants (Section 3.2).
 *
 * Crit-CASRAS orders: critical CAS > critical RAS > non-critical CAS >
 * non-critical RAS. CASRAS-Crit orders: critical CAS > non-critical
 * CAS > critical RAS > non-critical RAS — realizable by prepending the
 * criticality magnitude to the existing age comparator. Within a
 * priority class, larger criticality magnitude wins, then age.
 *
 * Starvation control: a non-critical request older than the cap
 * (6,000 DRAM cycles) is promoted to maximum criticality. The paper
 * observes this threshold is never reached for its workloads;
 * starvationPromotions() counts the promoted requests served, for the
 * tests to bound.
 */

#ifndef CRITMEM_SCHED_CRIT_FRFCFS_HH
#define CRITMEM_SCHED_CRIT_FRFCFS_HH

#include <cstdint>

#include "sched/scheduler.hh"

namespace critmem
{

/** Which arbitration arrangement of Section 3.2 to use. */
enum class CritOrder
{
    CritFirst,   ///< Crit-CASRAS: criticality outranks CAS-over-RAS
    CasRasFirst, ///< CASRAS-Crit: CAS-over-RAS outranks criticality
};

/** Criticality-aware FR-FCFS. */
class CritFrFcfsScheduler : public Scheduler
{
  public:
    /** Non-critical age cap of Section 3.2, DRAM cycles. */
    static constexpr std::uint32_t kStarvationCap = 6000;

    /**
     * @param order Arbitration arrangement.
     * @param starvationCap Non-critical age cap in DRAM cycles; 0
     *        disables promotion.
     */
    explicit CritFrFcfsScheduler(CritOrder order,
                                 std::uint32_t starvationCap =
                                     kStarvationCap)
        : order_(order), starvationCap_(starvationCap)
    {
    }

    int pick(std::uint32_t channel,
             const std::vector<SchedCandidate> &cands,
             DramCycle now) override;

    void onIssue(std::uint32_t channel, const SchedCandidate &cand,
                 DramCycle now) override;

    const char *
    name() const override
    {
        return order_ == CritOrder::CritFirst ? "Crit-CASRAS"
                                              : "CASRAS-Crit";
    }

    /** Non-critical requests whose CAS issued past the cap. */
    std::uint64_t starvationPromotions() const
    {
        return starvationPromotions_;
    }

  private:
    /** True when the cap promotes @p cand to maximum criticality. */
    bool
    starved(const SchedCandidate &cand, DramCycle now) const
    {
        return starvationCap_ && cand.crit == 0 &&
            now - cand.arrival > starvationCap_;
    }

    CritOrder order_;
    std::uint32_t starvationCap_;
    std::uint64_t starvationPromotions_ = 0;
};

} // namespace critmem

#endif // CRITMEM_SCHED_CRIT_FRFCFS_HH

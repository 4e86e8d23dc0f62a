/**
 * @file
 * BLISS — the Blacklisting memory scheduler (Subramanian et al.,
 * ICCD 2014 / TPDS 2016). An extension beyond the paper's comparison
 * set, included as the standard low-complexity fairness contender.
 *
 * BLISS observes that application-aware ranking is expensive and that
 * most interference comes from streaks: an application that gets many
 * *consecutive* requests served is a hog. The controller tracks the
 * last-served application per channel and a streak counter; when the
 * streak reaches a threshold the application is blacklisted. Requests
 * from non-blacklisted applications win; within a group, row hits and
 * then age decide. All blacklists clear every clearing interval so
 * nobody is penalized forever.
 */

#ifndef CRITMEM_SCHED_BLISS_HH
#define CRITMEM_SCHED_BLISS_HH

#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"

namespace critmem
{

/** Blacklisting (BLISS) scheduling policy. */
class BlissScheduler : public Scheduler
{
  public:
    /** Blacklisting threshold of Subramanian et al.: 4 requests. */
    static constexpr std::uint32_t kThreshold = 4;
    /** Their clearing interval, 10,000 cycles (here DRAM cycles). */
    static constexpr DramCycle kClearInterval = 10000;

    /**
     * @param channels Channels served (per-channel streak tracking).
     * @param numCores Hardware threads that can be blacklisted.
     * @param threshold Consecutive same-core CAS issues that trigger
     *                  blacklisting.
     * @param clearInterval Blacklist clearing period, DRAM cycles.
     */
    BlissScheduler(std::uint32_t channels, std::uint32_t numCores,
                   std::uint32_t threshold = kThreshold,
                   DramCycle clearInterval = kClearInterval);

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
        return nextClear_; // tick() only clears at interval edges
    }

    const char *name() const override { return "BLISS"; }

    /** Whether @p core is currently blacklisted (for tests). */
    bool isBlacklisted(CoreId core) const { return blacklisted_[core]; }
    /** Current same-core streak on @p channel (for tests). */
    std::uint32_t streak(std::uint32_t channel) const
    {
        return streak_[channel];
    }
    /** Next blacklist-clearing cycle (for tests). */
    DramCycle nextClear() const { return nextClear_; }

  private:
    const std::uint32_t numCores_;
    const std::uint32_t threshold_;
    const DramCycle clearInterval_;
    DramCycle nextClear_;
    /** Per-channel core whose CAS was served last. */
    std::vector<CoreId> lastCore_;
    /** Per-channel count of consecutive CAS served to lastCore_. */
    std::vector<std::uint32_t> streak_;
    /** Per-core blacklist bit (std::uint8_t: no vector<bool> refs). */
    std::vector<std::uint8_t> blacklisted_;
};

} // namespace critmem

#endif // CRITMEM_SCHED_BLISS_HH

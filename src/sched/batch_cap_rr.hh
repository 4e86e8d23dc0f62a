/**
 * @file
 * Batch-cap round-robin scheduling — a GPU-controller-style fairness
 * baseline (cf. the capped FR-FCFS variants shipped with GPGPU-Sim).
 *
 * Each channel serves CAS commands for one core at a time, up to a
 * fixed batch cap, then rotates to the next core (in core-id order)
 * that has work. Within the active core's batch the policy is plain
 * FR-FCFS (row hits, then age), so row locality is preserved inside a
 * batch while no core can monopolize a channel across batches.
 */

#ifndef CRITMEM_SCHED_BATCH_CAP_RR_HH
#define CRITMEM_SCHED_BATCH_CAP_RR_HH

#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"

namespace critmem
{

/** Capped per-core batches served round-robin. */
class BatchCapRrScheduler : public Scheduler
{
  public:
    /** CAS issues per batch: this simulator's choice, not a paper's. */
    static constexpr std::uint32_t kCap = 8;

    /**
     * @param channels Channels served (per-channel rotation state).
     * @param numCores Hardware threads in the rotation.
     * @param cap CAS issues served per core before rotating.
     */
    BatchCapRrScheduler(std::uint32_t channels, std::uint32_t numCores,
                        std::uint32_t cap = kCap);

    int pick(std::uint32_t channel,
             const std::vector<SchedCandidate> &cands,
             DramCycle now) override;

    void onIssue(std::uint32_t channel, const SchedCandidate &cand,
                 DramCycle now) override;

    const char *name() const override { return "BatchCap-RR"; }

    /** Core currently holding @p channel's batch (for tests). */
    CoreId activeCore(std::uint32_t channel) const
    {
        return active_[channel];
    }
    /** CAS issues served in the current batch (for tests). */
    std::uint32_t served(std::uint32_t channel) const
    {
        return served_[channel];
    }

  private:
    /** Rotation distance from @p channel's active core to @p core. */
    std::uint32_t rrDistance(std::uint32_t channel, CoreId core) const;

    const std::uint32_t numCores_;
    const std::uint32_t cap_;
    /** Per-channel core whose batch is being served. */
    std::vector<CoreId> active_;
    /** Per-channel CAS issues served to the active core so far. */
    std::vector<std::uint32_t> served_;
};

} // namespace critmem

#endif // CRITMEM_SCHED_BATCH_CAP_RR_HH

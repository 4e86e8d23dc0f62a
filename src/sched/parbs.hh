/**
 * @file
 * Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda [17]).
 *
 * Requests are grouped into batches: when no marked request remains in
 * a channel, the oldest `markingCap` requests of each (thread, bank)
 * pair are marked. Marked requests strictly outrank unmarked ones,
 * which bounds inter-thread starvation. Within a batch, threads are
 * ranked shortest-job-first by their maximum per-bank marked load
 * (the "max rule"), preserving intra-thread bank parallelism.
 * Priority: marked > row-hit > thread rank > age.
 */

#ifndef CRITMEM_SCHED_PARBS_HH
#define CRITMEM_SCHED_PARBS_HH

#include <cstdint>
#include <vector>

#include "sched/queue_mirror.hh"
#include "sched/scheduler.hh"

namespace critmem
{

/** PAR-BS policy. */
class ParBsScheduler : public Scheduler
{
  public:
    /** Requests marked per (thread, bank): Mutlu & Moscibroda's 5. */
    static constexpr std::uint32_t kMarkingCap = 5;

    /**
     * @param channels Number of DRAM channels.
     * @param numCores Number of cores (threads).
     * @param banksPerRank Banks per rank, for bank indexing.
     * @param markingCap Requests marked per (thread, bank).
     */
    ParBsScheduler(std::uint32_t channels, std::uint32_t numCores,
                   std::uint32_t banksPerRank,
                   std::uint32_t markingCap = kMarkingCap);

    int pick(std::uint32_t channel,
             const std::vector<SchedCandidate> &cands,
             DramCycle now) override;

    void onEnqueue(std::uint32_t channel, const MemRequest &req,
                   const DramCoord &coord, DramCycle now) override;
    void onIssue(std::uint32_t channel, const SchedCandidate &cand,
                 DramCycle now) override;

    const char *name() const override { return "PAR-BS"; }

    /** Number of batches formed so far (all channels). */
    std::uint64_t batchesFormed() const { return batchesFormed_; }

  private:
    void formBatch(std::uint32_t channel);

    QueueMirror mirror_;
    const std::uint32_t numCores_;
    const std::uint32_t banksPerRank_;
    const std::uint32_t markingCap_;
    /** Thread rank per channel; smaller = higher priority. */
    std::vector<std::vector<std::uint32_t>> rank_;
    /**
     * Ids of each channel's marked requests still queued, ascending:
     * filled by formBatch(), shrunk as their CASes issue. Empty means
     * the batch is done.
     */
    std::vector<std::vector<std::uint64_t>> marked_;
    std::uint64_t batchesFormed_ = 0;
};

} // namespace critmem

#endif // CRITMEM_SCHED_PARBS_HH

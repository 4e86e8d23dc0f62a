/**
 * @file
 * Shared bookkeeping for stateful schedulers: a mirror of every
 * channel's outstanding transactions, maintained from the
 * enqueue/issue notifications. PAR-BS uses it to form batches, TCM
 * and MORSE to compute per-thread and queue-shape features.
 */

#ifndef CRITMEM_SCHED_QUEUE_MIRROR_HH
#define CRITMEM_SCHED_QUEUE_MIRROR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/command.hh"
#include "mem/request.hh"
#include "sim/types.hh"

namespace critmem
{

/** One mirrored outstanding transaction. */
struct MirrorEntry
{
    std::uint64_t id = 0;
    CoreId core = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0; ///< bank index within the channel
    bool isWrite = false;
    DramCycle arrival = 0;
};

/** Per-channel mirrors of the DRAM transaction queues. */
class QueueMirror
{
  public:
    explicit QueueMirror(std::uint32_t channels) : queues_(channels) {}

    void
    onEnqueue(std::uint32_t channel, const MemRequest &req,
              const DramCoord &coord, std::uint32_t banksPerRank,
              DramCycle now)
    {
        queues_[channel].push_back(MirrorEntry{
            req.id, req.core, coord.rank,
            coord.rank * banksPerRank + coord.bank,
            req.type == ReqType::Write, now});
    }

    /** Remove the entry once its CAS issues. */
    void
    onCas(std::uint32_t channel, std::uint64_t id)
    {
        auto &queue = queues_[channel];
        const auto it = std::find_if(
            queue.begin(), queue.end(),
            [id](const MirrorEntry &e) { return e.id == id; });
        if (it != queue.end())
            queue.erase(it);
    }

    std::vector<MirrorEntry> &queue(std::uint32_t channel)
    {
        return queues_[channel];
    }

    const std::vector<MirrorEntry> &queue(std::uint32_t channel) const
    {
        return queues_[channel];
    }

  private:
    std::vector<std::vector<MirrorEntry>> queues_;
};

} // namespace critmem

#endif // CRITMEM_SCHED_QUEUE_MIRROR_HH

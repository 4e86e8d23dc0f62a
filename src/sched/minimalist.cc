#include "sched/minimalist.hh"

#include <tuple>

namespace critmem
{

MinimalistScheduler::MinimalistScheduler(std::uint32_t channels,
                                         std::uint32_t numCores,
                                         std::uint32_t banksPerRank)
    : mirror_(channels), numCores_(numCores), banksPerRank_(banksPerRank)
{
}

void
MinimalistScheduler::onEnqueue(std::uint32_t channel,
                               const MemRequest &req,
                               const DramCoord &coord, DramCycle now)
{
    mirror_.onEnqueue(channel, req, coord, banksPerRank_, now);
}

void
MinimalistScheduler::onIssue(std::uint32_t channel,
                             const SchedCandidate &cand, DramCycle)
{
    if (cand.isCas())
        mirror_.onCas(channel, cand.seq);
}

int
MinimalistScheduler::pick(std::uint32_t channel,
                          const std::vector<SchedCandidate> &cands,
                          DramCycle)
{
    // Current MLP per thread = outstanding reads in this channel.
    std::vector<std::uint32_t> mlp(numCores_ + 1, 0);
    for (const MirrorEntry &entry : mirror_.queue(channel)) {
        if (!entry.isWrite)
            ++mlp[entry.core < numCores_ ? entry.core : numCores_];
    }

    // (prefetch, thread MLP, row-miss, age).
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const std::uint32_t threadMlp =
            mlp[cand.core < numCores_ ? cand.core : numCores_];
        return std::tuple(cand.isPrefetch ? 1 : 0, threadMlp,
                          cand.rowHit ? 0 : 1, cand.seq);
    });
}

} // namespace critmem

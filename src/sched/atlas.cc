#include "sched/atlas.hh"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace critmem
{

AtlasScheduler::AtlasScheduler(std::uint32_t numCores, DramCycle quantum,
                               double decay)
    : numCores_(numCores), quantum_(quantum), decay_(decay),
      nextQuantum_(quantum), attained_(numCores, 0.0),
      current_(numCores, 0.0), rank_(numCores, 0)
{
    std::iota(rank_.begin(), rank_.end(), 0u);
}

void
AtlasScheduler::onIssue(std::uint32_t, const SchedCandidate &cand,
                        DramCycle)
{
    if (cand.isCas() && cand.core < numCores_)
        current_[cand.core] += 1.0;
}

void
AtlasScheduler::rerank()
{
    for (std::uint32_t c = 0; c < numCores_; ++c) {
        attained_[c] = decay_ * attained_[c] +
            (1.0 - decay_) * current_[c];
        current_[c] = 0.0;
    }
    std::vector<CoreId> order(numCores_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](CoreId a, CoreId b) {
        return std::tuple(attained_[a], a) <
            std::tuple(attained_[b], b);
    });
    for (std::uint32_t pos = 0; pos < numCores_; ++pos)
        rank_[order[pos]] = pos;
}

void
AtlasScheduler::tick(DramCycle now)
{
    if (now >= nextQuantum_) {
        rerank();
        nextQuantum_ += quantum_;
    }
}

int
AtlasScheduler::pick(std::uint32_t,
                     const std::vector<SchedCandidate> &cands, DramCycle)
{
    // (thread rank, row-miss, age).
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const std::uint32_t threadRank =
            cand.core < numCores_ ? rank_[cand.core] : numCores_;
        return std::tuple(threadRank, cand.rowHit ? 0 : 1, cand.seq);
    });
}

} // namespace critmem

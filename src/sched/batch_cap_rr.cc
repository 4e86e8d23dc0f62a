#include "sched/batch_cap_rr.hh"

#include <tuple>

namespace critmem
{

BatchCapRrScheduler::BatchCapRrScheduler(std::uint32_t channels,
                                         std::uint32_t numCores,
                                         std::uint32_t cap)
    : numCores_(numCores), cap_(cap), active_(channels, 0),
      served_(channels, 0)
{
}

std::uint32_t
BatchCapRrScheduler::rrDistance(std::uint32_t channel, CoreId core) const
{
    if (core >= numCores_)
        return numCores_; // unknown cores go last
    return (core + numCores_ - active_[channel]) % numCores_;
}

void
BatchCapRrScheduler::onIssue(std::uint32_t channel,
                             const SchedCandidate &cand, DramCycle)
{
    if (!cand.isCas() || cand.core >= numCores_)
        return;
    if (cand.core != active_[channel]) {
        // The active core had no ready CAS; the rotation moved on.
        active_[channel] = cand.core;
        served_[channel] = 1;
    } else if (++served_[channel] >= cap_) {
        active_[channel] = (active_[channel] + 1) % numCores_;
        served_[channel] = 0;
    }
}

int
BatchCapRrScheduler::pick(std::uint32_t channel,
                          const std::vector<SchedCandidate> &cands,
                          DramCycle)
{
    // (rotation distance, row-miss, age). The active core sits at
    // distance 0, so its batch drains first; when it has nothing
    // ready, the nearest core in id order takes over.
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        return std::tuple(rrDistance(channel, cand.core),
                          cand.rowHit ? 0 : 1, cand.seq);
    });
}

} // namespace critmem

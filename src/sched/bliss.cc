#include "sched/bliss.hh"

#include <algorithm>
#include <tuple>

namespace critmem
{

BlissScheduler::BlissScheduler(std::uint32_t channels,
                               std::uint32_t numCores,
                               std::uint32_t threshold,
                               DramCycle clearInterval)
    : numCores_(numCores), threshold_(threshold),
      clearInterval_(clearInterval), nextClear_(clearInterval),
      lastCore_(channels, 0), streak_(channels, 0),
      blacklisted_(numCores, 0)
{
}

void
BlissScheduler::onIssue(std::uint32_t channel, const SchedCandidate &cand,
                        DramCycle)
{
    if (!cand.isCas() || cand.core >= numCores_)
        return;
    if (streak_[channel] > 0 && lastCore_[channel] == cand.core) {
        if (++streak_[channel] >= threshold_) {
            blacklisted_[cand.core] = 1;
            streak_[channel] = 0;
        }
    } else {
        lastCore_[channel] = cand.core;
        streak_[channel] = 1;
    }
}

void
BlissScheduler::tick(DramCycle now)
{
    // Loop (not if) so that a cycle-skip landing past several clearing
    // boundaries still re-arms nextClear_ strictly beyond `now`.
    while (now >= nextClear_) {
        std::fill(blacklisted_.begin(), blacklisted_.end(),
                  std::uint8_t{0});
        nextClear_ += clearInterval_;
    }
}

int
BlissScheduler::pick(std::uint32_t,
                     const std::vector<SchedCandidate> &cands, DramCycle)
{
    // (blacklisted, row-miss, age).
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const int black =
            cand.core < numCores_ && blacklisted_[cand.core] ? 1 : 0;
        return std::tuple(black, cand.rowHit ? 0 : 1, cand.seq);
    });
}

} // namespace critmem

#include "sched/dyn_thresh.hh"

#include <limits>
#include <tuple>

namespace critmem
{

DynThreshCritScheduler::DynThreshCritScheduler(DramCycle epoch,
                                               std::uint32_t targetPct)
    : epoch_(epoch), targetPct_(targetPct), nextEpoch_(epoch)
{
}

void
DynThreshCritScheduler::onIssue(std::uint32_t, const SchedCandidate &cand,
                                DramCycle)
{
    if (!cand.isCas())
        return;
    ++casIssued_;
    if (cand.crit >= thresh_)
        ++critIssued_;
}

void
DynThreshCritScheduler::adapt()
{
    if (casIssued_ > 0) {
        const std::uint64_t pct = critIssued_ * 100 / casIssued_;
        if (pct > targetPct_ &&
            thresh_ <= std::numeric_limits<CritLevel>::max() / 2) {
            thresh_ *= 2;
        } else if (pct < targetPct_ && thresh_ > 1) {
            thresh_ /= 2;
        }
    }
    casIssued_ = 0;
    critIssued_ = 0;
}

void
DynThreshCritScheduler::tick(DramCycle now)
{
    while (now >= nextEpoch_) {
        adapt();
        nextEpoch_ += epoch_;
    }
}

int
DynThreshCritScheduler::pick(std::uint32_t,
                             const std::vector<SchedCandidate> &cands,
                             DramCycle)
{
    // (class, row-miss, ~magnitude, age) with classes critical CAS <
    // plain CAS < critical RAS/PRE < plain RAS/PRE.
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const bool cas = cand.isCas();
        const bool crit = cand.crit >= thresh_;
        const int cls = crit ? (cas ? 0 : 2) : (cas ? 1 : 3);
        return std::tuple(cls, cand.rowHit ? 0 : 1,
                          ~static_cast<std::uint64_t>(cand.crit), cand.seq);
    });
}

} // namespace critmem

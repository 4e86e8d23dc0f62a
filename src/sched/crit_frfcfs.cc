#include "sched/crit_frfcfs.hh"

#include <limits>
#include <tuple>

namespace critmem
{

int
CritFrFcfsScheduler::pick(std::uint32_t,
                          const std::vector<SchedCandidate> &cands,
                          DramCycle now)
{
    // Lower tuple compares better; fields are negated accordingly.
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const bool cas = cand.isCas();
        const CritLevel crit = starved(cand, now)
            ? std::numeric_limits<CritLevel>::max()
            : cand.crit;

        // Priority class per Section 3.2.
        int cls;
        if (order_ == CritOrder::CritFirst) {
            cls = crit > 0 ? (cas ? 0 : 1) : (cas ? 2 : 3);
        } else {
            cls = cas ? (crit > 0 ? 0 : 1) : (crit > 0 ? 2 : 3);
        }

        // Magnitude is prepended to the age comparator: bigger
        // criticality first, then older (smaller seq) first.
        return std::tuple(cls, ~static_cast<std::uint64_t>(crit),
                          cand.isPrefetch ? 1 : 0, cand.seq);
    });
}

void
CritFrFcfsScheduler::onIssue(std::uint32_t, const SchedCandidate &cand,
                             DramCycle now)
{
    if (cand.isCas() && starved(cand, now))
        ++starvationPromotions_;
}

} // namespace critmem

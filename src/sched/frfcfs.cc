#include "sched/frfcfs.hh"

#include <tuple>

namespace critmem
{

int
FrFcfsScheduler::pick(std::uint32_t, const std::vector<SchedCandidate> &cands,
                      DramCycle)
{
    // (row-miss, prefetch, age): demands beat prefetches within a
    // priority class.
    return pickLowest(cands, [](const SchedCandidate &cand) {
        return std::tuple(cand.isCas() ? 0 : 1, cand.isPrefetch ? 1 : 0,
                          cand.seq);
    });
}

int
FcfsScheduler::pick(std::uint32_t,
                    const std::vector<SchedCandidate> &cands, DramCycle)
{
    return pickLowest(cands,
                      [](const SchedCandidate &cand) { return cand.seq; });
}

} // namespace critmem

#include "sched/ahb.hh"

#include <tuple>

namespace critmem
{

void
AhbScheduler::onEnqueue(std::uint32_t, const MemRequest &req,
                        const DramCoord &, DramCycle)
{
    if (req.type == ReqType::Write)
        ++arrivedWrites_;
    else
        ++arrivedReads_;
}

void
AhbScheduler::onIssue(std::uint32_t, const SchedCandidate &cand, DramCycle)
{
    if (!cand.isCas())
        return;
    haveHistory_ = true;
    lastWasWrite_ = cand.cmd == DramCmd::Write;
    lastRank_ = cand.coord.rank;
    if (lastWasWrite_)
        ++issuedWrites_;
    else
        ++issuedReads_;
}

void
AhbScheduler::tick(DramCycle now)
{
    if (now < nextEpoch_)
        return;
    nextEpoch_ = now + epoch_;
    const std::uint64_t total = arrivedReads_ + arrivedWrites_;
    if (total > 0) {
        targetWriteFrac_ =
            static_cast<double>(arrivedWrites_) / static_cast<double>(total);
    }
    arrivedReads_ = arrivedWrites_ = 0;
    issuedReads_ = issuedWrites_ = 0;
}

int
AhbScheduler::pick(std::uint32_t, const std::vector<SchedCandidate> &cands,
                   DramCycle)
{
    const std::uint64_t issued = issuedReads_ + issuedWrites_;
    const double issuedWriteFrac =
        issued ? static_cast<double>(issuedWrites_) /
                static_cast<double>(issued)
               : 0.0;
    const bool wantWrite = issuedWriteFrac < targetWriteFrac_;

    // (pattern cost, age).
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        int cost = 0;
        switch (cand.cmd) {
          case DramCmd::Read:
          case DramCmd::Write: {
            const bool isWrite = cand.cmd == DramCmd::Write;
            if (haveHistory_ && isWrite != lastWasWrite_)
                cost += 2; // bus turnaround
            if (haveHistory_ && cand.coord.rank != lastRank_)
                cost += 1; // rank switch gap
            if (isWrite != wantWrite)
                cost += 1; // fight the workload mix
            break;
          }
          case DramCmd::Act:
            cost = 6;
            break;
          case DramCmd::Pre:
            cost = 7;
            break;
          case DramCmd::Ref:
            cost = 8;
            break;
        }
        return std::tuple(cost, cand.seq);
    });
}

} // namespace critmem

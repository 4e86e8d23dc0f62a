#include "system/experiment.hh"

#include <algorithm>

namespace critmem
{

std::uint64_t
defaultWarmup(std::uint64_t quota)
{
    return quota / 2;
}

RunResult
collect(System &sys)
{
    // With checking enabled, a run only yields numbers after the
    // checker signs off (requests still queued at the quota are in
    // flight, not lost, so drainage is not required here).
    sys.finalizeChecks(/*requireDrained=*/false);

    RunResult result;
    result.cycles = sys.windowCycles();

    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const Core &core = sys.core(i);
        const Core::Stats &cs = core.coreStats();
        const Cycle fin = core.finishCycle();
        result.finishCycles.push_back(
            fin == kNoCycle ? kNoCycle : fin - sys.windowStart());
        result.committed.push_back(cs.committedOps.value());
        result.dynamicLoads += cs.committedLoads.value();
        result.blockingLoads += cs.blockingLoads.value();
        result.robBlockedCycles += cs.robHeadBlockedCycles.value();
        result.coreCycles += cs.cycles.value();
        result.loadsIssued += cs.loadsIssued.value();
        result.critLoadsIssued += cs.critLoadsIssued.value();
        result.lqFullCycles += cs.lqFullCycles.value();
        if (const CommitBlockPredictor *cbp = core.cbp()) {
            result.maxCbpValue =
                std::max(result.maxCbpValue, cbp->maxObserved());
            result.cbpPopulated += cbp->populatedEntries();
        }
    }

    const MemHierarchy::Stats &ms = sys.hierarchy().memStats();
    result.l2MissLatCrit = ms.l2MissLatCrit.mean();
    result.l2MissLatNonCrit = ms.l2MissLatNonCrit.mean();
    result.demandMisses = ms.demandMisses.value();
    result.critMissCount = ms.l2MissLatCrit.count();
    result.nonCritMissCount = ms.l2MissLatNonCrit.count();

    DramSystem &dram = sys.dram();
    for (std::uint32_t c = 0; c < dram.numChannels(); ++c) {
        const DramChannel::Stats &ds = dram.channel(c).channelStats();
        result.rowHits += ds.rowHits.value();
        result.rowMisses += ds.rowMisses.value();
        result.dramReads += ds.reads.value();
    }
    return result;
}

RunResult
runSystem(System &sys, std::uint64_t quota, std::uint64_t warmup,
          bool stopAtQuota)
{
    sys.prewarmCaches();
    const std::uint64_t w =
        warmup == kDefaultWarmup ? defaultWarmup(quota) : warmup;
    if (w) {
        sys.run(w, /*stopAtQuota=*/false);
        sys.resetStatsWindow();
    }
    sys.run(quota, stopAtQuota);
    if (sys.hitCycleLimit()) {
        throw CycleLimitError(
            "run stopped at the safety cycle limit (cycle " +
            std::to_string(sys.cycle()) +
            ") before every core reached its quota");
    }
    return collect(sys);
}

} // namespace critmem

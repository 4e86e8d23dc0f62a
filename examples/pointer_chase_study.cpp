/**
 * @file
 * Domain example 1: the `art` anomaly (Sections 5.3.1 / 5.4).
 *
 * `art` implements large neural nets through two levels of
 * dynamically allocated pointers, producing back-to-back dependent
 * load misses that are exquisitely sensitive to memory reordering.
 * This example dissects how the Commit Block Predictor sees such an
 * application: which fraction of loads block the ROB head, how many
 * static PCs the 64-entry CBP must track, what the stall-time
 * distribution looks like, and how criticality scheduling moves the
 * latency of critical vs non-critical misses.
 *
 * Usage: pointer_chase_study [instructions-per-core]
 */

#include <cstdio>

#include "exec/job.hh"
#include "sim/log.hh"
#include "system/experiment.hh"

using namespace critmem;

namespace
{

void
dissect(const char *label, const SystemConfig &cfg, const AppParams &app,
        std::uint64_t quota)
{
    System sys(cfg, app);
    sys.prewarmCaches();
    sys.run(quota / 2, false);
    sys.resetStatsWindow();
    sys.run(quota, true);

    std::uint64_t loads = 0, blocking = 0, blockedCycles = 0,
                  cycles = 0;
    std::uint64_t maxStall = 0, cbpEntries = 0;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const Core::Stats &cs = sys.core(i).coreStats();
        loads += cs.committedLoads.value();
        blocking += cs.blockingLoads.value();
        blockedCycles += cs.robHeadBlockedCycles.value();
        cycles += cs.cycles.value();
        maxStall = std::max(maxStall, cs.headStallLength.max());
        if (sys.core(i).cbp())
            cbpEntries += sys.core(i).cbp()->populatedEntries();
    }
    const MemHierarchy::Stats &ms = sys.hierarchy().memStats();

    std::printf("%-22s %10llu cycles | %4.1f%% loads block, %4.1f%% "
                "time | maxStall %5llu | lat crit/non %5.0f/%5.0f | "
                "CBP entries/core %4.1f\n",
                label,
                static_cast<unsigned long long>(sys.windowCycles()),
                100.0 * static_cast<double>(blocking) /
                    static_cast<double>(loads),
                100.0 * static_cast<double>(blockedCycles) /
                    static_cast<double>(cycles),
                static_cast<unsigned long long>(maxStall),
                ms.l2MissLatCrit.mean(), ms.l2MissLatNonCrit.mean(),
                static_cast<double>(cbpEntries) / sys.numCores());
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::uint64_t quota = 30000;
    try {
        if (argc > 1)
            quota = exec::parseUint("quota", argv[1]);
    } catch (const std::exception &err) {
        fatal(err.what());
    }

    std::printf("The art pointer-chase anomaly "
                "(quota=%llu instructions/core)\n\n",
                static_cast<unsigned long long>(quota));

    const AppParams &art = appParams("art");
    const AppParams &swim = appParams("swim"); // streaming contrast

    SystemConfig frf = SystemConfig::parallelDefault();
    frf.sched.algo = SchedAlgo::FrFcfs;
    frf.crit.predictor = CritPredictor::CbpMaxStall; // observe only

    SystemConfig crit = frf;
    crit.sched.algo = SchedAlgo::CasRasCrit;

    SystemConfig critSmall = crit;
    critSmall.crit.tableEntries = 64;
    SystemConfig critUnlimited = crit;
    critUnlimited.crit.tableEntries = 0;

    std::printf("== art: serial double-pointer dereferences ==\n");
    dissect("FR-FCFS (passive CBP)", frf, art, quota);
    dissect("CASRAS-Crit, 64-entry", critSmall, art, quota);
    dissect("CASRAS-Crit, unlimited", critUnlimited, art, quota);

    std::printf("\n== swim: streaming stencil, for contrast ==\n");
    dissect("FR-FCFS (passive CBP)", frf, swim, quota);
    dissect("CASRAS-Crit, 64-entry", critSmall, swim, quota);

    std::printf("\nReading the numbers: art concentrates its stalls in"
                " a handful of chase PCs (small CBP footprint, huge\n"
                "max stalls), so prioritizing them moves its critical"
                " miss latency sharply; swim's stalls come from\n"
                "bandwidth, not dependence chains, so criticality has"
                " far less to reorder.\n");
    return 0;
}

/**
 * @file
 * Quickstart: simulate one parallel application under baseline
 * FR-FCFS and under the paper's MaxStallTime CASRAS-Crit scheduler,
 * and report the speedup — the paper's headline experiment in ~40
 * lines of API use.
 *
 * Usage: quickstart [app] [instructions-per-core]
 */

#include <iostream>

#include "exec/job.hh"
#include "sim/log.hh"

using namespace critmem;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::string app = argc > 1 ? argv[1] : "art";
    std::uint64_t quota = 40000;
    try {
        if (argc > 2)
            quota = exec::parseUint("quota", argv[2]);
    } catch (const std::exception &err) {
        fatal(err.what());
    }

    SystemConfig base = SystemConfig::parallelDefault();
    base.sched.algo = SchedAlgo::FrFcfs;
    base.crit.predictor = CritPredictor::None;

    SystemConfig crit = base;
    crit.sched.algo = SchedAlgo::CasRasCrit;
    crit.crit.predictor = CritPredictor::CbpMaxStall;
    crit.crit.tableEntries = 64;

    std::cout << "app=" << app << " quota=" << quota
              << " instructions/core, 8 cores, DDR3-2133 x4ch\n";

    // One job per configuration: the app on all 8 cores to the quota.
    const RunResult baseRun = exec::executeJob(
        exec::makeJob(app, exec::RunKind::Parallel, app, base, quota));
    std::cout << "FR-FCFS:              " << baseRun.cycles
              << " cycles\n";

    const RunResult critRun = exec::executeJob(
        exec::makeJob(app, exec::RunKind::Parallel, app, crit, quota));
    std::cout << "CASRAS-Crit/MaxStall: " << critRun.cycles
              << " cycles\n";

    std::cout << "speedup: " << speedup(baseRun, critRun) << "\n";
    std::cout << "blocking loads: " << baseRun.blockingLoads << " of "
              << baseRun.dynamicLoads << " dynamic loads; ROB head "
              << "blocked "
              << 100.0 * static_cast<double>(baseRun.robBlockedCycles) /
            static_cast<double>(baseRun.coreCycles)
              << "% of core cycles under FR-FCFS\n";
    std::cout << "critical L2 miss latency: " << critRun.l2MissLatCrit
              << " vs non-critical " << critRun.l2MissLatNonCrit
              << " CPU cycles\n";
    return 0;
}

/**
 * @file
 * Domain example 2: multiprogrammed consolidation (Section 5.8.2).
 *
 * A desktop-style bundle mixes CPU-, cache- and memory-sensitive
 * programs on a 4-core / 2-channel machine. This example computes the
 * weighted speedup and per-application slowdowns of four schedulers —
 * PAR-BS, TCM, the paper's MaxStallTime CBP and the TCM+MaxStallTime
 * hybrid — showing that processor-side criticality improves both
 * throughput *and* the worst-case slowdown in a low-contention mix.
 *
 * Usage: multiprog_fairness [bundle-name] [instructions-per-core]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "exec/job.hh"
#include "fair/metrics.hh"
#include "sim/log.hh"

using namespace critmem;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::string bundleName = argc > 1 ? argv[1] : "RFGI";
    std::uint64_t quota = 20000;
    try {
        if (argc > 2)
            quota = exec::parseUint("quota", argv[2]);
    } catch (const std::exception &err) {
        fatal(err.what());
    }

    const Bundle *bundle = nullptr;
    for (const Bundle &b : multiprogBundles()) {
        if (b.name == bundleName)
            bundle = &b;
    }
    if (!bundle)
        fatal("unknown bundle '", bundleName,
              "' (see Table 4: AELV CMLI GAMV GDPC GSMV RFEV RFGI "
              "RGTM)");

    SystemConfig parbs = SystemConfig::multiprogDefault();
    parbs.sched.algo = SchedAlgo::ParBs;

    std::printf("bundle %s: %s %s %s %s  (quota=%llu/core, 4 cores, "
                "2 channels)\n\n",
                bundle->name.c_str(), bundle->apps[0].c_str(),
                bundle->apps[1].c_str(), bundle->apps[2].c_str(),
                bundle->apps[3].c_str(),
                static_cast<unsigned long long>(quota));

    // Alone-IPC baselines under the PAR-BS configuration: each app
    // on core 0 with the other cores idle.
    std::vector<double> alone;
    for (const std::string &app : bundle->apps) {
        alone.push_back(
            exec::executeJob(exec::makeJob(app, exec::RunKind::Alone,
                                           app, parbs, quota))
                .ipc(0, quota));
        std::printf("  %-8s alone IPC %.3f\n", app.c_str(),
                    alone.back());
    }
    std::printf("\n%-18s %9s %9s", "scheduler", "wSpeedup", "maxSlow");
    for (std::size_t i = 0; i < 4; ++i)
        std::printf(" %9s", bundle->apps[i].c_str());
    std::printf("\n");

    // Fairness of one bundle run against the alone baselines.
    auto fairness = [&](const SystemConfig &cfg) {
        const RunResult run = exec::executeJob(exec::makeJob(
            bundle->name, exec::RunKind::Bundle, bundle->name, cfg,
            quota));
        return fair::computeFairness(
            fair::sharedIpcs(run, quota, cfg.numCores), alone);
    };
    const double wsBase = fairness(parbs).weightedSpeedup;

    auto report = [&](const char *name, const SystemConfig &cfg) {
        const fair::FairnessMetrics m = fairness(cfg);
        std::printf("%-18s %9.4f %9.3f", name,
                    m.weightedSpeedup / wsBase, m.maxSlowdown);
        for (const double slowdown : m.slowdown)
            std::printf(" %9.3f", slowdown);
        std::printf("\n");
    };

    report("PAR-BS", parbs);

    SystemConfig tcm = parbs;
    tcm.sched.algo = SchedAlgo::Tcm;
    report("TCM", tcm);

    SystemConfig crit = parbs;
    crit.sched.algo = SchedAlgo::CasRasCrit;
    crit.crit.predictor = CritPredictor::CbpMaxStall;
    crit.crit.tableEntries = 64;
    report("MaxStallTime CBP", crit);

    SystemConfig hybrid = crit;
    hybrid.sched.algo = SchedAlgo::TcmCrit;
    report("TCM+MaxStallTime", hybrid);

    std::printf("\n(wSpeedup is normalized to PAR-BS; per-app columns "
                "are slowdowns vs running alone, lower is better)\n");
    return 0;
}

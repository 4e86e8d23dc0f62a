/**
 * @file
 * Figure 12: multiprogrammed weighted speedups over PAR-BS for the
 * eight Table 4 bundles, on the 4-core / 2-channel system. Columns:
 * FR-FCFS, TCM, MaxStallTime CBP (64-entry CASRAS-Crit) and the
 * TCM+MaxStallTime hybrid; plus the max-slowdown change of
 * MaxStallTime vs TCM. Paper reference: MaxStallTime +6.0% weighted
 * speedup over PAR-BS (Binary +5.2%), TCM +1.9%, hybrid ~TCM, and
 * MaxStallTime improving max slowdown by 11.6% over TCM.
 *
 * Runs on the execution engine: alone-IPC baselines are deduplicated
 * per distinct app (an app appearing in several bundles runs alone
 * once), then all bundle × scheduler jobs execute as one campaign.
 * Output is identical to the former serial loop.
 */

#include <set>

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 12: multiprogrammed weighted speedup vs "
                "PAR-BS (quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"FR-FCFS", "TCM", "MaxStall", "TCM+MaxStall",
                 "maxSlowdown"},
                "bundle");

    SystemConfig frf = multiprogBase();
    frf.sched.algo = SchedAlgo::FrFcfs;

    SystemConfig tcm = multiprogBase();
    tcm.sched.algo = SchedAlgo::Tcm;

    const std::vector<std::pair<std::string, SystemConfig>> variants =
        {{"parbs", multiprogBase()},
         {"frfcfs", frf},
         {"tcm", tcm},
         {"maxstall", withPredictor(multiprogBase(),
                                    CritPredictor::CbpMaxStall, 64,
                                    SchedAlgo::CasRasCrit)},
         {"hybrid", withPredictor(multiprogBase(),
                                  CritPredictor::CbpMaxStall, 64,
                                  SchedAlgo::TcmCrit)}};

    std::vector<exec::JobSpec> jobs;
    std::set<std::string> aloneApps;
    for (const Bundle &bundle : multiprogBundles()) {
        for (const std::string &app : bundle.apps) {
            if (aloneApps.insert(app).second) {
                jobs.push_back(makeJob("alone/" + app,
                                       exec::RunKind::Alone, app,
                                       multiprogBase(), q,
                                       /*multiprog=*/true));
            }
        }
        for (const auto &[key, cfg] : variants) {
            jobs.push_back(makeJob(bundle.name + "/" + key,
                                   exec::RunKind::Bundle, bundle.name,
                                   cfg, q, /*multiprog=*/true));
        }
    }
    exec::MemorySink sink;
    runCampaign(jobs, sink);

    Averager avg;
    for (const Bundle &bundle : multiprogBundles()) {
        // Against the alone-IPC baselines under PAR-BS.
        const auto fairness = [&](const char *key) {
            return bundleFairness(sink, bundle, key, q);
        };
        const double wsParbs = fairness("parbs").weightedSpeedup;
        auto wsOf = [&](const char *key) {
            return fairness(key).weightedSpeedup / wsParbs;
        };
        const double slowdownRatio = fairness("maxstall").maxSlowdown /
            fairness("tcm").maxSlowdown;

        const std::vector<double> row = {
            wsOf("frfcfs"), wsOf("tcm"), wsOf("maxstall"),
            wsOf("hybrid"), slowdownRatio};
        printRow(bundle.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
    std::printf("# paper: MaxStall 1.060, TCM 1.019, hybrid ~TCM; "
                "MaxStall cuts max slowdown 11.6%% vs TCM\n");
    return 0;
}

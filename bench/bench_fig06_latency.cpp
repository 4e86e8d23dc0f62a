/**
 * @file
 * Figure 6: average L2 miss latency for critical vs non-critical
 * loads under FR-FCFS, Binary CBP and MaxStallTime CBP (64-entry,
 * CASRAS-Crit). In the FR-FCFS rows the predictor still classifies
 * loads (so the same population is compared) but the scheduler
 * ignores the flag. Paper reference: critical latency drops for every
 * benchmark; several applications see non-critical latency *rise* as
 * the scheduler exploits their slack; `art` uniquely sees both drop.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 6: L2 miss latency, critical vs non-critical "
                "(CPU cycles, quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"frf-crit", "frf-non", "bin-crit", "bin-non",
                 "max-crit", "max-non"});

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        // FR-FCFS with a passive MaxStallTime predictor: requests are
        // classified but the arbiter ignores criticality.
        const RunResult frf = runApp(
            withPredictor(parallelBase(), CritPredictor::CbpMaxStall,
                          64, SchedAlgo::FrFcfs),
            app, q);
        const RunResult bin = runApp(
            withPredictor(parallelBase(), CritPredictor::CbpBinary),
            app, q);
        const RunResult max = runApp(
            withPredictor(parallelBase(), CritPredictor::CbpMaxStall),
            app, q);
        const std::vector<double> row = {
            frf.l2MissLatCrit, frf.l2MissLatNonCrit,
            bin.l2MissLatCrit, bin.l2MissLatNonCrit,
            max.l2MissLatCrit, max.l2MissLatNonCrit,
        };
        printRow(app.name, row, " %12.1f");
        avg.add(row);
    }
    printRow("Average", avg.average(), " %12.1f");
    std::printf("# paper: critical latency drops under the CBP "
                "schedulers; non-critical latency rises (slack)\n");
    return 0;
}

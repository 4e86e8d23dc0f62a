/**
 * @file
 * Figure 1: percentage of dynamic loads that block at the ROB head
 * and percentage of processor cycles those loads block the head,
 * under baseline FR-FCFS, per parallel application plus the average.
 * Paper reference: 6.1% of loads, 48.6% of execution time on average.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 1: ROB-head blocking under FR-FCFS "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"%dynLoads", "%execTime"});

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult r = runApp(parallelBase(), app, q);
        const std::vector<double> row = {
            100.0 * static_cast<double>(r.blockingLoads) /
                static_cast<double>(r.dynamicLoads),
            100.0 * static_cast<double>(r.robBlockedCycles) /
                static_cast<double>(r.coreCycles),
        };
        printRow(app.name, row, " %12.2f");
        avg.add(row);
    }
    printRow("Average", avg.average(), " %12.2f");
    std::printf("# paper: Average ~6.1%% of dynamic loads, ~48.6%% of "
                "execution time\n");
    return 0;
}

/**
 * @file
 * Section 5.1: the naive predictor-less implementation — forward a
 * criticality flag to the controller only at the moment a load starts
 * blocking the ROB head. Paper reference: ~3.5% average speedup,
 * "low enough that one could consider it within simulation noise".
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Section 5.1: naive block-time forwarding "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"speedup"});

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);
        const RunResult naive = runApp(
            withPredictor(parallelBase(), CritPredictor::NaiveForward),
            app, q);
        const std::vector<double> row = {speedup(base, naive)};
        printRow(app.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
    std::printf("# paper: ~3.5%% average (within noise); the predictor "
                "is what makes the mechanism work\n");
    return 0;
}

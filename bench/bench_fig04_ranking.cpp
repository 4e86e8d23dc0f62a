/**
 * @file
 * Figure 4: ranked criticality with the CASRAS-Crit algorithm and
 * 64-entry CBP tables. Paper reference averages: Binary 1.065,
 * CLPT-Consumers ~1.0, BlockCount 1.087, LastStallTime ~Binary,
 * MaxStallTime 1.093, TotalStallTime best by a hair.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 4: ranking degrees of criticality "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"Binary", "CLPT-Cons", "BlockCnt", "LastStall",
                 "MaxStall", "TotalStall"});

    const std::vector<CritPredictor> preds = {
        CritPredictor::CbpBinary,     CritPredictor::ClptConsumers,
        CritPredictor::CbpBlockCount, CritPredictor::CbpLastStall,
        CritPredictor::CbpMaxStall,   CritPredictor::CbpTotalStall,
    };

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);
        std::vector<double> row;
        for (const CritPredictor pred : preds) {
            const std::uint32_t entries =
                pred == CritPredictor::ClptConsumers ? 1024 : 64;
            row.push_back(speedup(
                base,
                runApp(withPredictor(parallelBase(), pred, entries),
                       app, q)));
        }
        printRow(app.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
    std::printf("# paper: MaxStallTime 1.093 avg; BlockCount 1.087; "
                "TotalStallTime marginally best; CLPT flat\n");
    return 0;
}

/**
 * @file
 * Figure 7: interaction with an aggressive L2 stream prefetcher (64
 * streams, distance 64, degree 4). All columns are normalized to
 * FR-FCFS *without* prefetching. Paper reference: FR-FCFS+prefetch
 * alone 1.084; adding the CBP retains 4.9% (Binary) to 7.4%
 * (TotalStallTime) on top.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 7: criticality + L2 stream prefetcher "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"frf-pref", "Binary", "BlockCnt", "LastStall",
                 "MaxStall", "TotalStall"});

    const std::vector<CritPredictor> preds = {
        CritPredictor::CbpBinary,     CritPredictor::CbpBlockCount,
        CritPredictor::CbpLastStall,  CritPredictor::CbpMaxStall,
        CritPredictor::CbpTotalStall,
    };

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);

        SystemConfig pref = parallelBase();
        pref.prefetch.enabled = true;
        std::vector<double> row = {
            speedup(base, runApp(pref, app, q))};
        for (const CritPredictor pred : preds) {
            SystemConfig cfg = withPredictor(parallelBase(), pred, 64);
            cfg.prefetch.enabled = true;
            row.push_back(speedup(base, runApp(cfg, app, q)));
        }
        printRow(app.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
    std::printf("# paper: prefetch-only 1.084; CBP still adds up to "
                "+7.4%% on top (parallel threads defeat the trainer)\n");
    return 0;
}

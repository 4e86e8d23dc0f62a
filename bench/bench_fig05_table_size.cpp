/**
 * @file
 * Figure 5: MaxStallTime criticality, sweeping the CBP table size
 * against the unlimited fully-associative reference. Paper reference:
 * effectively no drop down to 64 entries; `art` anomalously prefers
 * the small table (its reordering-sensitive double-pointer loads).
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 5: MaxStallTime table-size sweep "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"64", "256", "1024", "Unlimited"});

    const std::vector<std::uint32_t> sizes = {64, 256, 1024, 0};
    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);
        std::vector<double> row;
        for (const std::uint32_t size : sizes) {
            row.push_back(speedup(
                base, runApp(withPredictor(parallelBase(),
                                           CritPredictor::CbpMaxStall,
                                           size),
                             app, q)));
        }
        printRow(app.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
    std::printf("# paper: 64 entries performs within noise of the "
                "unlimited table (~1.093 avg)\n");
    return 0;
}

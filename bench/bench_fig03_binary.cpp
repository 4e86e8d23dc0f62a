/**
 * @file
 * Figure 3: speedup over FR-FCFS from Binary criticality prediction,
 * sweeping the CBP table size (64/256/1024/unlimited) and comparing
 * CLPT-Binary, for both arbitration arrangements (Crit-CASRAS on top,
 * CASRAS-Crit below). Paper reference: 6.5% average for a 64-entry
 * table under either arrangement, 7.4% for the unlimited table,
 * CLPT-Binary flat.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

namespace
{

void
sweep(SchedAlgo algo, std::uint64_t q)
{
    std::printf("## %s\n", toString(algo));
    printHeader({"CLPT-Bin", "CBP-64", "CBP-256", "CBP-1024",
                 "CBP-unl"});
    const std::vector<std::uint32_t> sizes = {64, 256, 1024, 0};

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);
        std::vector<double> row;
        row.push_back(speedup(
            base, runApp(withPredictor(parallelBase(),
                                       CritPredictor::ClptBinary,
                                       1024, algo),
                         app, q)));
        for (const std::uint32_t size : sizes) {
            row.push_back(speedup(
                base,
                runApp(withPredictor(parallelBase(),
                                     CritPredictor::CbpBinary,
                                     size, algo),
                       app, q)));
        }
        printRow(app.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
}

} // namespace

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 3: Binary criticality, CBP size sweep "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    sweep(SchedAlgo::CritCasRas, q);
    sweep(SchedAlgo::CasRasCrit, q);
    std::printf("# paper: 64-entry Binary ~1.065 avg under both "
                "arrangements; unlimited ~1.074; CLPT-Binary ~1.0\n");
    return 0;
}

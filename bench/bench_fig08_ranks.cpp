/**
 * @file
 * Figure 8: sweep over the number of ranks per channel for DDR3-1600
 * and DDR3-2133, averaged over the parallel applications. Speedups
 * are relative to the single-rank FR-FCFS subsystem of the same speed
 * grade. Paper reference: fewer ranks mean more contention and larger
 * criticality benefits — up to 14.6% for single-rank DDR3-2133 with
 * the 64-entry MaxStallTime predictor.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 8: rank sweep (quota=%llu/core)\n",
                static_cast<unsigned long long>(q));

    for (const DramSpeed speed :
         {DramSpeed::DDR3_1600, DramSpeed::DDR3_2133}) {
        std::printf("## %s (normalized to 1-rank FR-FCFS)\n",
                    toString(speed));
        printHeader({"FR-FCFS", "Binary", "MaxStall"}, "ranks");

        // Single-rank FR-FCFS reference for this speed grade.
        auto configured = [&](std::uint32_t ranks) {
            SystemConfig cfg = parallelBase();
            const std::uint32_t channels = cfg.dram.channels;
            const std::uint32_t queueEntries = cfg.dram.queueEntries;
            cfg.dram = DramConfig::preset(speed);
            cfg.dram.channels = channels;
            cfg.dram.queueEntries = queueEntries;
            cfg.dram.ranksPerChannel = ranks;
            return cfg;
        };

        // Per-app single-rank baselines.
        std::vector<RunResult> base1;
        for (const AppParams &app : parallelApps())
            base1.push_back(runApp(configured(1), app, q));

        for (const std::uint32_t ranks : {1u, 2u, 4u}) {
            std::vector<double> sums(3, 0.0);
            std::size_t appIdx = 0;
            for (const AppParams &app : parallelApps()) {
                const SystemConfig frf = configured(ranks);
                sums[0] +=
                    speedup(base1[appIdx], runApp(frf, app, q));
                sums[1] += speedup(
                    base1[appIdx],
                    runApp(withPredictor(
                               frf, CritPredictor::CbpBinary),
                           app, q));
                sums[2] += speedup(
                    base1[appIdx],
                    runApp(withPredictor(
                               frf, CritPredictor::CbpMaxStall),
                           app, q));
                ++appIdx;
            }
            for (double &sum : sums)
                sum /= static_cast<double>(appIdx);
            printRow(std::to_string(ranks), sums);
        }
    }
    std::printf("# paper: 1-rank DDR3-2133 MaxStallTime ~1.146 over "
                "its FR-FCFS; benefit shrinks as ranks grow\n");
    return 0;
}

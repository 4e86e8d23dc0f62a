/**
 * @file
 * Figure 11: MORSE-P restricted to evaluating N ready commands per
 * DRAM cycle (the hardware feasibility argument of Section 5.8.1:
 * each extra way of tri-ported CMAC arrays costs SRAM, and DDR3-2133
 * leaves no latency budget). Speedups over FR-FCFS, averaged across
 * the parallel applications. Paper reference: performance climbs from
 * ~1.02 at 6 commands toward ~1.11 at 24; matching MaxStallTime's
 * 9.3% takes ~15 commands (80 kB of CMAC per controller).
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Figure 11: MORSE-P ready-command restriction "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"speedup"}, "cmds");

    // Per-app FR-FCFS baselines, computed once.
    std::vector<RunResult> base;
    for (const AppParams &app : parallelApps())
        base.push_back(runApp(parallelBase(), app, q));

    for (const std::uint32_t cmds : {6u, 9u, 12u, 15u, 18u, 21u, 24u}) {
        double sum = 0.0;
        std::size_t appIdx = 0;
        for (const AppParams &app : parallelApps()) {
            SystemConfig cfg = parallelBase();
            cfg.sched.algo = SchedAlgo::Morse;
            cfg.sched.morseMaxCommands = cmds;
            sum += speedup(base[appIdx], runApp(cfg, app, q));
            ++appIdx;
        }
        printRow(std::to_string(cmds),
                 {sum / static_cast<double>(appIdx)});
    }
    std::printf("# paper: climbs with evaluated commands; 24 commands "
                "needs 128 kB of CMAC SRAM per controller\n");
    return 0;
}

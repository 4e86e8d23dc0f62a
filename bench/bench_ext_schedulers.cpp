/**
 * @file
 * Extension experiment (beyond the paper's Figure 10): a wider
 * scheduler landscape on the parallel suite, adding the related-work
 * policies the paper cites but does not measure — strict FCFS (the
 * lower bound FR-FCFS was proposed against), ATLAS [11]
 * (least-attained-service fairness) and the Minimalist Open-page
 * scheduler [10] (memory-side "criticality" via MLP ranking) —
 * against the paper's MaxStallTime CBP. The paper's thesis predicts
 * that memory-side rankings (Minimalist) cannot match processor-side
 * blocking information; this bench tests exactly that.
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota();
    std::printf("# Extension: wider scheduler landscape vs FR-FCFS "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));
    printHeader({"FCFS", "ATLAS", "Minimalist", "TCM", "MaxStall"});

    const std::vector<SchedAlgo> algos = {
        SchedAlgo::Fcfs, SchedAlgo::Atlas, SchedAlgo::Minimalist,
        SchedAlgo::Tcm};

    Averager avg;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);
        std::vector<double> row;
        for (const SchedAlgo algo : algos) {
            SystemConfig cfg = parallelBase();
            cfg.sched.algo = algo;
            row.push_back(speedup(base, runApp(cfg, app, q)));
        }
        row.push_back(speedup(
            base, runApp(withPredictor(parallelBase(),
                                       CritPredictor::CbpMaxStall),
                         app, q)));
        printRow(app.name, row);
        avg.add(row);
    }
    printRow("Average", avg.average());
    std::printf("# expectation: FCFS well below 1.0; the memory-side "
                "rankings hover near FR-FCFS on homogeneous parallel\n"
                "# threads; processor-side criticality (MaxStall) "
                "clearly ahead — the paper's core claim\n");
    return 0;
}

/**
 * @file
 * Table 7: the summary comparison matrix. The two numeric rows
 * (average parallel speedup vs FR-FCFS; average multiprogrammed
 * weighted speedup vs PAR-BS) are measured; the storage and
 * qualitative rows reproduce the paper's accounting. Paper reference:
 * AHB 1.6%/3.1%, TCM 0.6%/1.9%, MORSE-P 11.2%/11.3%, Binary CBP
 * 6.5%/5.2%, MaxStallTime CBP 9.3%/6.0%; PAR-BS itself loses 6.4% on
 * parallel workloads vs FR-FCFS.
 *
 * Runs on the execution engine as one campaign; the shared baselines
 * (FR-FCFS parallel runs, PAR-BS bundle runs, alone-IPC runs) execute
 * once instead of once per contender, so this bench is much faster
 * than the former serial loops while printing identical numbers.
 */

#include <set>

#include "bench/bench_util.hh"

#include "crit/overhead.hh"

using namespace critmem;
using namespace critmem::bench;

namespace
{

struct Contender
{
    const char *name;
    SchedAlgo algo;
    CritPredictor pred;
    const char *storage;
    const char *procSide;
    const char *highSpeed;
    const char *lowContention;
};

} // namespace

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota(12000);
    std::printf("# Table 7: scheduler comparison summary "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));

    const std::vector<Contender> contenders = {
        {"AHB", SchedAlgo::Ahb, CritPredictor::None, "31 B", "No",
         "Yes", "Yes"},
        {"TCM", SchedAlgo::Tcm, CritPredictor::None, "4816 B", "No",
         "Yes", "No"},
        {"MORSE-P", SchedAlgo::Morse, CritPredictor::None,
         "128-512 kB", "Yes", "No", "Yes"},
        {"BinaryCBP", SchedAlgo::CasRasCrit, CritPredictor::CbpBinary,
         "109-301 B", "Yes", "Yes", "Yes"},
        {"MaxStallCBP", SchedAlgo::CasRasCrit,
         CritPredictor::CbpMaxStall, "1357-1805 B", "Yes", "Yes",
         "Yes"},
        // Footnote 1 of the paper: PAR-BS on parallel workloads.
        {"PAR-BS", SchedAlgo::ParBs, CritPredictor::None, "-", "No",
         "Yes", "No"},
    };

    std::vector<exec::JobSpec> jobs;
    for (const AppParams &app : parallelApps()) {
        jobs.push_back(makeJob(app.name + "/base",
                               exec::RunKind::Parallel, app.name,
                               parallelBase(), q));
        for (const Contender &c : contenders) {
            jobs.push_back(makeJob(
                app.name + "/" + c.name, exec::RunKind::Parallel,
                app.name,
                withPredictor(parallelBase(), c.pred, 64, c.algo), q));
        }
    }
    std::set<std::string> aloneApps;
    for (const Bundle &bundle : multiprogBundles()) {
        for (const std::string &app : bundle.apps) {
            if (aloneApps.insert(app).second) {
                jobs.push_back(makeJob("alone/" + app,
                                       exec::RunKind::Alone, app,
                                       multiprogBase(), q,
                                       /*multiprog=*/true));
            }
        }
        jobs.push_back(makeJob(bundle.name + "/parbs",
                               exec::RunKind::Bundle, bundle.name,
                               multiprogBase(), q,
                               /*multiprog=*/true));
        for (const Contender &c : contenders) {
            jobs.push_back(makeJob(
                bundle.name + "/" + c.name, exec::RunKind::Bundle,
                bundle.name,
                withPredictor(multiprogBase(), c.pred, 64, c.algo), q,
                /*multiprog=*/true));
        }
    }
    exec::MemorySink sink;
    runCampaign(jobs, sink);

    auto parallelAvg = [&](const Contender &c) {
        double sum = 0.0;
        std::size_t count = 0;
        for (const AppParams &app : parallelApps()) {
            sum += speedup(sink.result(app.name + "/base"),
                           sink.result(app.name + "/" + c.name));
            ++count;
        }
        return sum / static_cast<double>(count);
    };

    auto multiprogAvg = [&](const Contender &c) {
        double sum = 0.0;
        std::size_t count = 0;
        for (const Bundle &bundle : multiprogBundles()) {
            sum += bundleFairness(sink, bundle, c.name, q)
                       .weightedSpeedup /
                bundleFairness(sink, bundle, "parbs", q).weightedSpeedup;
            ++count;
        }
        return sum / static_cast<double>(count);
    };

    std::printf("%-12s %10s %10s %12s %9s %10s %14s\n", "scheduler",
                "parallel", "multiprog", "storage", "procSide",
                "highSpeed", "lowContention");
    for (const Contender &c : contenders) {
        std::printf("%-12s %10.4f %10.4f %12s %9s %10s %14s\n", c.name,
                    parallelAvg(c), multiprogAvg(c), c.storage,
                    c.procSide, c.highSpeed, c.lowContention);
    }

    // Storage accounting cross-check (Section 5.7 published widths).
    const SystemConfig dims = SystemConfig::parallelDefault();
    const OverheadReport binary = storageOverhead(1, 64, dims);
    const OverheadReport maxStall = storageOverhead(14, 64, dims);
    std::printf("\n# storage model: Binary %llu-%llu B, MaxStallTime "
                "%llu-%llu B (paper: 109-301, 1357-1805)\n",
                static_cast<unsigned long long>(binary.systemMinBytes),
                static_cast<unsigned long long>(binary.systemMaxBytes),
                static_cast<unsigned long long>(
                    maxStall.systemMinBytes),
                static_cast<unsigned long long>(
                    maxStall.systemMaxBytes));
    return 0;
}

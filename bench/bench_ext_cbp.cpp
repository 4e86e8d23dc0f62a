/**
 * @file
 * Extension experiment: the CBP counter options Section 5.3 mentions
 * but does not explore — saturating counters narrower than the
 * worst-case width of Table 5, and probabilistic accumulation (Riley
 * & Zilles [21]) for the accumulating annotations. The question: how
 * much performance does shaving counter bits actually cost, i.e. was
 * the paper right that sizing for the observed maximum is not
 * essential?
 */

#include "bench/bench_util.hh"

using namespace critmem;
using namespace critmem::bench;

namespace
{

double
avgSpeedup(CritPredictor pred, std::uint32_t width,
           std::uint32_t probShift, std::uint64_t q)
{
    double sum = 0.0;
    int count = 0;
    for (const AppParams &app : parallelApps()) {
        const RunResult base = runApp(parallelBase(), app, q);
        SystemConfig cfg = withPredictor(parallelBase(), pred, 64);
        cfg.crit.counterWidth = width;
        cfg.crit.probShift = probShift;
        sum += speedup(base, runApp(cfg, app, q));
        ++count;
    }
    return sum / count;
}

} // namespace

int
main()
{
    setQuiet(true);
    const std::uint64_t q = quota(16000);
    std::printf("# Extension: saturating / probabilistic CBP counters "
                "(quota=%llu/core)\n",
                static_cast<unsigned long long>(q));

    std::printf("%-16s %10s %10s %10s %10s\n", "annotation", "full",
                "8-bit", "6-bit", "4-bit");
    for (const CritPredictor pred :
         {CritPredictor::CbpMaxStall, CritPredictor::CbpTotalStall,
          CritPredictor::CbpBlockCount}) {
        std::printf("%-16s %10.4f %10.4f %10.4f %10.4f\n",
                    toString(pred), avgSpeedup(pred, 0, 0, q),
                    avgSpeedup(pred, 8, 0, q),
                    avgSpeedup(pred, 6, 0, q),
                    avgSpeedup(pred, 4, 0, q));
    }

    std::printf("\n%-16s %10s %10s %10s\n", "annotation", "exact",
                "prob 2^-2", "prob 2^-4");
    for (const CritPredictor pred :
         {CritPredictor::CbpTotalStall, CritPredictor::CbpBlockCount}) {
        std::printf("%-16s %10.4f %10.4f %10.4f\n", toString(pred),
                    avgSpeedup(pred, 0, 0, q),
                    avgSpeedup(pred, 10, 2, q),
                    avgSpeedup(pred, 8, 4, q));
    }
    std::printf("# the magnitudes only feed an ordering comparator, "
                "so modest truncation should cost little — the\n"
                "# paper's Table 5 worst-case sizing is conservative\n");
    return 0;
}

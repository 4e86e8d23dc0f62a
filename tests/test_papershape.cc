/** @file Acceptance tests for the paper's directional findings.
 *
 *  Each test asserts a *relationship* the evaluation section reports
 *  (who wins, which knob matters), at small deterministic quotas —
 *  the repository-level guarantee that the reproduction keeps telling
 *  the paper's story. Absolute magnitudes live in EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include "exec/job.hh"
#include "system/experiment.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

constexpr std::uint64_t kQuota = 8000;

SystemConfig
base()
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::FrFcfs;
    cfg.crit.predictor = CritPredictor::None;
    return cfg;
}

SystemConfig
cbp(CritPredictor pred, std::uint32_t entries = 64,
    SchedAlgo algo = SchedAlgo::CasRasCrit)
{
    SystemConfig cfg = base();
    cfg.sched.algo = algo;
    cfg.crit.predictor = pred;
    cfg.crit.tableEntries = entries;
    return cfg;
}

/** @p app on every core under @p cfg, to kQuota. */
RunResult
run(const SystemConfig &cfg, const AppParams &app)
{
    return exec::executeJob(exec::makeJob(
        app.name, exec::RunKind::Parallel, app.name, cfg, kQuota));
}

double
suiteSpeedup(const SystemConfig &cfg,
             const std::vector<std::string> &apps)
{
    double sum = 0.0;
    for (const std::string &name : apps) {
        const RunResult b = run(base(), appParams(name));
        const RunResult r = run(cfg, appParams(name));
        sum += speedup(b, r);
    }
    return sum / static_cast<double>(apps.size());
}

const std::vector<std::string> kProbe = {"art", "fft", "radix",
                                         "scalparc"};

} // namespace

TEST(PaperShape, Fig1_MinorityOfLoadsBlockMajorityOfTime)
{
    // Figure 1's core observation: blocking loads are a small slice
    // of dynamic loads yet the head is blocked a large share of time.
    double loadFrac = 0.0, timeFrac = 0.0;
    int count = 0;
    for (const AppParams &app : parallelApps()) {
        const RunResult r = run(base(), app);
        loadFrac += static_cast<double>(r.blockingLoads) /
            static_cast<double>(r.dynamicLoads);
        timeFrac += static_cast<double>(r.robBlockedCycles) /
            static_cast<double>(r.coreCycles);
        ++count;
    }
    loadFrac /= count;
    timeFrac /= count;
    EXPECT_LT(loadFrac, 0.12);  // paper: 6.1%
    EXPECT_GT(timeFrac, 0.30);  // paper: 48.6%
    EXPECT_GT(timeFrac, 5.0 * loadFrac);
}

TEST(PaperShape, Fig3_BinaryCbpBeatsFrFcfs)
{
    EXPECT_GT(suiteSpeedup(cbp(CritPredictor::CbpBinary), kProbe),
              1.03);
}

TEST(PaperShape, Fig3_BothArbitrationOrdersComparable)
{
    const double casras =
        suiteSpeedup(cbp(CritPredictor::CbpBinary, 64,
                         SchedAlgo::CasRasCrit),
                     kProbe);
    const double critFirst =
        suiteSpeedup(cbp(CritPredictor::CbpBinary, 64,
                         SchedAlgo::CritCasRas),
                     kProbe);
    EXPECT_NEAR(casras, critFirst, 0.05);
}

TEST(PaperShape, Fig3_SmallTableCompetitiveWithUnlimited)
{
    const double small =
        suiteSpeedup(cbp(CritPredictor::CbpMaxStall, 64), kProbe);
    const double unlimited =
        suiteSpeedup(cbp(CritPredictor::CbpMaxStall, 0), kProbe);
    // Section 5.3.1: 64 entries loses nothing; at small quotas the
    // aliased table can even win (the art anomaly), so assert it is
    // no *worse* than the unlimited table beyond noise.
    EXPECT_GT(small, unlimited - 0.05);
}

TEST(PaperShape, Fig4_ClptDoesNotHelpTheScheduler)
{
    // Section 5.3.3: consumer-count criticality is essentially flat.
    const double clpt =
        suiteSpeedup(cbp(CritPredictor::ClptConsumers, 1024), kProbe);
    const double maxStall =
        suiteSpeedup(cbp(CritPredictor::CbpMaxStall), kProbe);
    EXPECT_LT(clpt, 1.05);
    EXPECT_GT(maxStall, clpt + 0.02);
}

TEST(PaperShape, Sec51_NaiveForwardingWeakerThanPredictor)
{
    const double naive =
        suiteSpeedup(cbp(CritPredictor::NaiveForward), kProbe);
    const double predicted =
        suiteSpeedup(cbp(CritPredictor::CbpMaxStall), kProbe);
    EXPECT_GT(predicted, naive);
}

TEST(PaperShape, Fig6_SchedulerShiftsLatencyTowardCriticals)
{
    // Critical misses get faster, non-critical slack is consumed.
    const AppParams &app = appParams("radix");
    const RunResult passive = run(
        cbp(CritPredictor::CbpMaxStall, 64, SchedAlgo::FrFcfs), app);
    const RunResult active = run(cbp(CritPredictor::CbpMaxStall), app);
    EXPECT_LT(active.l2MissLatCrit, passive.l2MissLatCrit * 1.02);
    EXPECT_GT(active.l2MissLatNonCrit, active.l2MissLatCrit);
}

TEST(PaperShape, Fig8_FewerRanksLargerBenefit)
{
    // Contention amplifies criticality benefit (Section 5.6).
    auto withRanks = [&](std::uint32_t ranks, bool crit) {
        SystemConfig cfg =
            crit ? cbp(CritPredictor::CbpMaxStall) : base();
        cfg.dram.ranksPerChannel = ranks;
        return cfg;
    };
    double benefit1 = 0.0, benefit4 = 0.0;
    for (const std::string &name : kProbe) {
        const AppParams &app = appParams(name);
        benefit1 += speedup(run(withRanks(1, false), app),
                            run(withRanks(1, true), app));
        benefit4 += speedup(run(withRanks(4, false), app),
                            run(withRanks(4, true), app));
    }
    EXPECT_GT(benefit1, benefit4 - 0.02);
}

TEST(PaperShape, Fig9_SpeedupSurvivesLargerLoadQueue)
{
    // Section 5.6: the benefit is not just LQ capacity relief.
    SystemConfig bigLq = cbp(CritPredictor::CbpMaxStall);
    bigLq.core.lqEntries = 64;
    SystemConfig bigLqBase = base();
    bigLqBase.core.lqEntries = 64;
    double sum = 0.0;
    for (const std::string &name : kProbe) {
        sum += speedup(run(bigLqBase, appParams(name)),
                       run(bigLq, appParams(name)));
    }
    EXPECT_GT(sum / kProbe.size(), 1.02);
}

TEST(PaperShape, Fig10_AhbBarelyHelpsOnHighSpeedDram)
{
    SystemConfig ahb = base();
    ahb.sched.algo = SchedAlgo::Ahb;
    const double sp = suiteSpeedup(ahb, kProbe);
    EXPECT_GT(sp, 0.95);
    EXPECT_LT(sp, 1.06); // paper: 1.6%
}

TEST(PaperShape, Table7_ParBsTrailsCriticalityOnParallel)
{
    // Footnote 1 reports PAR-BS *losing* to FR-FCFS on parallel
    // workloads. In this reproduction PAR-BS picks up some benefit
    // from demoting unmarked writebacks in the unified transaction
    // queue (EXPERIMENTS.md), so the transferable claim is the
    // ordering: fairness-oriented batching cannot match
    // processor-side criticality on homogeneous parallel threads.
    SystemConfig parbs = base();
    parbs.sched.algo = SchedAlgo::ParBs;
    const double parbsSp = suiteSpeedup(parbs, kProbe);
    const double critSp =
        suiteSpeedup(cbp(CritPredictor::CbpMaxStall), kProbe);
    EXPECT_LT(parbsSp, critSp);
}

TEST(PaperShape, Table5_StallCountersFitPublishedWidths)
{
    // Stall-time magnitudes stay within the paper's 14-bit budget at
    // these run lengths.
    std::uint64_t maxObserved = 0;
    for (const std::string &name : kProbe) {
        const RunResult r =
            run(cbp(CritPredictor::CbpMaxStall), appParams(name));
        maxObserved = std::max(maxObserved, r.maxCbpValue);
    }
    EXPECT_LE(maxObserved, 16383u); // 14 bits (paper: 13,475 max)
    EXPECT_GT(maxObserved, 256u);   // and they are real stalls
}

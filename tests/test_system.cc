/** @file Integration tests for the full System and the experiment
 *  harness. These use tiny quotas so the whole file runs in seconds. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "dram/observer.hh"
#include "exec/job.hh"
#include "fair/metrics.hh"
#include "sched/crit_frfcfs.hh"
#include "sched/registry.hh"
#include "sim/random.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

SystemConfig
smallParallel(SchedAlgo algo = SchedAlgo::FrFcfs,
              CritPredictor pred = CritPredictor::None)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = algo;
    cfg.crit.predictor = pred;
    return cfg;
}

/** One engine job run in the calling thread. */
RunResult
runJob(exec::RunKind kind, const std::string &workload,
       const SystemConfig &cfg, std::uint64_t quota)
{
    return exec::executeJob(
        exec::makeJob(workload, kind, workload, cfg, quota));
}

/** Fairness of @p run against per-app alone IPCs. */
fair::FairnessMetrics
fairness(const RunResult &run, const std::vector<double> &alone,
         std::uint64_t quota)
{
    return fair::computeFairness(
        fair::sharedIpcs(run, quota,
                         static_cast<std::uint32_t>(alone.size())),
        alone);
}

/** Records every request the DRAM accepts or rejects. */
class AcceptLog : public ChannelObserver
{
  public:
    void
    onEnqueue(std::uint32_t channel, const MemRequest &req,
              const DramCoord &coord, DramCycle now) override
    {
        (void)channel; (void)coord; (void)now;
        ids.push_back(req.id);
        if (req.type == ReqType::Write)
            ++writes;
    }

    void
    onReject(std::uint32_t channel, const MemRequest &req,
             DramCycle now) override
    {
        (void)channel; (void)req; (void)now;
        ++rejects;
    }

    std::vector<std::uint64_t> ids;
    std::uint64_t writes = 0;
    std::uint64_t rejects = 0;
};

/** The latest DRAM cycle on which any channel issued a command. */
class LastCommand : public ChannelObserver
{
  public:
    void
    onCommand(std::uint32_t channel, DramCmd cmd, const DramCoord &coord,
              DramCycle now) override
    {
        (void)channel; (void)cmd; (void)coord;
        last = std::max(last, now);
    }

    DramCycle last = 0;
};

/**
 * fft under PAR-BS on a single channel: the DRAM queue overflows and
 * hundreds of L2 misses and writebacks have to wait for an entry.
 */
exec::JobSpec
saturatedJob(bool cycleSkip)
{
    return exec::parseSimCommand(
               {"--app", "fft", "--sched", "parbs", "--channels", "1",
                "--instrs", "6000",
                cycleSkip ? "--cycle-skip" : "--no-cycle-skip"})
        .spec;
}

} // namespace

TEST(System, ParallelRunCompletesAllCores)
{
    System sys(smallParallel(), appParams("mg"));
    const Cycle cycles = sys.run(2000);
    EXPECT_GT(cycles, 0u);
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        EXPECT_TRUE(sys.core(i).finished());
        EXPECT_GE(sys.core(i).committed(), 2000u);
    }
}

TEST(System, DeterministicAcrossInstances)
{
    System a(smallParallel(), appParams("fft"));
    System b(smallParallel(), appParams("fft"));
    EXPECT_EQ(a.run(2000), b.run(2000));
}

TEST(System, SeedChangesOutcome)
{
    SystemConfig cfg = smallParallel();
    System a(cfg, appParams("fft"));
    cfg.seed = 2;
    System b(cfg, appParams("fft"));
    EXPECT_NE(a.run(2000), b.run(2000));
}

TEST(System, SchedulerChangesExecution)
{
    System frf(smallParallel(), appParams("art"));
    System crit(smallParallel(SchedAlgo::CasRasCrit,
                              CritPredictor::CbpMaxStall),
                appParams("art"));
    frf.prewarmCaches();
    crit.prewarmCaches();
    EXPECT_NE(frf.run(3000), crit.run(3000));
}

TEST(System, PrewarmPopulatesL2)
{
    System sys(smallParallel(), appParams("swim"));
    const std::uint64_t before =
        sys.hierarchy().l2().cacheStats().evictions.value();
    sys.prewarmCaches(0.9, 0.3);
    sys.run(2000);
    // A ~full L2 must evict on new fills almost immediately.
    EXPECT_GT(sys.hierarchy().l2().cacheStats().evictions.value(),
              before);
}

TEST(System, PrewarmDirtyLinesCauseWritebacks)
{
    System sys(smallParallel(), appParams("swim"));
    sys.prewarmCaches(0.95, 0.5);
    sys.run(3000);
    std::uint64_t writes = 0;
    for (std::uint32_t c = 0; c < sys.dram().numChannels(); ++c)
        writes += sys.dram().channel(c).channelStats().writes.value();
    EXPECT_GT(writes, 0u);
}

TEST(System, ResetStatsWindowZeroesCounters)
{
    System sys(smallParallel(), appParams("mg"));
    sys.run(1000, /*stopAtQuota=*/false);
    EXPECT_GT(sys.core(0).coreStats().cycles.value(), 0u);
    sys.resetStatsWindow();
    EXPECT_EQ(sys.core(0).coreStats().cycles.value(), 0u);
    EXPECT_EQ(sys.windowCycles(), 0u);
    EXPECT_FALSE(sys.core(0).finished());
}

TEST(System, WindowCyclesMeasureOnlyTheWindow)
{
    System sys(smallParallel(), appParams("mg"));
    sys.run(1000, false);
    const Cycle warmupEnd = sys.cycle();
    sys.resetStatsWindow();
    sys.run(1000, true);
    EXPECT_EQ(sys.windowCycles(), sys.cycle() - warmupEnd);
}

TEST(System, StatsTreePathsResolve)
{
    System sys(smallParallel(), appParams("cg"));
    sys.run(1500);
    EXPECT_NE(sys.statsRoot().findScalar("core0.committedOps"),
              nullptr);
    EXPECT_NE(sys.statsRoot().findScalar("hier.mem.loads"), nullptr);
    EXPECT_NE(sys.statsRoot().findScalar("dram.channel0.reads"),
              nullptr);
    EXPECT_NE(sys.statsRoot().findHistogram(
                  "dram.channel0.readLatency"),
              nullptr);
}

TEST(System, DataBusNeverOverCommitted)
{
    System sys(smallParallel(), appParams("radix"));
    sys.prewarmCaches();
    sys.run(4000);
    for (std::uint32_t c = 0; c < sys.dram().numChannels(); ++c) {
        const auto &ds = sys.dram().channel(c).channelStats();
        // busyDataCycles is in DRAM cycles; window is CPU cycles / 4.
        EXPECT_LE(ds.busyDataCycles.value(), sys.cycle() / 4 + 1);
    }
}

TEST(System, CasCountMatchesCompletedTransactions)
{
    System sys(smallParallel(), appParams("mg"));
    sys.run(3000);
    // Let the DRAM drain.
    std::uint64_t reads = 0;
    std::uint64_t hits = 0, misses = 0;
    for (std::uint32_t c = 0; c < sys.dram().numChannels(); ++c) {
        const auto &ds = sys.dram().channel(c).channelStats();
        reads += ds.reads.value();
        hits += ds.rowHits.value();
        misses += ds.rowMisses.value();
    }
    EXPECT_GT(reads, 0u);
    EXPECT_EQ(hits, [&] {
        std::uint64_t rw = 0;
        for (std::uint32_t c = 0; c < sys.dram().numChannels(); ++c) {
            const auto &ds = sys.dram().channel(c).channelStats();
            rw += ds.reads.value() + ds.writes.value();
        }
        return rw;
    }());
}

TEST(System, MultiprogDisjointPerCoreApps)
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    std::vector<AppParams> perCore = {
        appParams("crafty"), appParams("mcf"), appParams("lu"),
        appParams("is")};
    System sys(cfg, perCore);
    sys.run(1500, /*stopAtQuota=*/false);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_GE(sys.core(i).committed(), 1500u);
    // The CPU-bound app must finish (much) earlier than mcf.
    EXPECT_LT(sys.core(0).finishCycle(), sys.core(1).finishCycle());
}

TEST(System, IdleCoresFinishInstantly)
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    std::vector<AppParams> perCore(4);
    perCore[0] = appParams("crafty");
    System sys(cfg, perCore);
    EXPECT_TRUE(sys.core(1).finished());
    sys.run(1000);
    EXPECT_EQ(sys.core(1).committed(), 0u);
    EXPECT_GE(sys.core(0).committed(), 1000u);
}

TEST(SystemDeath, WrongPerCoreCountIsFatal)
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    std::vector<AppParams> perCore(3);
    EXPECT_DEATH({ System sys(cfg, perCore); }, "cores");
}

TEST(Experiment, CollectAggregatesAreConsistent)
{
    const std::uint64_t quota = 2000;
    const RunResult r = runJob(exec::RunKind::Parallel, "equake",
                               smallParallel(), quota);
    EXPECT_GT(r.cycles, 0u);
    ASSERT_EQ(r.finishCycles.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_NE(r.finishCycles[i], kNoCycle);
        EXPECT_LE(r.finishCycles[i], r.cycles);
        EXPECT_GE(r.committed[i], quota);
    }
    EXPECT_GE(r.dynamicLoads, r.blockingLoads);
    EXPECT_GT(r.demandMisses, 0u);
    EXPECT_GT(r.ipc(0, quota), 0.0);
}

TEST(Experiment, SpeedupIsRatioOfCycles)
{
    RunResult a, b;
    a.cycles = 1000;
    b.cycles = 800;
    EXPECT_DOUBLE_EQ(speedup(a, b), 1.25);
}

TEST(Experiment, WeightedSpeedupAndMaxSlowdown)
{
    RunResult run;
    run.finishCycles = {1000, 2000, 1000, 4000};
    const std::uint64_t quota = 1000;
    // shared IPCs: 1.0, 0.5, 1.0, 0.25
    const std::vector<double> alone = {1.0, 1.0, 2.0, 0.5};
    const fair::FairnessMetrics m = fairness(run, alone, quota);
    // WS = 1 + 0.5 + 0.5 + 0.5 = 2.5
    EXPECT_NEAR(m.weightedSpeedup, 2.5, 1e-9);
    // slowdowns: 1, 2, 2, 2 -> max 2
    EXPECT_NEAR(m.maxSlowdown, 2.0, 1e-9);
}

TEST(Experiment, RunAloneGivesPositiveIpc)
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    cfg.sched.algo = SchedAlgo::ParBs;
    const double ipc =
        runJob(exec::RunKind::Alone, "crafty", cfg, 1500).ipc(0, 1500);
    EXPECT_GT(ipc, 0.3);
    EXPECT_LT(ipc, 4.0);
}

TEST(Experiment, RunBundleMeasuresEveryApp)
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    cfg.sched.algo = SchedAlgo::ParBs;
    const RunResult r = runJob(exec::RunKind::Bundle,
                               multiprogBundles()[0].name, cfg, 1200);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_GT(r.ipc(i, 1200), 0.0);
}

TEST(Experiment, NaiveForwardingRunsEndToEnd)
{
    SystemConfig cfg =
        smallParallel(SchedAlgo::CasRasCrit, CritPredictor::NaiveForward);
    const RunResult r =
        runJob(exec::RunKind::Parallel, "scalparc", cfg, 1500);
    EXPECT_GT(r.cycles, 0u);
    // Forwarding marks some in-flight misses critical.
    EXPECT_GT(r.critMissCount + r.nonCritMissCount, 0u);
}

TEST(Experiment, StarvationCapRarelyHit)
{
    // The paper observes the 6000-cycle cap is essentially never
    // reached; with this simulator's denser critical population a
    // handful of promotions can occur, but they must stay a tiny
    // fraction of the serviced requests (EXPERIMENTS.md discusses
    // this deviation).
    SystemConfig cfg =
        smallParallel(SchedAlgo::CasRasCrit, CritPredictor::CbpMaxStall);
    System sys(cfg, appParams("mg"));
    sys.prewarmCaches();
    sys.run(3000);
    auto *sched =
        dynamic_cast<CritFrFcfsScheduler *>(&sys.scheduler());
    ASSERT_NE(sched, nullptr);
    std::uint64_t cas = 0;
    for (std::uint32_t c = 0; c < sys.dram().numChannels(); ++c) {
        const auto &ds = sys.dram().channel(c).channelStats();
        cas += ds.reads.value() + ds.writes.value();
    }
    // Row-miss writebacks do starve under the unified queue (our
    // traffic is writeback-heavier than the paper's; see
    // EXPERIMENTS.md), but promotions must stay a small fraction.
    EXPECT_LT(sched->starvationPromotions(), cas / 20 + 5);
}

TEST(Experiment, WeightedSpeedupWithinSaneBounds)
{
    // End-to-end: a real bundle's weighted speedup normalized to
    // itself must be exactly 1; against alone-IPCs it lies in (0, 4].
    SystemConfig cfg = SystemConfig::multiprogDefault();
    cfg.sched.algo = SchedAlgo::ParBs;
    const std::uint64_t quota = 1500;
    const Bundle &bundle = multiprogBundles()[0];
    std::vector<double> alone;
    for (const std::string &app : bundle.apps) {
        alone.push_back(
            runJob(exec::RunKind::Alone, app, cfg, quota).ipc(0, quota));
    }
    const fair::FairnessMetrics m = fairness(
        runJob(exec::RunKind::Bundle, bundle.name, cfg, quota), alone,
        quota);
    EXPECT_GT(m.weightedSpeedup, 0.5);
    // each app can at best match running alone
    EXPECT_LE(m.weightedSpeedup, 4.0);
    EXPECT_GE(m.maxSlowdown, 1.0 - 1e-6);
}

TEST(Experiment, TcmHybridRunsOnBundles)
{
    SystemConfig cfg = SystemConfig::multiprogDefault();
    cfg.sched.algo = SchedAlgo::TcmCrit;
    cfg.crit.predictor = CritPredictor::CbpMaxStall;
    cfg.crit.tableEntries = 64;
    const RunResult run = runJob(exec::RunKind::Bundle, "RFEV", cfg, 1200);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_GT(run.ipc(i, 1200), 0.0);
}

TEST(Experiment, CriticalityHelpsTheProbeAppEndToEnd)
{
    // The repository's one-line acceptance check: the paper's
    // mechanism produces a real speedup on a chase-heavy app.
    const std::uint64_t quota = 6000;
    const RunResult base = runJob(exec::RunKind::Parallel, "scalparc",
                                  smallParallel(), quota);
    const RunResult crit = runJob(
        exec::RunKind::Parallel, "scalparc",
        smallParallel(SchedAlgo::CasRasCrit, CritPredictor::CbpMaxStall),
        quota);
    EXPECT_GT(speedup(base, crit), 1.01);
}

TEST(System, CycleLimitStopsTheRunAndFlagsIt)
{
    System sys(smallParallel(), appParams("mg"));
    EXPECT_FALSE(sys.hitCycleLimit());
    EXPECT_EQ(sys.run(2000, true, 500), 500u);
    EXPECT_TRUE(sys.hitCycleLimit());
    bool unfinished = false;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i)
        unfinished = unfinished || !sys.core(i).finished();
    EXPECT_TRUE(unfinished);
}

/**
 * The DRAM clock is derived from the CPU clock in one place: System's
 * busMHz/freqMHz accumulator, which starts at zero. After any number
 * of CPU cycles the DRAM clock must therefore read
 * cycle * busMHz / freqMHz (integer division) — through tickOnce()
 * with skipping off, and through fastForward()'s DRAM-to-CPU
 * translation with it on. The channels must see that clock too: no
 * command may carry a later cycle.
 */
TEST(System, DramClockFollowsBusRatio)
{
    const std::vector<std::vector<std::string>> workloads = {
        {"--app", "art", "--cores", "1"},
        {"--app", "fft", "--cores", "4"}};
    for (const char *speed : {"ddr3-1600", "ddr3-2133"}) {
        for (const std::vector<std::string> &workload : workloads) {
            for (const bool skip : {false, true}) {
                std::vector<std::string> args = workload;
                args.insert(args.end(),
                            {"--speed", speed, "--instrs", "3000"});
                exec::JobSpec spec = exec::parseSimCommand(args).spec;
                spec.cfg.fastForward = skip;
                const std::unique_ptr<System> sys =
                    exec::buildSystem(spec);
                LastCommand commands;
                sys->dram().setObserver(&commands);
                runSystem(*sys, spec.quota, spec.warmup,
                          spec.stopAtQuota());
                const std::string config = workload[1] + " " + speed +
                    (skip ? " skip" : " no-skip");
                const std::uint64_t cpu = sys->cycle();
                ASSERT_GT(cpu, 0u) << config;
                EXPECT_EQ(sys->dramCycle(),
                          cpu * spec.cfg.dram.busMHz /
                              spec.cfg.core.freqMHz)
                    << config;
                EXPECT_GT(commands.last, 0u) << config;
                EXPECT_LE(commands.last, sys->dramCycle()) << config;
            }
        }
    }
}

TEST(BackPressure, BlockedRequestsWaitInsteadOfBeingRejected)
{
    const exec::JobSpec spec = saturatedJob(true);
    const std::unique_ptr<System> sys = exec::buildSystem(spec);
    AcceptLog log;
    sys->dram().setObserver(&log);
    runSystem(*sys, spec.quota, spec.warmup, spec.stopAtQuota());

    // The cores are done; tick the memory side until every blocked
    // request has been accepted and served.
    MemHierarchy &hier = sys->hierarchy();
    DramSystem &dram = sys->dram();
    Cycle now = sys->cycle();
    DramCycle dramNow = sys->dramCycle();
    for (int n = 0; n < 10'000'000 && !(hier.quiescent() && dram.idle());
         ++n) {
        hier.tick(++now);
        if (now % 4 == 0)
            dram.tick(++dramNow);
    }
    EXPECT_TRUE(hier.quiescent());
    EXPECT_TRUE(dram.idle());

    // The hierarchy only offers a request once its queue has room.
    for (std::uint32_t c = 0; c < dram.numChannels(); ++c)
        EXPECT_EQ(dram.channel(c).channelStats().enqueueRejects.value(),
                  0u);
    EXPECT_EQ(log.rejects, 0u);
    // Ids are assigned on accept only: dense, in arrival order.
    ASSERT_FALSE(log.ids.empty());
    for (std::size_t i = 0; i < log.ids.size(); ++i)
        ASSERT_EQ(log.ids[i], i);

    // Each blocked request counts once: it is a demand miss of this
    // window or a writeback the DRAM has since accepted.
    const MemHierarchy::Stats &ms = hier.memStats();
    EXPECT_GT(ms.dramRejects.value(), 0u);
    EXPECT_GT(ms.dramBlockedCycles.value(), 0u);
    EXPECT_LE(ms.dramRejects.value(),
              ms.demandMisses.value() + log.writes);
}

TEST(BackPressure, SkippingKeepsSaturatedStatsIdentical)
{
    std::string json[2];
    for (const bool skip : {false, true}) {
        exec::JobSpec spec = saturatedJob(skip);
        spec.captureStats = true;
        exec::executeJob(spec, &json[skip]);
    }
    EXPECT_FALSE(json[0].empty());
    EXPECT_EQ(json[0], json[1]);
}

/**
 * Seeded differential check of event-driven cycle skipping over
 * random controller shapes: each registered scheduler in turn, 1-4
 * channels and ranks, unified or split write queue, open or closed
 * page, prefetch on or off. Each config's stats tree must be
 * byte-identical with the skip on and off; a skip bound later than a
 * ready command shows up here.
 */
TEST(SkipDifferential, SeededConfigsMatchNoSkip)
{
    const std::vector<SchedInfo> &scheds = schedulerRegistry();
    const std::vector<AppParams> &apps = parallelApps();
    const char *const pow2[] = {"1", "2", "4"};
    Rng rng(0x5c1f);
    for (std::size_t i = 0; i < 24; ++i) {
        const SchedInfo &sched = scheds[i % scheds.size()];
        std::vector<std::string> args = {
            "--app", apps[rng.below(apps.size())].name,
            "--sched", sched.cliName,
            "--channels", pow2[rng.below(3)],
            "--ranks", pow2[rng.below(3)],
            "--instrs", std::to_string(rng.range(2000, 4000)),
            "--seed", std::to_string(rng.below(1000))};
        for (const char *flag :
             {"--split-wq", "--closed-page", "--prefetch"}) {
            if (rng.chance(0.5))
                args.push_back(flag);
        }
        if (std::string(sched.cliName).find("crit") != std::string::npos)
            args.insert(args.end(), {"--predictor", "maxstall"});
        std::string json[2];
        for (const bool skip : {false, true}) {
            exec::JobSpec spec = exec::parseSimCommand(args).spec;
            spec.cfg.fastForward = skip;
            spec.captureStats = true;
            exec::executeJob(spec, &json[skip]);
        }
        std::string cmd;
        for (const std::string &arg : args)
            cmd += " " + arg;
        ASSERT_FALSE(json[0].empty()) << cmd;
        EXPECT_EQ(json[0], json[1]) << cmd;
    }
}

/**
 * @file
 * Tests of the validation harness (src/check/): the protocol invariant
 * checker stays silent on honest traffic under every scheduling
 * policy, the forward-progress watchdog converts hangs into loud
 * diagnostics, and each fault-injection mode trips the checker rule
 * it was designed to prove.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "check/diagnostics.hh"
#include "check/fault_injector.hh"
#include "check/protocol_checker.hh"
#include "dram/dram.hh"
#include "sched/registry.hh"
#include "sched/scheduler.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

/** Standalone DramSystem + checker + deterministic traffic mix. */
class CheckHarness : public FillListener
{
  public:
    CheckHarness(SchedAlgo algo, const CheckConfig &check,
                 const std::function<void(SystemConfig &)> &tweak = {})
    {
        sysCfg_ = SystemConfig::parallelDefault();
        sysCfg_.sched.algo = algo;
        sysCfg_.dram.channels = 2;
        sysCfg_.dram.ranksPerChannel = 2;
        if (tweak)
            tweak(sysCfg_);
        sched_ = makeScheduler(sysCfg_);
        dram_ = std::make_unique<DramSystem>(sysCfg_.dram, *sched_,
                                             root_);
        checker_ = std::make_unique<ProtocolChecker>(check,
                                                     sysCfg_.dram);
        dram_->setFillListener(this);
        checker_->attach(*dram_);
        if (check.fault != FaultKind::None) {
            injector_ =
                std::make_unique<ScriptedFaultInjector>(check);
            dram_->setFaultInjector(injector_.get());
        }
    }

    /** Offer bursty random read/write traffic for @p cycles. */
    void
    drive(DramCycle cycles, std::uint32_t everyN = 3)
    {
        for (DramCycle i = 0; i < cycles; ++i) {
            ++now_;
            if (rnd() % everyN == 0) {
                MemRequest req;
                req.addr = (rnd() % (1u << 22)) & ~Addr{63};
                req.type =
                    rnd() % 4 == 0 ? ReqType::Write : ReqType::Read;
                req.core = static_cast<CoreId>(rnd() % 8);
                req.crit = rnd() % 5 == 0
                    ? static_cast<CritLevel>(rnd() % 1000)
                    : 0;
                const bool isRead = req.type == ReqType::Read;
                if (dram_->enqueue(std::move(req)) && isRead)
                    ++accepted_;
            }
            dram_->tick(now_);
        }
    }

    void onFill(const MemRequest &) override { ++completed_; }

    /** Tick without new traffic until idle (bounded). */
    void
    drain(DramCycle bound = 40000)
    {
        for (DramCycle i = 0; i < bound && !dram_->idle(); ++i)
            dram_->tick(++now_);
    }

    std::uint64_t
    rnd()
    {
        state_ = state_ * 6364136223846793005ull +
            1442695040888963407ull;
        return state_ >> 33;
    }

    SystemConfig sysCfg_;
    stats::Group root_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<ProtocolChecker> checker_;
    std::unique_ptr<ScriptedFaultInjector> injector_;
    DramCycle now_ = 0;
    std::uint64_t state_ = 0x5eed;
    std::uint64_t accepted_ = 0;
    std::uint64_t completed_ = 0;
};

/** Scheduler that never issues anything: guaranteed stall. */
class IdleScheduler : public Scheduler
{
  public:
    int
    pick(std::uint32_t, const std::vector<SchedCandidate> &,
         DramCycle) override
    {
        return -1;
    }

    const char *name() const override { return "idle"; }
};

} // namespace

// ---------------------------------------------------------------------
// Honest traffic: the checker must stay silent.
// ---------------------------------------------------------------------

/** All registered policy families, zero violations each. */
class CheckCleanTest : public ::testing::TestWithParam<SchedAlgo>
{
};

TEST_P(CheckCleanTest, HonestTrafficHasZeroViolations)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = true; // any violation throws and fails the test
    CheckHarness h(GetParam(), check);

    h.drive(6000);
    h.drain();
    ASSERT_TRUE(h.dram_->idle()) << toString(GetParam());
    EXPECT_EQ(h.completed_, h.accepted_);

    h.checker_->finalize(/*requireDrained=*/true);
    h.checker_->crossCheckStats(h.root_);
    EXPECT_EQ(h.checker_->totalViolations(), 0u)
        << h.checker_->report();
    EXPECT_EQ(h.checker_->outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CheckCleanTest,
    ::testing::Values(SchedAlgo::Fcfs, SchedAlgo::FrFcfs,
                      SchedAlgo::CritCasRas, SchedAlgo::CasRasCrit,
                      SchedAlgo::ParBs, SchedAlgo::Tcm,
                      SchedAlgo::TcmCrit, SchedAlgo::Ahb,
                      SchedAlgo::Morse, SchedAlgo::CritRl,
                      SchedAlgo::Atlas, SchedAlgo::Minimalist,
                      SchedAlgo::Bliss, SchedAlgo::BatchCapRr,
                      SchedAlgo::DynThreshCrit));

TEST(CheckClean, ClosedPageAndSplitQueueStayClean)
{
    CheckConfig check;
    check.enabled = true;
    for (const bool closedPage : {false, true}) {
        CheckHarness h(SchedAlgo::FrFcfs, check,
                       [closedPage](SystemConfig &cfg) {
                           cfg.dram.closedPage = closedPage;
                           cfg.dram.unifiedQueue = !closedPage;
                       });
        h.drive(4000);
        h.drain();
        h.checker_->finalize(true);
        h.checker_->crossCheckStats(h.root_);
        EXPECT_EQ(h.checker_->totalViolations(), 0u)
            << "closedPage=" << closedPage << "\n"
            << h.checker_->report();
    }
}

TEST(CheckClean, StatsResetKeepsCrossCheckConsistent)
{
    CheckConfig check;
    check.enabled = true;
    CheckHarness h(SchedAlgo::FrFcfs, check);

    h.drive(3000);
    // Close a warmup window: stats and shadow counters reset together.
    h.root_.resetAll();
    h.checker_->onStatsReset();
    h.drive(3000);
    h.drain();

    h.checker_->finalize(true);
    h.checker_->crossCheckStats(h.root_);
    EXPECT_EQ(h.checker_->totalViolations(), 0u)
        << h.checker_->report();
}

TEST(CheckClean, FullSystemRunPassesWithCheckingEnabled)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.numCores = 2;
    cfg.dram.channels = 2;
    cfg.check.enabled = true;
    System sys(cfg, appParams("art"));
    sys.run(3000);
    sys.finalizeChecks(/*requireDrained=*/false);
    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_EQ(sys.checker()->totalViolations(), 0u)
        << sys.checker()->report();
}

// ---------------------------------------------------------------------
// Refresh engine under pressure (checker as oracle).
// ---------------------------------------------------------------------

TEST(CheckClean, RefreshSurvivesFullQueuesAcrossDeadline)
{
    CheckConfig check;
    check.enabled = true;
    CheckHarness h(SchedAlgo::FrFcfs, check, [](SystemConfig &cfg) {
        cfg.dram.channels = 1;
        cfg.dram.ranksPerChannel = 2;
    });

    // Saturate the queue (offer a request nearly every cycle) across
    // more than two full tREFI deadlines; the refresh engine must
    // still hit every deadline and no timing rule may break.
    const DramCycle span = h.sysCfg_.dram.t.tREFI * 5 / 2;
    h.drive(span, /*everyN=*/1);
    h.drain();

    h.checker_->finalize(true);
    h.checker_->crossCheckStats(h.root_);
    EXPECT_EQ(h.checker_->totalViolations(), 0u)
        << h.checker_->report();
    // Both ranks refreshed at least twice over 2.5 intervals.
    EXPECT_GE(
        h.dram_->channel(0).channelStats().refreshes.value(), 4u);
}

// ---------------------------------------------------------------------
// Forward-progress watchdog.
// ---------------------------------------------------------------------

TEST(CheckWatchdog, StalledChannelThrowsWithDiagnostics)
{
    stats::Group root;
    DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;

    IdleScheduler sched;
    DramSystem dram(cfg, sched, root);
    CheckConfig check;
    check.enabled = true;
    check.watchdogCycles = 100;
    ProtocolChecker checker(check, cfg);
    checker.attach(dram);

    MemRequest req;
    req.addr = 0xbeef00;
    req.type = ReqType::Read;
    req.core = 5;
    ASSERT_TRUE(dram.enqueue(std::move(req)));

    DramCycle now = 0;
    EXPECT_THROW(
        {
            for (int i = 0; i < 1000; ++i)
                dram.tick(++now);
        },
        CheckViolation);

    // The stall was recorded with a diagnostic snapshot naming the
    // stuck request and the idle scheduler.
    ASSERT_TRUE(checker.hasRule(RuleId::Watchdog));
    const std::string &msg = checker.violations().front().message;
    EXPECT_NE(msg.find("idle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 5"), std::string::npos) << msg;
}

// A stall dump shows the rank-side inputs of readiness: the rank-wide
// windows, the tFAW window and which rank drove the data bus last.
TEST(CheckWatchdog, DumpShowsRankReadinessInputs)
{
    ChannelSnapshot snap;
    snap.busFreeAt = 120;
    snap.lastBusRank = 1;
    snap.banks.resize(2);
    snap.ranks.resize(2);
    ChannelSnapshot::Rank &rank = snap.ranks[1];
    rank.refreshDue = 900;
    rank.lastActs = {10, 20, 30, 40};
    rank.readyAct = 45;
    rank.readyRead = 104;
    rank.readyWrite = 113;
    const std::string dump = formatSnapshot(snap);
    EXPECT_NE(dump.find("  rank 0: refresh due 0, readyAct 0 readyRead 0 "
                        "readyWrite 0, last ACTs 0 0 0 0\n"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("  rank 1: refresh due 900, readyAct 45 readyRead "
                        "104 readyWrite 113, last ACTs 10 20 30 40, last "
                        "on data bus\n"),
              std::string::npos)
        << dump;
}

TEST(CheckWatchdog, HonestChannelNeverTrips)
{
    CheckConfig check;
    check.enabled = true;
    check.watchdogCycles = 500;
    CheckHarness h(SchedAlgo::FrFcfs, check);
    // Tight watchdog plus long idle stretches: idling with an empty
    // queue is progress, not a stall.
    h.drive(2000);
    h.drain();
    h.drive(2000, /*everyN=*/50); // sparse traffic, long gaps
    h.drain();
    EXPECT_FALSE(h.checker_->hasRule(RuleId::Watchdog));
}

// ---------------------------------------------------------------------
// Fault injection: every mode must trip its rule.
// ---------------------------------------------------------------------

TEST(CheckFault, DropCompletionIsDetectedAsLostRequest)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = false;
    check.fault = FaultKind::DropCompletion;
    check.faultPeriod = 1; // drop every read completion
    CheckHarness h(SchedAlgo::FrFcfs, check);

    h.drive(2000);
    h.drain();
    h.checker_->finalize(/*requireDrained=*/true);

    EXPECT_GT(h.injector_->injections(), 0u);
    EXPECT_TRUE(h.checker_->hasRule(RuleId::LostRequest))
        << h.checker_->report();
    EXPECT_GT(h.checker_->outstanding(), 0u);
    EXPECT_LT(h.completed_, h.accepted_);
}

TEST(CheckFault, DropCompletionWedgesFullSystemCommitWatchdog)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.numCores = 2;
    cfg.dram.channels = 2;
    cfg.check.enabled = true;
    cfg.check.fault = FaultKind::DropCompletion;
    cfg.check.faultPeriod = 1;
    cfg.check.commitWatchdogCycles = 100000;
    System sys(cfg, appParams("art"));
    // Every read's wakeup vanishes; the cores wedge and the
    // commit-side watchdog reports it instead of spinning forever.
    EXPECT_THROW(sys.run(50000), CheckViolation);
}

TEST(CheckFault, EarlyCasViolatesShadowTiming)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = false;
    check.fault = FaultKind::EarlyCas;
    check.faultPeriod = 1; // one cycle of slack every tick
    CheckHarness h(SchedAlgo::FrFcfs, check);

    h.drive(3000);
    h.drain();

    EXPECT_GT(h.injector_->injections(), 0u);
    EXPECT_GT(h.checker_->totalViolations(), 0u);
    const bool timingRule = h.checker_->hasRule(RuleId::Trcd) ||
        h.checker_->hasRule(RuleId::Tccd) ||
        h.checker_->hasRule(RuleId::Twtr) ||
        h.checker_->hasRule(RuleId::Trtw) ||
        h.checker_->hasRule(RuleId::DataBusConflict);
    EXPECT_TRUE(timingRule) << h.checker_->report();
}

TEST(CheckFault, SkipRefreshMissesTheDeadline)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = false;
    check.fault = FaultKind::SkipRefresh;
    check.faultPeriod = 1; // every refresh silently skipped
    CheckHarness h(SchedAlgo::FrFcfs, check, [](SystemConfig &cfg) {
        cfg.dram.channels = 1;
        cfg.dram.ranksPerChannel = 1;
    });

    // Keep commands flowing well past the refresh deadline so the
    // checker can observe the rank going stale.
    h.drive(h.sysCfg_.dram.t.tREFI * 3, /*everyN=*/4);
    h.drain();
    h.checker_->finalize(/*requireDrained=*/true);

    EXPECT_GT(h.injector_->injections(), 0u);
    EXPECT_TRUE(h.checker_->hasRule(RuleId::RefreshInterval))
        << h.checker_->report();
    EXPECT_EQ(
        h.dram_->channel(0).channelStats().refreshes.value(), 0u);
}

TEST(CheckFault, StarveCoreTripsStarvationBound)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = false;
    check.fault = FaultKind::StarveCore;
    check.faultVictim = 2;
    check.starvationCycles = 2000;
    CheckHarness h(SchedAlgo::FrFcfs, check);

    h.drive(12000);
    h.drain();

    EXPECT_GT(h.injector_->injections(), 0u);
    EXPECT_TRUE(h.checker_->hasRule(RuleId::Starvation))
        << h.checker_->report();
    // The starved requests name the victim core.
    bool victimNamed = false;
    for (const Violation &v : h.checker_->violations()) {
        if (v.rule == RuleId::Starvation &&
            v.message.find("core 2") != std::string::npos)
            victimNamed = true;
    }
    EXPECT_TRUE(victimNamed) << h.checker_->report();
}

TEST(CheckFault, FlipCritViolatesPromotionMonotonicity)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = true;
    check.fault = FaultKind::FlipCrit;
    check.faultPeriod = 1;
    CheckHarness h(SchedAlgo::CasRasCrit, check);

    MemRequest req;
    req.addr = 0x8000;
    req.type = ReqType::Read;
    req.core = 3;
    ASSERT_TRUE(h.dram_->enqueue(std::move(req)));
    // The corrupted promotion zeroes the level instead of raising it.
    EXPECT_THROW(h.dram_->promote(0x8000, 3, 7), CheckViolation);
    EXPECT_TRUE(h.checker_->hasRule(RuleId::CritDecrease));
    EXPECT_GT(h.injector_->injections(), 0u);
}

// ---------------------------------------------------------------------
// Conservation bookkeeping details.
// ---------------------------------------------------------------------

TEST(CheckConservation, UnknownCompletionAndDuplicateIdAreReported)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = false;
    DramConfig dcfg = DramConfig::preset(DramSpeed::DDR3_2133);
    dcfg.channels = 1;
    ProtocolChecker checker(check, dcfg);

    MemRequest req;
    req.addr = 0x40;
    req.id = 7;
    DramCoord coord;
    checker.onEnqueue(0, req, coord, 1);
    checker.onEnqueue(0, req, coord, 2); // same id still in flight
    EXPECT_TRUE(checker.hasRule(RuleId::DuplicateId));

    MemRequest other;
    other.addr = 0x80;
    other.id = 99; // never enqueued
    checker.onComplete(0, other, 3);
    EXPECT_TRUE(checker.hasRule(RuleId::UnknownCompletion));

    checker.onComplete(0, req, 4);
    checker.finalize(/*requireDrained=*/true);
    EXPECT_FALSE(checker.hasRule(RuleId::LostRequest));
}

TEST(CheckConservation, RequestStampedNextCycleIsNotStarved)
{
    // DramSystem::enqueue stamps lastNow_ + 1, so a writeback evicted
    // by a fill inside DRAM tick `now` carries `now + 1` when a later
    // command of the same tick scans for starvation at `now`. That
    // request has waited 0 cycles, not 2^64 - 1.
    CheckConfig check;
    check.enabled = true;
    check.failFast = false;
    check.starvationCycles = 2000;
    DramConfig dcfg = DramConfig::preset(DramSpeed::DDR3_2133);
    dcfg.channels = 1;
    ProtocolChecker checker(check, dcfg);

    const DramCycle now = 10000;
    DramCoord coord;
    MemRequest starved;
    starved.id = 1;
    starved.core = 3;
    checker.onEnqueue(0, starved, coord, 1);
    MemRequest fresh;
    fresh.id = 2;
    fresh.type = ReqType::Write;
    checker.onEnqueue(0, fresh, coord, now + 1);
    checker.onCommand(0, DramCmd::Act, coord, now);

    std::size_t starvations = 0;
    for (const Violation &v : checker.violations()) {
        if (v.rule != RuleId::Starvation)
            continue;
        ++starvations;
        EXPECT_NE(v.message.find("request id 1 from core 3"),
                  std::string::npos)
            << v.message;
    }
    EXPECT_EQ(starvations, 1u) << checker.report();
}

TEST(CheckConservation, FailFastThrowsOnFirstViolation)
{
    CheckConfig check;
    check.enabled = true;
    check.failFast = true;
    DramConfig dcfg = DramConfig::preset(DramSpeed::DDR3_2133);
    dcfg.channels = 1;
    ProtocolChecker checker(check, dcfg);

    MemRequest req;
    req.id = 1;
    DramCoord coord;
    checker.onEnqueue(0, req, coord, 1);
    EXPECT_THROW(checker.onEnqueue(0, req, coord, 2), CheckViolation);
    try {
        checker.onComplete(0, MemRequest{}, 3);
        FAIL() << "expected CheckViolation";
    } catch (const CheckViolation &err) {
        EXPECT_EQ(err.violation().rule, RuleId::UnknownCompletion);
        EXPECT_NE(std::string(err.what()).find("UnknownCompletion"),
                  std::string::npos);
    }
}

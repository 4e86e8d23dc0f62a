/** @file Tests for the extension features: ATLAS / Minimalist / FCFS
 *  scheduling, the closed-page row policy, and the
 *  saturating/probabilistic CBP counters. */

#include <gtest/gtest.h>

#include <string>

#include "crit/cbp.hh"
#include "dram/dram.hh"
#include "sched/atlas.hh"
#include "sched/frfcfs.hh"
#include "sched/minimalist.hh"
#include "system/experiment.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

SchedCandidate
cand(DramCmd cmd, std::uint64_t seq, CoreId core = 0,
     bool prefetch = false)
{
    SchedCandidate c;
    c.cmd = cmd;
    c.rowHit = c.isCas();
    c.seq = seq;
    c.core = core;
    c.isPrefetch = prefetch;
    c.arrival = 10;
    return c;
}

} // namespace

TEST(Fcfs, IgnoresRowBufferState)
{
    FcfsScheduler sched;
    // An older ACT beats a younger row hit: strict age order.
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 9), cand(DramCmd::Act, 1)};
    EXPECT_EQ(sched.pick(0, cands, 100), 1);
}

TEST(Atlas, LeastAttainedServiceRankedFirst)
{
    AtlasScheduler sched(2, /*quantum=*/100);
    // Core 1 receives lots of service in quantum 0.
    for (int i = 0; i < 50; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 1), 10);
    sched.onIssue(0, cand(DramCmd::Read, 60, 0), 10);
    sched.tick(100);
    EXPECT_LT(sched.attained(0), sched.attained(1));
    // The light thread's row miss beats the hog's row hit.
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 1, 1), cand(DramCmd::Act, 5, 0)};
    EXPECT_EQ(sched.pick(0, cands, 120), 1);
}

TEST(Atlas, ServiceDecaysAcrossQuanta)
{
    AtlasScheduler sched(2, 100, /*decay=*/0.5);
    for (int i = 0; i < 64; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 0), 10);
    sched.tick(100);
    const double after1 = sched.attained(0);
    sched.tick(200); // idle quantum: service decays
    EXPECT_LT(sched.attained(0), after1);
}

TEST(Minimalist, LowMlpThreadWins)
{
    MinimalistScheduler sched(1, 2, 8);
    // Thread 0 has 4 outstanding reads, thread 1 has 1.
    for (std::uint64_t i = 0; i < 4; ++i) {
        MemRequest req;
        req.id = i;
        req.core = 0;
        sched.onEnqueue(0, req, DramCoord{}, 10);
    }
    MemRequest req;
    req.id = 4;
    req.core = 1;
    sched.onEnqueue(0, req, DramCoord{}, 10);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 0, 0), cand(DramCmd::Read, 4, 1)};
    EXPECT_EQ(sched.pick(0, cands, 100), 1);
}

TEST(Minimalist, PrefetchesAlwaysLast)
{
    MinimalistScheduler sched(1, 2, 8);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 1, 0, /*prefetch=*/true),
        cand(DramCmd::Act, 9, 0)};
    EXPECT_EQ(sched.pick(0, cands, 100), 1);
}

TEST(ClosedPage, AutoPrechargesIdleRows)
{
    stats::Group root;
    FrFcfsScheduler sched;
    DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;
    cfg.closedPage = true;
    DramSystem dram(cfg, sched, root);
    MemRequest req;
    req.addr = 0x4000;
    req.type = ReqType::Read;
    ASSERT_TRUE(dram.enqueue(std::move(req)));
    for (DramCycle now = 1; now < 200; ++now)
        dram.tick(now);
    EXPECT_EQ(dram.channel(0).channelStats().autoPrecharges.value(),
              1u);
}

TEST(ClosedPage, KeepsRowOpenForPendingHit)
{
    stats::Group root;
    FrFcfsScheduler sched;
    DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;
    cfg.closedPage = true;
    DramSystem dram(cfg, sched, root);
    // Two reads to the same row: the first CAS must not close the
    // row under the second's feet.
    for (const Addr addr : {Addr{0x4000}, Addr{0x4040}}) {
        MemRequest req;
        req.addr = addr;
        req.type = ReqType::Read;
        ASSERT_TRUE(dram.enqueue(std::move(req)));
    }
    for (DramCycle now = 1; now < 300; ++now)
        dram.tick(now);
    const auto &ds = dram.channel(0).channelStats();
    EXPECT_EQ(ds.reads.value(), 2u);
    EXPECT_EQ(ds.activates.value(), 1u); // second read was a row hit
    EXPECT_EQ(ds.autoPrecharges.value(), 1u);
}

TEST(ClosedPage, EndToEndRunStillCorrect)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dram.closedPage = true;
    System sys(cfg, appParams("mg"));
    const Cycle cycles = sys.run(1500);
    EXPECT_GT(cycles, 0u);
    for (std::uint32_t i = 0; i < sys.numCores(); ++i)
        EXPECT_TRUE(sys.core(i).finished());
}

TEST(CbpExt, SaturatingCounterCapsAtWidth)
{
    CommitBlockPredictor cbp(CritPredictor::CbpTotalStall, 64, 0,
                             /*counterWidth=*/4);
    cbp.update(0x400000, 1000);
    EXPECT_EQ(cbp.predict(0x400000), 15u);
    cbp.update(0x400000, 1000);
    EXPECT_EQ(cbp.predict(0x400000), 15u); // stays saturated
    EXPECT_EQ(cbp.maxObserved(), 15u);
}

TEST(CbpExt, SaturationAppliesToMaxStallToo)
{
    CommitBlockPredictor cbp(CritPredictor::CbpMaxStall, 64, 0, 6);
    cbp.update(0x400000, 500);
    EXPECT_EQ(cbp.predict(0x400000), 63u);
}

TEST(CbpExt, ProbabilisticUpdatesAreUnbiased)
{
    // With shift s, each update lands with probability 2^-s scaled by
    // 2^s: over many updates the total converges to the exact sum.
    CommitBlockPredictor exact(CritPredictor::CbpBlockCount, 64, 0);
    CommitBlockPredictor prob(CritPredictor::CbpBlockCount, 64, 0, 0,
                              /*probShift=*/3);
    for (int i = 0; i < 8000; ++i) {
        exact.update(0x400000, 1);
        prob.update(0x400000, 1);
    }
    const double exactVal =
        static_cast<double>(exact.predict(0x400000));
    const double probVal = static_cast<double>(prob.predict(0x400000));
    EXPECT_NEAR(probVal / exactVal, 1.0, 0.15);
}

TEST(CbpExt, ProbabilisticDoesNotAffectMaxStall)
{
    // Only the accumulating annotations use probabilistic updates.
    CommitBlockPredictor cbp(CritPredictor::CbpMaxStall, 64, 0, 0, 4);
    cbp.update(0x400000, 123);
    EXPECT_EQ(cbp.predict(0x400000), 123u);
}

TEST(ExtSchedulers, EndToEndRuns)
{
    for (const SchedAlgo algo :
         {SchedAlgo::Fcfs, SchedAlgo::Atlas, SchedAlgo::Minimalist}) {
        SystemConfig cfg = SystemConfig::parallelDefault();
        cfg.sched.algo = algo;
        System sys(cfg, appParams("cg"));
        sys.run(1200);
        for (std::uint32_t i = 0; i < sys.numCores(); ++i)
            EXPECT_TRUE(sys.core(i).finished()) << toString(algo);
    }
}

TEST(ExtSchedulers, FcfsLosesToFrFcfs)
{
    SystemConfig frf = SystemConfig::parallelDefault();
    System a(frf, appParams("swim"));
    a.prewarmCaches();
    const Cycle frfCycles = a.run(3000);

    SystemConfig fcfs = frf;
    fcfs.sched.algo = SchedAlgo::Fcfs;
    System b(fcfs, appParams("swim"));
    b.prewarmCaches();
    const Cycle fcfsCycles = b.run(3000);
    // Ignoring row hits must cost real performance on a streaming app.
    EXPECT_GT(fcfsCycles, frfCycles);
}

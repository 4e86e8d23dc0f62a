/** @file Unit tests for the scheduling policies' arbitration rules. */

#include <gtest/gtest.h>

#include "sched/ahb.hh"
#include "sched/batch_cap_rr.hh"
#include "sched/bliss.hh"
#include "sched/crit_frfcfs.hh"
#include "sched/dyn_thresh.hh"
#include "sched/frfcfs.hh"
#include "sched/morse.hh"
#include "sched/parbs.hh"
#include "sched/registry.hh"
#include "sched/tcm.hh"

using namespace critmem;

namespace
{

SchedCandidate
cand(DramCmd cmd, std::uint64_t seq, CritLevel crit = 0,
     CoreId core = 0, bool prefetch = false)
{
    SchedCandidate c;
    c.cmd = cmd;
    c.rowHit = c.isCas();
    c.seq = seq;
    c.crit = crit;
    c.core = core;
    c.isPrefetch = prefetch;
    c.arrival = 100;
    c.queueIndex = static_cast<std::uint32_t>(seq);
    return c;
}

} // namespace

TEST(FrFcfs, PrefersCasOverRas)
{
    FrFcfsScheduler sched;
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Act, 1), cand(DramCmd::Read, 9)};
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(FrFcfs, OldestWithinClass)
{
    FrFcfsScheduler sched;
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 5), cand(DramCmd::Read, 2),
        cand(DramCmd::Read, 8)};
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(FrFcfs, DemandBeatsPrefetch)
{
    FrFcfsScheduler sched;
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 1, 0, 0, /*prefetch=*/true),
        cand(DramCmd::Read, 9)};
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(FrFcfs, PreOverNothing)
{
    FrFcfsScheduler sched;
    const std::vector<SchedCandidate> cands = {cand(DramCmd::Pre, 4)};
    EXPECT_EQ(sched.pick(0, cands, 200), 0);
}

TEST(CasRasCrit, CriticalCasFirst)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 0);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 1, 0),       // older non-crit CAS
        cand(DramCmd::Read, 9, 5),       // younger critical CAS
        cand(DramCmd::Act, 0, 9)};       // oldest critical RAS
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(CasRasCrit, NonCritCasBeatsCritRas)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 0);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Act, 0, 9), cand(DramCmd::Read, 5, 0)};
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(CritCasRas, CritRasBeatsNonCritCas)
{
    CritFrFcfsScheduler sched(CritOrder::CritFirst, 0);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Act, 0, 9), cand(DramCmd::Read, 5, 0)};
    EXPECT_EQ(sched.pick(0, cands, 200), 0);
}

TEST(CasRasCrit, MagnitudeOutranksAge)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 0);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 1, 100), cand(DramCmd::Read, 9, 5000)};
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(CasRasCrit, AgeBreaksMagnitudeTies)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 0);
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Read, 7, 42), cand(DramCmd::Read, 3, 42)};
    EXPECT_EQ(sched.pick(0, cands, 200), 1);
}

TEST(CasRasCrit, StarvationCapPromotesOldRequests)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 50);
    SchedCandidate old = cand(DramCmd::Read, 0, 0);
    old.arrival = 100;
    SchedCandidate young = cand(DramCmd::Read, 9, 7);
    young.arrival = 999;
    // Past the cap, the old non-critical request outranks magnitude 7.
    EXPECT_EQ(sched.pick(0, {old, young}, 1000), 0);
    sched.onIssue(0, old, 1000);
    EXPECT_EQ(sched.starvationPromotions(), 1u);
}

TEST(CasRasCrit, StarvedRequestCountsOncePerIssue)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 50);
    SchedCandidate act = cand(DramCmd::Act, 0, 0);
    act.arrival = 100;
    SchedCandidate old = cand(DramCmd::Read, 0, 0);
    old.arrival = 100;
    // Picks alone count nothing, however often the request is seen.
    for (DramCycle now = 1000; now < 1100; ++now)
        EXPECT_EQ(sched.pick(0, {old}, now), 0);
    EXPECT_EQ(sched.starvationPromotions(), 0u);
    // Its ACT issuing is no promotion served; its CAS is, once.
    sched.onIssue(0, act, 1100);
    sched.onIssue(0, old, 1101);
    EXPECT_EQ(sched.starvationPromotions(), 1u);
    // A critical or young request's CAS counts nothing.
    SchedCandidate crit = cand(DramCmd::Read, 1, 3);
    crit.arrival = 100;
    SchedCandidate young = cand(DramCmd::Read, 2, 0);
    young.arrival = 1100;
    sched.onIssue(0, crit, 1102);
    sched.onIssue(0, young, 1102);
    EXPECT_EQ(sched.starvationPromotions(), 1u);
}

TEST(CasRasCrit, NoPromotionBeforeCap)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 6000);
    SchedCandidate old = cand(DramCmd::Read, 0, 0);
    old.arrival = 100;
    SchedCandidate young = cand(DramCmd::Read, 9, 7);
    young.arrival = 999;
    EXPECT_EQ(sched.pick(0, {old, young}, 1000), 1);
    sched.onIssue(0, old, 1000);
    EXPECT_EQ(sched.starvationPromotions(), 0u);
}

namespace
{

/** Feed PAR-BS a mirrored queue entry. */
void
feed(ParBsScheduler &sched, std::uint64_t id, CoreId core,
     std::uint32_t bank, bool write = false)
{
    MemRequest req;
    req.id = id;
    req.core = core;
    req.type = write ? ReqType::Write : ReqType::Read;
    DramCoord coord;
    coord.rank = 0;
    coord.bank = bank;
    sched.onEnqueue(0, req, coord, 10);
}

} // namespace

TEST(ParBs, MarkedRequestsOutrankRowHits)
{
    ParBsScheduler sched(1, 2, 8, /*markingCap=*/1);
    feed(sched, 0, 0, 0); // will be marked (first of thread 0, bank 0)
    feed(sched, 1, 0, 0); // exceeds cap: unmarked
    // Unmarked row hit vs marked row miss: marked wins.
    SchedCandidate hit = cand(DramCmd::Read, 1, 0, 0);
    SchedCandidate marked = cand(DramCmd::Act, 0, 0, 0);
    EXPECT_EQ(sched.pick(0, {hit, marked}, 100), 1);
    EXPECT_EQ(sched.batchesFormed(), 1u);
}

TEST(ParBs, ShortestJobRankedFirst)
{
    ParBsScheduler sched(1, 2, 8, 5);
    // Thread 0: 4 requests on one bank (max load 4). Thread 1: 1.
    for (std::uint64_t i = 0; i < 4; ++i)
        feed(sched, i, 0, 0);
    feed(sched, 4, 1, 1);
    // Both marked and row-hit: the lighter thread (1) wins despite age.
    SchedCandidate heavy = cand(DramCmd::Read, 0, 0, 0);
    SchedCandidate light = cand(DramCmd::Read, 4, 0, 1);
    EXPECT_EQ(sched.pick(0, {heavy, light}, 100), 1);
}

TEST(ParBs, WritebacksWithoutThreadAreSafe)
{
    // Regression: writebacks carry core == kNoCore and must neither
    // crash batch formation nor be marked.
    ParBsScheduler sched(1, 4, 8, 5);
    MemRequest wb;
    wb.id = 0;
    wb.core = kNoCore;
    wb.type = ReqType::Write;
    DramCoord coord;
    sched.onEnqueue(0, wb, coord, 10);
    feed(sched, 1, 2, 3);
    SchedCandidate write = cand(DramCmd::Write, 0, 0, kNoCore);
    SchedCandidate demand = cand(DramCmd::Read, 1, 0, 2);
    EXPECT_EQ(sched.pick(0, {write, demand}, 100), 1);
}

TEST(ParBs, NewBatchWhenMarkedDrains)
{
    ParBsScheduler sched(1, 2, 8, 1);
    feed(sched, 0, 0, 0);
    const std::vector<SchedCandidate> first = {
        cand(DramCmd::Read, 0, 0, 0)};
    EXPECT_EQ(sched.pick(0, first, 100), 0);
    sched.onIssue(0, first[0], 100); // CAS retires the marked request
    feed(sched, 1, 1, 0);
    const std::vector<SchedCandidate> second = {
        cand(DramCmd::Read, 1, 0, 1)};
    EXPECT_EQ(sched.pick(0, second, 110), 0);
    EXPECT_EQ(sched.batchesFormed(), 2u);
}

TEST(Tcm, LatencyClusterOutranksBandwidth)
{
    TcmScheduler sched(2, false, 1, /*quantum=*/100);
    // Core 1 hogs bandwidth during the first quantum.
    for (int i = 0; i < 100; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 0, 1), 10);
    sched.onIssue(0, cand(DramCmd::Read, 100, 0, 0), 10);
    sched.tick(100); // recluster
    EXPECT_TRUE(sched.inLatencyCluster(0));
    EXPECT_FALSE(sched.inLatencyCluster(1));
    // Row-hit candidate of the hog vs row-miss of the light thread:
    // thread rank dominates.
    SchedCandidate hog = cand(DramCmd::Read, 1, 0, 1);
    SchedCandidate light = cand(DramCmd::Act, 5, 0, 0);
    EXPECT_EQ(sched.pick(0, {hog, light}, 120), 1);
}

TEST(Tcm, CritTiebreakOnlyWithinRank)
{
    TcmScheduler sched(2, /*critTiebreak=*/true, 1);
    // Same thread, both row hits: criticality decides.
    SchedCandidate a = cand(DramCmd::Read, 1, 0, 0);
    SchedCandidate b = cand(DramCmd::Read, 9, 50, 0);
    EXPECT_EQ(sched.pick(0, {a, b}, 100), 1);
    // Without the hybrid flag, age decides.
    TcmScheduler plain(2, false, 1);
    EXPECT_EQ(plain.pick(0, {a, b}, 100), 0);
}

TEST(Ahb, PrefersCasAndAvoidsTurnaround)
{
    AhbScheduler sched;
    // Seed history: last CAS was a read on rank 0.
    sched.onIssue(0, cand(DramCmd::Read, 0, 0, 0), 10);
    SchedCandidate sameKind = cand(DramCmd::Read, 5, 0, 0);
    SchedCandidate turnaround = cand(DramCmd::Write, 1, 0, 0);
    // Despite being younger, the read avoids the read->write switch.
    EXPECT_EQ(sched.pick(0, {turnaround, sameKind}, 20), 1);
}

TEST(Ahb, CasBeatsRowCommands)
{
    AhbScheduler sched;
    const std::vector<SchedCandidate> cands = {
        cand(DramCmd::Pre, 0), cand(DramCmd::Read, 9)};
    EXPECT_EQ(sched.pick(0, cands, 20), 1);
}

TEST(Morse, PicksValidIndexAndIsDeterministic)
{
    MorseScheduler a(1, 8, 24, false, 99);
    MorseScheduler b(1, 8, 24, false, 99);
    std::vector<SchedCandidate> cands;
    for (std::uint64_t i = 0; i < 10; ++i)
        cands.push_back(cand(i % 2 ? DramCmd::Read : DramCmd::Act, i));
    for (DramCycle now = 1; now < 200; ++now) {
        const int pa = a.pick(0, cands, now);
        const int pb = b.pick(0, cands, now);
        ASSERT_GE(pa, 0);
        ASSERT_LT(pa, static_cast<int>(cands.size()));
        EXPECT_EQ(pa, pb);
    }
}

TEST(Morse, RestrictionConsidersOldestOnly)
{
    MorseScheduler sched(1, 8, /*maxCommands=*/2, false, 7);
    // Ten candidates; only the two oldest (seq 0, 1) are evaluable.
    std::vector<SchedCandidate> cands;
    for (std::uint64_t i = 0; i < 10; ++i)
        cands.push_back(cand(DramCmd::Read, i));
    for (DramCycle now = 1; now < 100; ++now) {
        const int p = sched.pick(0, cands, now);
        EXPECT_LE(cands[p].seq, 1u);
    }
}

TEST(Morse, LearnsToPreferDataMovingCommands)
{
    MorseScheduler sched(1, 8, 24, false, 3);
    std::vector<SchedCandidate> cands = {cand(DramCmd::Pre, 0),
                                         cand(DramCmd::Read, 1)};
    int casPicks = 0;
    const int rounds = 4000;
    for (int i = 0; i < rounds; ++i) {
        const int p = sched.pick(0, cands, 10 + i);
        if (cands[p].cmd == DramCmd::Read) {
            ++casPicks;
            sched.onIssue(0, cands[p], 10 + i); // reward: data moved
        }
    }
    // After training, CAS should dominate (well above the 50% of a
    // random policy).
    EXPECT_GT(casPicks, rounds * 3 / 4);
}

TEST(Registry, BuildsEveryAlgorithm)
{
    for (const SchedAlgo algo :
         {SchedAlgo::Fcfs, SchedAlgo::FrFcfs, SchedAlgo::CritCasRas,
          SchedAlgo::CasRasCrit, SchedAlgo::ParBs, SchedAlgo::Tcm,
          SchedAlgo::TcmCrit, SchedAlgo::Ahb, SchedAlgo::Morse,
          SchedAlgo::CritRl, SchedAlgo::Atlas, SchedAlgo::Minimalist,
          SchedAlgo::Bliss, SchedAlgo::BatchCapRr,
          SchedAlgo::DynThreshCrit}) {
        SystemConfig cfg = SystemConfig::parallelDefault();
        cfg.sched.algo = algo;
        const auto sched = makeScheduler(cfg);
        ASSERT_NE(sched, nullptr);
        EXPECT_STREQ(sched->name(), toString(algo));
    }
}

/** Fuzz: every policy returns a valid index on arbitrary inputs. */
class SchedFuzzTest : public ::testing::TestWithParam<SchedAlgo>
{
};

TEST_P(SchedFuzzTest, AlwaysPicksValidCandidate)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = GetParam();
    const auto sched = makeScheduler(cfg);

    std::uint64_t state = 0x1234abcd;
    auto rnd = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    for (int round = 0; round < 300; ++round) {
        std::vector<SchedCandidate> cands;
        const std::size_t n = 1 + rnd() % 32;
        for (std::size_t i = 0; i < n; ++i) {
            SchedCandidate c;
            c.cmd = static_cast<DramCmd>(rnd() % 4);
            c.rowHit = c.isCas();
            c.isWrite = c.cmd == DramCmd::Write;
            c.isPrefetch = rnd() % 8 == 0;
            c.coord.rank = rnd() % 4;
            c.coord.bank = rnd() % 8;
            c.core = rnd() % 10; // sometimes out of range on purpose
            if (rnd() % 4 == 0)
                c.core = kNoCore;
            c.crit = rnd() % 3 ? 0 : static_cast<CritLevel>(rnd());
            c.seq = rnd();
            c.arrival = rnd() % 1000;
            c.queueIndex = static_cast<std::uint32_t>(i);
            cands.push_back(c);
        }
        const DramCycle now = 1000 + round;
        sched->tick(now);
        const int p = sched->pick(0, cands, now);
        ASSERT_GE(p, 0);
        ASSERT_LT(p, static_cast<int>(cands.size()));
        sched->onIssue(0, cands[p], now);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SchedFuzzTest,
    ::testing::Values(SchedAlgo::Fcfs, SchedAlgo::FrFcfs,
                      SchedAlgo::CritCasRas, SchedAlgo::CasRasCrit,
                      SchedAlgo::ParBs, SchedAlgo::Tcm,
                      SchedAlgo::TcmCrit, SchedAlgo::Ahb,
                      SchedAlgo::Morse, SchedAlgo::CritRl,
                      SchedAlgo::Atlas, SchedAlgo::Minimalist,
                      SchedAlgo::Bliss, SchedAlgo::BatchCapRr,
                      SchedAlgo::DynThreshCrit));

TEST(Ahb, AdaptsTargetMixAcrossEpochs)
{
    AhbScheduler sched(/*epoch=*/100);
    // Epoch 1 arrivals: write-heavy.
    for (std::uint64_t i = 0; i < 20; ++i) {
        MemRequest req;
        req.type = i % 2 ? ReqType::Write : ReqType::Read;
        sched.onEnqueue(0, req, DramCoord{}, 10);
    }
    sched.tick(100); // target write fraction becomes ~0.5
    // With zero writes issued yet, the scheduler now wants a write.
    SchedCandidate rd = cand(DramCmd::Read, 5, 0, 0);
    SchedCandidate wr = cand(DramCmd::Write, 9, 0, 0);
    EXPECT_EQ(sched.pick(0, {rd, wr}, 120), 1);
}

TEST(Tcm, ShuffleIsDeterministicPerSeed)
{
    TcmScheduler a(8, false, 42, /*quantum=*/50);
    TcmScheduler b(8, false, 42, /*quantum=*/50);
    // Drive identical issue + tick histories; picks must match.
    for (DramCycle now = 1; now < 2000; now += 7) {
        a.tick(now);
        b.tick(now);
        std::vector<SchedCandidate> cands;
        for (std::uint64_t i = 0; i < 8; ++i)
            cands.push_back(cand(DramCmd::Read, i, 0, i % 8));
        const int pa = a.pick(0, cands, now);
        ASSERT_EQ(pa, b.pick(0, cands, now));
        a.onIssue(0, cands[pa], now);
        b.onIssue(0, cands[pa], now);
    }
}

TEST(Morse, CritRlConsumesCriticalityFeatures)
{
    // Crit-RL must distinguish two otherwise-identical candidates by
    // criticality: after rewarding only the critical pick, it should
    // prefer critical candidates.
    MorseScheduler sched(1, 8, 24, /*useCriticality=*/true, 11);
    SchedCandidate plain = cand(DramCmd::Read, 0, 0, 0);
    SchedCandidate critical = cand(DramCmd::Read, 1, 5000, 0);
    int critPicks = 0;
    const int rounds = 4000;
    for (int i = 0; i < rounds; ++i) {
        const int p = sched.pick(0, {plain, critical}, 10 + i);
        if (p == 1) {
            ++critPicks;
            sched.onIssue(0, critical, 10 + i); // reward
        }
    }
    EXPECT_GT(critPicks, rounds / 2);
}

TEST(CasRasCrit, WritebacksAreNonCriticalClass)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst, 0);
    // A younger critical read row hit beats an older write row hit.
    SchedCandidate wb = cand(DramCmd::Write, 0, 0, kNoCore);
    SchedCandidate rd = cand(DramCmd::Read, 9, 3, 1);
    EXPECT_EQ(sched.pick(0, {wb, rd}, 100), 1);
}

TEST(Bliss, BlacklistsExactlyAtThreshold)
{
    BlissScheduler sched(1, 4, /*threshold=*/4, /*clearInterval=*/10000);
    // Three consecutive CAS for core 0: one short of the threshold.
    for (int i = 0; i < 3; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 0, 0), 10 + i);
    EXPECT_FALSE(sched.isBlacklisted(0));
    EXPECT_EQ(sched.streak(0), 3u);
    // The tie-at-threshold issue: the fourth consecutive CAS is the
    // boundary case and must trip the blacklist.
    sched.onIssue(0, cand(DramCmd::Read, 3, 0, 0), 13);
    EXPECT_TRUE(sched.isBlacklisted(0));
    EXPECT_EQ(sched.streak(0), 0u); // streak restarts after the trip
}

TEST(Bliss, AlternatingCoresNeverBlacklist)
{
    BlissScheduler sched(1, 2, /*threshold=*/4, /*clearInterval=*/10000);
    for (int i = 0; i < 40; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 0, i % 2), 10 + i);
    EXPECT_FALSE(sched.isBlacklisted(0));
    EXPECT_FALSE(sched.isBlacklisted(1));
}

TEST(Bliss, BlacklistedCoreLosesToOthers)
{
    BlissScheduler sched(1, 2, /*threshold=*/2, /*clearInterval=*/10000);
    sched.onIssue(0, cand(DramCmd::Read, 0, 0, 0), 10);
    sched.onIssue(0, cand(DramCmd::Read, 1, 0, 0), 11);
    ASSERT_TRUE(sched.isBlacklisted(0));
    // Older row hit from the blacklisted core vs younger row miss from
    // core 1: the non-blacklisted request wins.
    SchedCandidate hog = cand(DramCmd::Read, 2, 0, 0);
    SchedCandidate other = cand(DramCmd::Act, 9, 0, 1);
    EXPECT_EQ(sched.pick(0, {hog, other}, 20), 1);
    // RAS commands never advance the streak.
    sched.onIssue(0, other, 20);
    EXPECT_EQ(sched.streak(0), 0u);
}

TEST(Bliss, ClearingIntervalWraparound)
{
    BlissScheduler sched(1, 2, /*threshold=*/2, /*clearInterval=*/100);
    sched.onIssue(0, cand(DramCmd::Read, 0, 0, 0), 10);
    sched.onIssue(0, cand(DramCmd::Read, 1, 0, 0), 11);
    ASSERT_TRUE(sched.isBlacklisted(0));
    EXPECT_EQ(sched.nextEventCycle(11), 100u);

    // Before the boundary nothing clears.
    sched.tick(99);
    EXPECT_TRUE(sched.isBlacklisted(0));

    // An event-driven cycle skip can land past several clearing
    // boundaries at once; the next clear must re-arm strictly beyond
    // `now`, not at a stale cycle in the past.
    sched.tick(250);
    EXPECT_FALSE(sched.isBlacklisted(0));
    EXPECT_EQ(sched.nextClear(), 300u);
    EXPECT_GT(sched.nextEventCycle(250), 250u);
}

TEST(BatchCapRr, RotatesAfterCap)
{
    BatchCapRrScheduler sched(1, 2, /*cap=*/2);
    EXPECT_EQ(sched.activeCore(0), 0u);
    // While core 0 holds the batch, its younger request beats core 1's
    // older one.
    SchedCandidate c0 = cand(DramCmd::Read, 9, 0, 0);
    SchedCandidate c1 = cand(DramCmd::Read, 1, 0, 1);
    EXPECT_EQ(sched.pick(0, {c1, c0}, 20), 1);

    sched.onIssue(0, c0, 20);
    EXPECT_EQ(sched.served(0), 1u);
    sched.onIssue(0, c0, 21); // cap reached: rotate to core 1
    EXPECT_EQ(sched.activeCore(0), 1u);
    EXPECT_EQ(sched.served(0), 0u);
    EXPECT_EQ(sched.pick(0, {c1, c0}, 22), 0);
}

TEST(BatchCapRr, RowHitsWinWithinTheActiveBatch)
{
    BatchCapRrScheduler sched(1, 2, /*cap=*/8);
    SchedCandidate miss = cand(DramCmd::Act, 1, 0, 0);
    SchedCandidate hit = cand(DramCmd::Read, 9, 0, 0);
    EXPECT_EQ(sched.pick(0, {miss, hit}, 20), 1);
}

TEST(DynThreshCrit, CriticalCasOutranksTheRest)
{
    DynThreshCritScheduler sched(/*epoch=*/1000, /*targetPct=*/25);
    // Threshold starts at 1, so crit=5 is critical and crit=0 is not.
    SchedCandidate plain = cand(DramCmd::Read, 1, 0, 0);
    SchedCandidate critical = cand(DramCmd::Read, 9, 5, 1);
    SchedCandidate critRas = cand(DramCmd::Act, 0, 9, 2);
    EXPECT_EQ(sched.pick(0, {plain, critical, critRas}, 20), 1);
    // Non-critical CAS still beats a critical row command.
    EXPECT_EQ(sched.pick(0, {plain, critRas}, 21), 0);
}

TEST(DynThreshCrit, ThresholdAdaptsTowardTargetMix)
{
    DynThreshCritScheduler sched(/*epoch=*/100, /*targetPct=*/25);
    ASSERT_EQ(sched.threshold(), 1u);
    // Epoch 1: every CAS lands in the critical class (100% > 25%), so
    // the threshold doubles.
    for (int i = 0; i < 8; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 1, 0), 10 + i);
    EXPECT_EQ(sched.casIssued(), 8u);
    EXPECT_EQ(sched.critIssued(), 8u);
    sched.tick(100);
    EXPECT_EQ(sched.threshold(), 2u);
    EXPECT_EQ(sched.casIssued(), 0u); // counters reset per epoch

    // Epoch 2: magnitude 1 is now below the threshold (0% < 25%), so
    // the threshold halves back.
    for (int i = 0; i < 8; ++i)
        sched.onIssue(0, cand(DramCmd::Read, i, 1, 0), 110 + i);
    EXPECT_EQ(sched.critIssued(), 0u);
    // A skip past several epoch boundaries must still re-arm the next
    // epoch strictly beyond `now`.
    sched.tick(450);
    EXPECT_EQ(sched.threshold(), 1u);
    EXPECT_GT(sched.nextEventCycle(450), 450u);
}

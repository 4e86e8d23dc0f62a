/** @file Timing and protocol tests for the DDR3 model. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dram/dram.hh"
#include "sched/frfcfs.hh"
#include "sched/registry.hh"
#include "sim/random.hh"

using namespace critmem;

namespace
{

/** Single-channel, single-rank harness with manual clocking. */
class DramTest : public ::testing::Test, public FillListener
{
  protected:
    void
    build(std::uint32_t channels = 1, std::uint32_t ranks = 1,
          bool closedPage = false)
    {
        cfg_ = DramConfig::preset(DramSpeed::DDR3_2133);
        cfg_.channels = channels;
        cfg_.ranksPerChannel = ranks;
        cfg_.closedPage = closedPage;
        dram_ = std::make_unique<DramSystem>(cfg_, sched_, root_);
        dram_->setFillListener(this);
    }

    /** Enqueue a read; returns a handle to its completion cycle. */
    std::shared_ptr<DramCycle>
    read(Addr addr, CritLevel crit = 0)
    {
        auto done = std::make_shared<DramCycle>(0);
        MemRequest req;
        req.addr = addr;
        req.type = ReqType::Read;
        req.crit = crit;
        EXPECT_TRUE(dram_->enqueue(std::move(req)));
        reads_.emplace_back(addr, done);
        return done;
    }

    /** Stamp the oldest unfinished read() of the filled address. */
    void
    onFill(const MemRequest &req) override
    {
        for (auto &[addr, done] : reads_) {
            if (addr == req.addr && *done == 0) {
                *done = now_;
                return;
            }
        }
    }

    void
    tick(DramCycle cycles)
    {
        for (DramCycle i = 0; i < cycles; ++i)
            dram_->tick(++now_);
    }

    stats::Group root_;
    FrFcfsScheduler sched_;
    DramConfig cfg_;
    std::unique_ptr<DramSystem> dram_;
    DramCycle now_ = 0;
    std::vector<std::pair<Addr, std::shared_ptr<DramCycle>>> reads_;
};

/** Every command a channel puts on its bus, in issue order. */
class CmdLog : public ChannelObserver
{
  public:
    struct Entry
    {
        DramCmd cmd;
        DramCoord coord;
        DramCycle at;
    };

    void
    onCommand(std::uint32_t, DramCmd cmd, const DramCoord &coord,
              DramCycle now) override
    {
        entries.push_back({cmd, coord, now});
    }

    /**
     * Cycle of the @p nth (0-based) @p cmd to (@p rank, @p bank), or
     * 0 when there was none.
     */
    DramCycle
    at(DramCmd cmd, std::uint32_t rank, std::uint32_t bank,
       std::uint32_t nth = 0) const
    {
        for (const Entry &e : entries) {
            if (e.cmd == cmd && e.coord.rank == rank &&
                e.coord.bank == bank && nth-- == 0)
                return e.at;
        }
        return 0;
    }

    std::vector<Entry> entries;
};

/**
 * Address of column block @p col of (@p rank, @p bank, @p row) on a
 * one-channel page-interleaved map with @p ranks ranks.
 */
Addr
addrOf(std::uint32_t ranks, std::uint32_t rank, std::uint32_t bank,
       std::uint64_t row, std::uint32_t col = 0)
{
    return ((row * ranks + rank) * 8 + bank) * 1024 + col * 64;
}

} // namespace

TEST_F(DramTest, SingleReadLatencyIsActRcdClBurst)
{
    build();
    const auto done = read(0x10000);
    tick(100);
    // Arrival is stamped cycle 1 (lastNow+1 before any tick); the ACT
    // issues that same cycle, CAS follows at +tRCD, and the data
    // burst completes tCL + BL/2 later.
    const DramCycle expected = 1 + cfg_.t.tRCD + cfg_.t.tCL +
        cfg_.t.dataCycles();
    EXPECT_EQ(*done, expected);
}

TEST_F(DramTest, RowHitSkipsActivate)
{
    build();
    const auto first = read(0x10000);
    tick(100);
    const DramCycle t0 = now_;
    const auto second = read(0x10000 + 64); // same row
    tick(100);
    // Only CAS needed: tCL + burst (+1 arrival, +1 issue slot).
    EXPECT_LE(*second - t0, cfg_.t.tCL + cfg_.t.dataCycles() + 3);
    EXPECT_GT(*second, *first);
}

TEST_F(DramTest, BackToBackRowHitsSpacedByBurst)
{
    build();
    const auto a = read(0x20000);
    const auto b = read(0x20000 + 64);
    tick(200);
    // Both hit the same row; the second's data follows the first's
    // by at least the data-bus occupancy (tCCD >= BL/2 here).
    EXPECT_GE(*b - *a, cfg_.t.dataCycles());
    EXPECT_LE(*b - *a, cfg_.t.tCCD + 2);
}

TEST_F(DramTest, RowConflictPaysPrechargePenalty)
{
    build();
    // Same bank, different rows: row stride is rowBytes * channels *
    // banks * ranks.
    const Addr rowStride = 1024ull * 1 * 8 * 1;
    const auto a = read(0x0);
    const auto b = read(0x0 + rowStride * 8); // same bank, other row
    tick(400);
    // The second read needs PRE (after tRAS from ACT) + ACT + CAS.
    EXPECT_GE(*b - *a,
              static_cast<DramCycle>(cfg_.t.tRP + cfg_.t.tRCD));
}

TEST_F(DramTest, BankParallelismOverlapsActivates)
{
    build();
    // Two different banks: latencies overlap almost fully.
    const Addr bankStride = 1024; // next row -> next bank (1 channel)
    const auto a = read(0x0);
    const auto b = read(bankStride);
    tick(200);
    EXPECT_LT(*b - *a, cfg_.t.tRCD); // far closer than serial service
}

TEST_F(DramTest, RefreshHappensEveryTrefi)
{
    build();
    tick(cfg_.t.tREFI * 3 + 100);
    EXPECT_GE(dram_->channel(0).channelStats().refreshes.value(), 2u);
    EXPECT_LE(dram_->channel(0).channelStats().refreshes.value(), 4u);
}

TEST_F(DramTest, RefreshStaggersAcrossRanks)
{
    build(1, 4);
    tick(cfg_.t.tREFI + 200);
    // All four ranks refresh within one tREFI, staggered.
    EXPECT_EQ(dram_->channel(0).channelStats().refreshes.value(), 4u);
}

TEST_F(DramTest, QueueFullRejects)
{
    build();
    for (std::uint32_t i = 0; i < cfg_.queueEntries; ++i) {
        MemRequest req;
        req.addr = 0x100000 + static_cast<Addr>(i) * 4096 * 8;
        req.type = ReqType::Read;
        ASSERT_TRUE(dram_->enqueue(std::move(req))) << i;
    }
    MemRequest overflow;
    overflow.addr = 0x900000;
    overflow.type = ReqType::Read;
    EXPECT_FALSE(dram_->enqueue(std::move(overflow)));
    EXPECT_GT(dram_->channel(0).channelStats().enqueueRejects.value(),
              0u);
}

TEST_F(DramTest, WriteSharesUnifiedQueue)
{
    build();
    MemRequest wr;
    wr.addr = 0x4000;
    wr.type = ReqType::Write;
    EXPECT_TRUE(dram_->enqueue(std::move(wr)));
    tick(100);
    EXPECT_EQ(dram_->channel(0).channelStats().writes.value(), 1u);
    EXPECT_TRUE(dram_->idle());
}

TEST_F(DramTest, PromoteRaisesQueuedCriticality)
{
    build();
    MemRequest req;
    req.addr = 0x8000;
    req.type = ReqType::Read;
    req.core = 3;
    EXPECT_TRUE(dram_->enqueue(std::move(req)));
    EXPECT_TRUE(dram_->promote(0x8000, 3, 7));
    // Wrong core or absent address: no match.
    EXPECT_FALSE(dram_->promote(0x8000, 2, 7));
    EXPECT_FALSE(dram_->promote(0xdead000, 3, 7));
}

TEST_F(DramTest, IdleAfterDrain)
{
    build();
    read(0x1234);
    EXPECT_FALSE(dram_->idle());
    tick(200);
    EXPECT_TRUE(dram_->idle());
}

TEST_F(DramTest, MultiChannelRouting)
{
    build(4, 1);
    // Consecutive rows go to different channels.
    read(0);
    read(1024);
    read(2048);
    read(3072);
    tick(5);
    std::uint32_t nonEmpty = 0;
    for (std::uint32_t c = 0; c < 4; ++c)
        nonEmpty += dram_->channel(c).readQueueSize() > 0 ||
            !dram_->channel(c).idle();
    EXPECT_EQ(nonEmpty, 4u);
}

TEST_F(DramTest, DataBusUtilizationNeverExceedsCycles)
{
    build();
    for (int i = 0; i < 32; ++i)
        read(0x10000 + static_cast<Addr>(i) * 64);
    tick(1000);
    EXPECT_LE(dram_->channel(0).channelStats().busyDataCycles.value(),
              now_);
}

TEST_F(DramTest, ReadLatencyStatTracksCompletions)
{
    build();
    read(0x0);
    read(0x40);
    tick(200);
    EXPECT_EQ(dram_->channel(0).channelStats().readLatency.count(), 2u);
    EXPECT_GT(dram_->channel(0).channelStats().readLatency.mean(), 0.0);
}

/*
 * The channel caches each queued transaction's ready cycle until a
 * command issues or the refresh engine acts. Each test below pins an
 * exact command cycle that a missed invalidation would move.
 */

TEST_F(DramTest, RowHitEnqueuedWhileReadinessIsCurrentIssuesAtOnce)
{
    build();
    CmdLog log;
    dram_->setObserver(&log);
    read(addrOf(1, 0, 0, 1));
    read(addrOf(1, 0, 0, 2)); // conflict: its PRE waits for tRAS
    tick(20);
    const DramCycle act = log.at(DramCmd::Act, 0, 0);
    ASSERT_EQ(act, 1u);
    ASSERT_EQ(log.at(DramCmd::Read, 0, 0), act + cfg_.t.tRCD);
    // Nothing has issued since the CAS and the conflict's PRE is
    // still tRAS away: the stored readiness is current.
    ASSERT_EQ(log.entries.size(), 2u);
    ASSERT_LT(now_ + 1, act + cfg_.t.tRAS);
    ASSERT_GE(now_, act + cfg_.t.tRCD + cfg_.t.tCCD);
    read(addrOf(1, 0, 0, 1, 1)); // row hit on the open row
    const DramCycle enqueued = now_;
    tick(1);
    EXPECT_EQ(log.at(DramCmd::Read, 0, 0, 1), enqueued + 1);
}

TEST_F(DramTest, RefreshPendingRankReappearsAtRefPlusTrfc)
{
    build();
    CmdLog log;
    dram_->setObserver(&log);
    // A opens bank 0 so that the conflicting T's PRE becomes legal
    // exactly when the rank's first refresh falls due.
    const DramCycle due = cfg_.t.tREFI;
    tick(due - cfg_.t.tRAS - 1);
    read(addrOf(1, 0, 0, 1)); // A
    read(addrOf(1, 0, 0, 2)); // T
    tick(due - now_);
    const DramCycle actA = log.at(DramCmd::Act, 0, 0);
    ASSERT_EQ(actA + cfg_.t.tRAS, due);
    ASSERT_EQ(log.at(DramCmd::Read, 0, 0), actA + cfg_.t.tRCD);
    // The refresh engine, not T, took the PRE on the due cycle.
    EXPECT_EQ(log.at(DramCmd::Pre, 0, 0), due);
    // With T hidden by the pending refresh, the next event is the
    // REF, not T's stale PRE cycle.
    const DramCycle ref = std::max(due + cfg_.t.tRP, actA + cfg_.t.tRC);
    EXPECT_EQ(dram_->nextEventCycle(now_), ref);
    tick(ref + cfg_.t.tRFC + cfg_.t.tRCD + 1 - now_);
    EXPECT_EQ(log.at(DramCmd::Ref, 0, 0), ref);
    EXPECT_EQ(log.at(DramCmd::Act, 0, 0, 1), ref + cfg_.t.tRFC);
    EXPECT_EQ(log.at(DramCmd::Read, 0, 0, 1),
              ref + cfg_.t.tRFC + cfg_.t.tRCD);
}

TEST_F(DramTest, FifthActivateWaitsForTfaw)
{
    build();
    CmdLog log;
    dram_->setObserver(&log);
    for (std::uint32_t bank = 0; bank < 5; ++bank)
        read(addrOf(1, 0, bank, 1));
    tick(100);
    const DramCycle first = log.at(DramCmd::Act, 0, 0);
    ASSERT_EQ(first, 1u);
    for (std::uint32_t bank = 1; bank < 4; ++bank)
        EXPECT_EQ(log.at(DramCmd::Act, 0, bank), first + bank * cfg_.t.tRRD);
    ASSERT_LT(first + 4 * cfg_.t.tRRD, first + cfg_.t.tFAW);
    EXPECT_EQ(log.at(DramCmd::Act, 0, 4), first + cfg_.t.tFAW);
}

TEST_F(DramTest, CasOnOtherRankDelaysRowHitByTrtrs)
{
    build(1, 2);
    CmdLog log;
    dram_->setObserver(&log);
    read(addrOf(2, 1, 0, 1));
    read(addrOf(2, 0, 0, 1));
    tick(100);
    ASSERT_EQ(log.entries.size(), 4u); // two ACTs, two CASes
    read(addrOf(2, 0, 0, 1, 1)); // rank 0 row hit, older
    read(addrOf(2, 1, 0, 1, 1)); // rank 1 row hit
    tick(20);
    const DramCycle cas0 = log.at(DramCmd::Read, 0, 0, 1);
    ASSERT_EQ(cas0, 101u);
    EXPECT_EQ(log.at(DramCmd::Read, 1, 0, 1),
              cas0 + cfg_.t.dataCycles() + cfg_.t.tRTRS);
}

TEST_F(DramTest, AutoPrechargeTurnsConflictIntoActivate)
{
    build(1, 1, /*closedPage=*/true);
    CmdLog log;
    dram_->setObserver(&log);
    read(addrOf(1, 0, 0, 1));
    read(addrOf(1, 0, 0, 2)); // other row: does not keep row 1 open
    tick(200);
    const DramCycle act = log.at(DramCmd::Act, 0, 0);
    const DramCycle cas = log.at(DramCmd::Read, 0, 0);
    ASSERT_EQ(cas, act + cfg_.t.tRCD);
    const DramChannel::Stats &s = dram_->channel(0).channelStats();
    EXPECT_EQ(s.autoPrecharges.value(), 2u);
    EXPECT_EQ(s.precharges.value(), 0u);
    const DramCycle restore =
        std::max(act + cfg_.t.tRAS, cas + cfg_.t.tRTP) + cfg_.t.tRP;
    EXPECT_EQ(log.at(DramCmd::Act, 0, 0, 1),
              std::max(restore, act + cfg_.t.tRC));
}

TEST_F(DramTest, CritInQueueTracksPromotions)
{
    build();
    // Zeroes every promotion while armed.
    struct Corrupt : FaultInjector
    {
        bool armed = false;
        bool corruptPromotion(DramCycle) override { return armed; }
    } inj;
    dram_->setFaultInjector(&inj);
    // Three reads to one bank: all but the first wait on conflicts.
    read(addrOf(1, 0, 0, 1), 0);
    read(addrOf(1, 0, 0, 2), 4);
    read(addrOf(1, 0, 0, 3), 0);
    double expected = 0;
    auto step = [&](DramCycle cycles) {
        for (DramCycle i = 0; i < cycles; ++i) {
            for (const auto &e : dram_->channel(0).snapshot(now_).readQ)
                expected += e.crit > 0 ? 1 : 0;
            tick(1);
        }
    };
    step(5);
    EXPECT_TRUE(dram_->promote(addrOf(1, 0, 0, 3), 0, 7));  // 0 -> 7
    EXPECT_TRUE(dram_->promote(addrOf(1, 0, 0, 2), 0, 9));  // 4 -> 9
    step(5);
    inj.armed = true;
    EXPECT_TRUE(dram_->promote(addrOf(1, 0, 0, 2), 0, 9));  // 9 -> 0
    step(200);
    EXPECT_TRUE(dram_->idle());
    const stats::Average &crit =
        dram_->channel(0).channelStats().critInQueue;
    EXPECT_EQ(crit.count(), now_);
    EXPECT_EQ(crit.sum(), expected);
}

namespace
{

/**
 * The candidates @p snap's channel offers at snap.now, computed from
 * scratch: every queued transaction's command and ready cycle straight
 * from the (effective) bank windows, the rank's tFAW window and the
 * data bus, in queue order (reads, then eligible writes), skipping
 * ranks with a refresh pending.
 */
std::vector<SchedCandidate>
referenceCandidates(const ChannelSnapshot &snap, const DramConfig &cfg)
{
    const DramTiming &t = cfg.t;
    std::vector<SchedCandidate> out;
    auto consider = [&](const std::vector<ChannelSnapshot::QueueEntry> &q,
                        bool isWrite) {
        for (std::uint32_t i = 0; i < q.size(); ++i) {
            const DramCoord &c = q[i].coord;
            const ChannelSnapshot::Rank &rank = snap.ranks[c.rank];
            if (rank.refreshPending)
                continue;
            const ChannelSnapshot::Bank &bank =
                snap.banks[c.rank * cfg.banksPerRank + c.bank];
            SchedCandidate cand;
            cand.queueIndex = i;
            cand.coord = c;
            cand.isWrite = isWrite;
            cand.seq = q[i].id;
            DramCycle at;
            if (!bank.open) {
                cand.cmd = DramCmd::Act;
                const DramCycle oldest = rank.lastActs[0];
                at = std::max(bank.readyAct,
                              oldest == 0 ? 0 : oldest + t.tFAW);
            } else if (bank.row == c.row) {
                cand.cmd = isWrite ? DramCmd::Write : DramCmd::Read;
                cand.rowHit = true;
                const DramCycle busFree = snap.busFreeAt == 0
                    ? 0
                    : snap.busFreeAt +
                        (c.rank != snap.lastBusRank ? t.tRTRS : 0);
                const DramCycle lead = isWrite ? t.tWL : t.tCL;
                at = std::max(isWrite ? bank.readyWrite : bank.readyRead,
                              busFree > lead ? busFree - lead : 0);
            } else {
                cand.cmd = DramCmd::Pre;
                at = bank.readyPre;
            }
            if (at <= snap.now)
                out.push_back(cand);
        }
    };
    consider(snap.readQ, false);
    if (cfg.unifiedQueue || snap.draining ||
        (snap.readQ.empty() && !snap.writeQ.empty()))
        consider(snap.writeQ, true);
    return out;
}

std::string
describe(const std::vector<SchedCandidate> &cands)
{
    std::ostringstream os;
    for (const SchedCandidate &c : cands) {
        os << " [" << (c.isWrite ? "W" : "R") << c.queueIndex << " id "
           << c.seq << " cmd " << static_cast<int>(c.cmd) << "]";
    }
    return os.str();
}

/**
 * Checks at every pick() that the channel's candidates equal
 * referenceCandidates(), then picks a seeded random one (or idles).
 */
class ReferenceScheduler : public Scheduler
{
  public:
    ReferenceScheduler(const DramConfig &cfg, std::uint64_t seed)
        : cfg_(cfg), rng_(seed)
    {
    }

    int
    pick(std::uint32_t channel, const std::vector<SchedCandidate> &cands,
         DramCycle now) override
    {
        ++picks;
        const std::vector<SchedCandidate> expected = referenceCandidates(
            dram->channel(channel).snapshot(now), cfg_);
        bool same = expected.size() == cands.size();
        for (std::size_t i = 0; same && i < cands.size(); ++i) {
            const SchedCandidate &a = cands[i];
            const SchedCandidate &b = expected[i];
            same = a.queueIndex == b.queueIndex && a.isWrite == b.isWrite &&
                a.seq == b.seq && a.cmd == b.cmd && a.rowHit == b.rowHit &&
                a.coord == b.coord;
        }
        if (!same && mismatches++ == 0) {
            firstMismatch = "cycle " + std::to_string(now) + ": got" +
                describe(cands) + ", expected" + describe(expected);
        }
        if (rng_.below(8) == 0)
            return -1;
        return static_cast<int>(rng_.below(cands.size()));
    }

    const char *name() const override { return "reference"; }

    const DramSystem *dram = nullptr;
    std::uint64_t picks = 0;
    std::uint64_t mismatches = 0;
    std::string firstMismatch;

  private:
    const DramConfig &cfg_;
    Rng rng_;
};

/** Counts commands, refresh PREs and REFs included. */
struct CmdCounter : ChannelObserver
{
    void
    onCommand(std::uint32_t, DramCmd, const DramCoord &, DramCycle) override
    {
        ++commands;
    }

    std::uint64_t commands = 0;
};

} // namespace

/*
 * Differential test of the readiness cache: the channel caches each
 * transaction's bank part until a command or the refresh engine
 * touches its bank, and recomputes the rank part after each command.
 * On seeded deep-queue traffic over four ranks, with refresh running,
 * every pick() must see exactly the candidates a from-scratch
 * computation gives; every tick that offered none must have none by
 * that computation either; and nothing may become issuable before the
 * cycle nextEventCycle() promised.
 */
TEST(DramReadinessCache, CandidatesMatchFromScratchReadiness)
{
    for (const bool unified : {true, false}) {
        for (const bool closedPage : {false, true}) {
            SCOPED_TRACE(std::string(unified ? "unified" : "split") +
                         (closedPage ? " closed-page" : " open-page"));
            DramConfig cfg = DramConfig::preset(DramSpeed::DDR3_2133);
            cfg.channels = 1;
            cfg.ranksPerChannel = 4;
            cfg.unifiedQueue = unified;
            cfg.closedPage = closedPage;
            stats::Group root;
            ReferenceScheduler sched(cfg, 0xd1ff + unified * 2 + closedPage);
            DramSystem dram(cfg, sched, root);
            sched.dram = &dram;
            CmdCounter counter;
            dram.setObserver(&counter);
            const DramChannel &channel = dram.channel(0);

            Rng rng(0x5eed + unified * 2 + closedPage);
            DramCycle quietUntil = 0;
            std::uint64_t idleChecks = 0;
            const DramCycle kCycles = 3 * cfg.t.tREFI;
            for (DramCycle now = 1; now <= kCycles; ++now) {
                // Bursty load: a few rows per bank, so row hits,
                // conflicts and empty banks all occur.
                if (rng.below(4) != 0) {
                    MemRequest req;
                    req.addr = addrOf(4, rng.below(4), rng.below(8),
                                      rng.below(3), rng.below(16));
                    req.type = rng.below(4) == 0 ? ReqType::Write
                                                 : ReqType::Read;
                    req.core = static_cast<CoreId>(rng.below(8));
                    if (dram.enqueue(std::move(req)))
                        quietUntil = 0; // an arrival voids the promise
                }
                const std::uint64_t picks = sched.picks;
                const std::uint64_t commands = counter.commands;
                dram.tick(now);
                const bool acted =
                    sched.picks != picks || counter.commands != commands;
                if (!acted) {
                    ++idleChecks;
                    EXPECT_TRUE(referenceCandidates(channel.snapshot(now),
                                                    cfg)
                                    .empty())
                        << "cycle " << now << " offered no candidate";
                }
                EXPECT_FALSE(now < quietUntil && acted)
                    << "cycle " << now << " acted before " << quietUntil;
                if (now >= quietUntil)
                    quietUntil = dram.nextEventCycle(now);
            }
            EXPECT_EQ(sched.mismatches, 0u) << sched.firstMismatch;
            EXPECT_GT(sched.picks, kCycles / 4);
            EXPECT_GT(idleChecks, 0u);
            EXPECT_GE(channel.channelStats().refreshes.value(), 8u);
            if (closedPage)
                EXPECT_GT(channel.channelStats().autoPrecharges.value(), 0u);
            else
                EXPECT_GT(channel.channelStats().precharges.value(),
                          channel.channelStats().refreshes.value());
        }
    }
}

TEST(DramDeath, InvalidTimingFatalAtConstruction)
{
    stats::Group root;
    FrFcfsScheduler sched;
    DramConfig cfg; // Table 3
    cfg.t.tFAW = 4 * cfg.t.tRRD - 1;
    EXPECT_DEATH({ DramSystem dram(cfg, sched, root); }, "dram.t.tFAW");
    cfg = DramConfig{};
    cfg.channels = 0;
    EXPECT_DEATH({ DramSystem dram(cfg, sched, root); },
                 "dram.channels");
}

/**
 * Conservation fuzz: under any scheduling policy and random traffic,
 * every enqueued read completes exactly once and nothing is lost.
 */
class DramConservationTest : public ::testing::TestWithParam<SchedAlgo>
{
};

TEST_P(DramConservationTest, EveryRequestCompletesOnce)
{
    stats::Group root;
    SystemConfig sysCfg = SystemConfig::parallelDefault();
    sysCfg.sched.algo = GetParam();
    sysCfg.dram.channels = 2;
    sysCfg.dram.ranksPerChannel = 2;
    const auto sched = makeScheduler(sysCfg);
    DramSystem dram(sysCfg.dram, *sched, root);
    struct Counter : FillListener
    {
        std::uint64_t fills = 0;
        void onFill(const MemRequest &) override { ++fills; }
    } completed;
    dram.setFillListener(&completed);

    std::uint64_t state = 0x51ab1e;
    auto rnd = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    std::uint64_t accepted = 0;
    DramCycle now = 0;
    for (int round = 0; round < 4000; ++round) {
        ++now;
        // Bursty random offered load, reads and writes mixed.
        if (rnd() % 3 == 0) {
            MemRequest req;
            req.addr = (rnd() % (1u << 22)) & ~Addr{63};
            req.type = rnd() % 4 == 0 ? ReqType::Write : ReqType::Read;
            req.core = rnd() % 8;
            req.crit = rnd() % 5 == 0 ? rnd() % 1000 : 0;
            const bool isRead = req.type == ReqType::Read;
            if (dram.enqueue(std::move(req)) && isRead)
                ++accepted;
        }
        dram.tick(now);
    }
    // Drain.
    for (int i = 0; i < 20000 && !dram.idle(); ++i)
        dram.tick(++now);
    EXPECT_TRUE(dram.idle()) << toString(GetParam());
    EXPECT_EQ(completed.fills, accepted) << toString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DramConservationTest,
    ::testing::Values(SchedAlgo::Fcfs, SchedAlgo::FrFcfs,
                      SchedAlgo::CasRasCrit, SchedAlgo::ParBs,
                      SchedAlgo::Tcm, SchedAlgo::Ahb, SchedAlgo::Morse,
                      SchedAlgo::Atlas, SchedAlgo::Minimalist));

/** @file Tests for the cache hierarchy: latencies, MSHRs, coherence. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "mem/hierarchy.hh"
#include "sched/frfcfs.hh"
#include "sim/random.hh"

using namespace critmem;

namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    /** Stands in for core @c id: logs and stamps each token. */
    struct Client : MemClient
    {
        HierarchyTest *test = nullptr;
        CoreId id = 0;

        void
        memDone(MemToken token) override
        {
            test->log_.emplace_back(id, token);
            *test->handles_.at(token.value) = test->now_;
        }
    };

    void
    build(SystemConfig cfg = SystemConfig::parallelDefault())
    {
        cfg_ = cfg;
        dram_ = std::make_unique<DramSystem>(cfg_.dram, sched_, root_);
        hier_ = std::make_unique<MemHierarchy>(cfg_, *dram_, root_);
        clients_ = std::vector<Client>(cfg_.numCores);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            clients_[c].test = this;
            clients_[c].id = c;
            hier_->attach(c, clients_[c]);
        }
    }

    /**
     * A fresh token of @p kind whose value indexes handles_; its
     * completion cycle lands in *@p done (kNoCycle until then).
     */
    MemToken
    track(MemToken::Kind kind, std::shared_ptr<Cycle> &done)
    {
        done = std::make_shared<Cycle>(kNoCycle);
        handles_.push_back(done);
        return MemToken{kind, handles_.size() - 1};
    }

    /** Advance the CPU clock, crossing to DRAM every 4th cycle. */
    void
    tick(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            ++now_;
            hier_->tick(now_);
            if (now_ % 4 == 0)
                dram_->tick(now_ / 4);
        }
    }

    /** Issue a load miss; the returned handle records its return. */
    std::shared_ptr<Cycle>
    load(CoreId core, Addr addr, CritLevel crit = 0)
    {
        std::shared_ptr<Cycle> done;
        EXPECT_EQ(hier_->load(core, addr, crit,
                              track(MemToken::Kind::Load, done)),
                  MemResult::Miss);
        return done;
    }

    /** Issue a store miss; the returned handle records its return. */
    std::shared_ptr<Cycle>
    store(CoreId core, Addr addr)
    {
        std::shared_ptr<Cycle> done;
        EXPECT_EQ(
            hier_->store(core, addr, track(MemToken::Kind::Store, done)),
            MemResult::Miss);
        return done;
    }

    /** @return whether the hierarchy accepted a load of @p addr. */
    bool
    tryLoad(CoreId core, Addr addr)
    {
        std::shared_ptr<Cycle> done;
        return hier_->load(core, addr, 0,
                           track(MemToken::Kind::Load, done)) !=
            MemResult::Rejected;
    }

    /** @return what the hierarchy did with a store of @p addr. */
    MemResult
    storeResult(CoreId core, Addr addr)
    {
        std::shared_ptr<Cycle> done;
        return hier_->store(core, addr,
                            track(MemToken::Kind::Store, done));
    }

    stats::Group root_;
    FrFcfsScheduler sched_;
    SystemConfig cfg_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<MemHierarchy> hier_;
    std::vector<Client> clients_;
    std::vector<std::shared_ptr<Cycle>> handles_;
    /** Every delivered token, in delivery order. */
    std::vector<std::pair<CoreId, MemToken>> log_;
    Cycle now_ = 0;
};

} // namespace

TEST_F(HierarchyTest, L1HitLatency)
{
    // A dL1 hit is reported, not scheduled: the core completes it
    // dl1.latency cycles after issue on its own clock (pinned by
    // CoreTest.DataHitCompletesAfterL1Latency).
    build();
    hier_->dl1(0).insert(0x1000, LineState::Exclusive);
    std::shared_ptr<Cycle> done;
    EXPECT_EQ(hier_->load(0, 0x1008, 0, track(MemToken::Kind::Load, done)),
              MemResult::Hit);
    EXPECT_EQ(hier_->nextEventCycle(now_), kNoCycle);
    EXPECT_TRUE(hier_->quiescent());
    tick(10);
    EXPECT_EQ(*done, kNoCycle);
    EXPECT_TRUE(log_.empty());
    EXPECT_EQ(hier_->dl1(0).cacheStats().hits.value(), 1u);
    EXPECT_EQ(hier_->dl1(0).cacheStats().misses.value(), 0u);
}

TEST_F(HierarchyTest, L2HitLatency)
{
    build();
    hier_->l2().insert(0x2000, LineState::Exclusive);
    const auto done = load(0, 0x2000);
    tick(100);
    EXPECT_EQ(*done, cfg_.dl1.latency + cfg_.l2.latency);
}

TEST_F(HierarchyTest, NextEventCycleNamesEachDeliveryCycle)
{
    build();
    EXPECT_EQ(hier_->nextEventCycle(now_), kNoCycle);

    // dL1 hit: nothing to deliver, the core times the completion.
    hier_->dl1(0).insert(0x1000, LineState::Exclusive);
    std::shared_ptr<Cycle> hit;
    EXPECT_EQ(hier_->load(0, 0x1000, 0, track(MemToken::Kind::Load, hit)),
              MemResult::Hit);
    EXPECT_EQ(hier_->nextEventCycle(now_), kNoCycle);

    // L2 hit: the dL1 miss reaches the L2 after dl1.latency, the line
    // returns l2.latency later.
    hier_->l2().insert(0x2000, LineState::Exclusive);
    const Cycle l2At = now_ + cfg_.dl1.latency;
    const auto l2Hit = load(0, 0x2000);
    EXPECT_EQ(hier_->nextEventCycle(now_), l2At);
    tick(l2At - now_);
    EXPECT_EQ(hier_->nextEventCycle(now_), l2At + cfg_.l2.latency);
    tick(cfg_.l2.latency - 1);
    EXPECT_EQ(*l2Hit, kNoCycle);
    tick(1);
    EXPECT_EQ(*l2Hit, l2At + cfg_.l2.latency);
    EXPECT_EQ(hier_->nextEventCycle(now_), kNoCycle);

    // DRAM fill: the line reaches the dL1 a quarter L2 latency after
    // the cycle the DRAM completes the read and the L2 takes it.
    const auto miss = load(0, 0x3000);
    while (hier_->l2().probe(0x3000) == LineState::Invalid) {
        ASSERT_LT(now_, 5000u) << "DRAM never filled the miss";
        tick(1);
    }
    const Cycle fillAt = now_;
    const Cycle returnLat = cfg_.l2.latency / 4;
    EXPECT_EQ(*miss, kNoCycle);
    EXPECT_EQ(hier_->nextEventCycle(now_), fillAt + returnLat);
    tick(returnLat - 1);
    EXPECT_EQ(*miss, kNoCycle);
    tick(1);
    EXPECT_EQ(*miss, fillAt + returnLat);
    EXPECT_TRUE(hier_->quiescent());
    EXPECT_EQ(hier_->nextEventCycle(now_), kNoCycle);
}

TEST_F(HierarchyTest, L2MissGoesToDramAndCompletes)
{
    build();
    const auto done = load(0, 0x3000);
    tick(1000);
    EXPECT_NE(*done, kNoCycle);
    EXPECT_GT(*done, cfg_.dl1.latency + cfg_.l2.latency);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 1u);
    EXPECT_EQ(dram_->channel(dram_->addressMap().decode(0x3000).channel)
                  .channelStats()
                  .reads.value(),
              1u);
}

TEST_F(HierarchyTest, MissFillsBothLevels)
{
    build();
    const auto done = load(0, 0x3000);
    tick(1000);
    ASSERT_NE(*done, kNoCycle);
    EXPECT_NE(hier_->dl1(0).probe(0x3000), LineState::Invalid);
    EXPECT_NE(hier_->l2().probe(0x3000), LineState::Invalid);
}

TEST_F(HierarchyTest, SameBlockLoadsCoalesceInL1Mshr)
{
    build();
    const auto a = load(0, 0x5000);
    const auto b = load(0, 0x5010); // same 32B L1 block
    tick(1000);
    EXPECT_NE(*a, kNoCycle);
    EXPECT_NE(*b, kNoCycle);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 1u);
}

TEST_F(HierarchyTest, CrossCoreLoadsCoalesceInL2Mshr)
{
    build();
    const auto a = load(0, 0x5000);
    const auto b = load(1, 0x5020); // other L1 block, same 64B L2 block
    tick(1000);
    EXPECT_NE(*a, kNoCycle);
    EXPECT_NE(*b, kNoCycle);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 1u);
}

TEST_F(HierarchyTest, L1MshrCapacityRejects)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dl1.mshrs = 2;
    build(cfg);
    EXPECT_TRUE(tryLoad(0, 0x10000));
    EXPECT_TRUE(tryLoad(0, 0x20000));
    EXPECT_FALSE(tryLoad(0, 0x30000));
    EXPECT_EQ(hier_->memStats().l1MshrFull.value(), 1u);
}

TEST_F(HierarchyTest, StoreMakesLineModified)
{
    build();
    const auto done = store(0, 0x6000);
    tick(1000);
    EXPECT_NE(*done, kNoCycle);
    EXPECT_EQ(hier_->dl1(0).probe(0x6000), LineState::Modified);
}

TEST_F(HierarchyTest, StoreInvalidatesOtherSharers)
{
    build();
    const auto a = load(0, 0x7000);
    tick(1000);
    const auto b = load(1, 0x7000);
    tick(1000);
    // Both cores share the line now.
    EXPECT_EQ(hier_->dl1(0).probe(0x7000), LineState::Shared);
    // A store hit on a Shared line takes ownership at once.
    EXPECT_EQ(storeResult(1, 0x7000), MemResult::Hit);
    EXPECT_EQ(hier_->dl1(0).probe(0x7000), LineState::Invalid);
    EXPECT_EQ(hier_->dl1(1).probe(0x7000), LineState::Modified);
}

TEST_F(HierarchyTest, DirtyTransferServedByOwner)
{
    build();
    const auto stored = store(0, 0x8000);
    tick(1000);
    ASSERT_NE(*stored, kNoCycle);
    ASSERT_EQ(hier_->dl1(0).probe(0x8000), LineState::Modified);
    const auto done = load(1, 0x8000);
    tick(200);
    ASSERT_NE(*done, kNoCycle);
    EXPECT_EQ(hier_->memStats().coherenceTransfers.value(), 1u);
    // Owner downgraded, dirty data absorbed by the L2.
    EXPECT_EQ(hier_->dl1(0).probe(0x8000), LineState::Shared);
    EXPECT_EQ(hier_->l2().probe(hier_->l2().blockAlign(0x8000)),
              LineState::Modified);
}

TEST_F(HierarchyTest, ExclusiveThenSharedOnSecondReader)
{
    build();
    const auto a = load(0, 0x9000);
    tick(1000);
    EXPECT_EQ(hier_->dl1(0).probe(0x9000), LineState::Exclusive);
    const auto b = load(1, 0x9000);
    tick(1000);
    EXPECT_EQ(hier_->dl1(0).probe(0x9000), LineState::Shared);
    EXPECT_EQ(hier_->dl1(1).probe(0x9000), LineState::Shared);
}

TEST_F(HierarchyTest, FetchPathFillsIl1)
{
    build();
    std::shared_ptr<Cycle> done;
    EXPECT_EQ(
        hier_->fetch(0, 0x400000, track(MemToken::Kind::Fetch, done)),
        MemResult::Miss);
    tick(1000);
    EXPECT_NE(*done, kNoCycle);
    std::shared_ptr<Cycle> again;
    EXPECT_EQ(
        hier_->fetch(0, 0x400004, track(MemToken::Kind::Fetch, again)),
        MemResult::Hit);
    EXPECT_TRUE(hier_->quiescent());
    // A hit counts as an iL1 hit only; the miss also counts a fetch.
    EXPECT_EQ(hier_->memStats().fetches.value(), 1u);
    EXPECT_EQ(root_.findScalar("hier.il1_0.misses")->value(), 1u);
    EXPECT_EQ(root_.findScalar("hier.il1_0.hits")->value(), 1u);
}

TEST_F(HierarchyTest, PromoteRaisesInFlightMissCriticality)
{
    build();
    const auto done = load(0, 0xa000, 0);
    tick(2); // miss registered, DRAM enqueue pending/queued
    hier_->promote(0xa000, 9);
    tick(1000);
    EXPECT_NE(*done, kNoCycle);
    // The request completed through the critical-latency stat path.
    EXPECT_EQ(hier_->memStats().l2MissLatCrit.count() +
                  hier_->memStats().l2MissLatNonCrit.count(),
              1u);
}

TEST_F(HierarchyTest, QuiescentLifecycle)
{
    build();
    EXPECT_TRUE(hier_->quiescent());
    const auto done = load(0, 0xb000);
    EXPECT_FALSE(hier_->quiescent());
    tick(1000);
    EXPECT_NE(*done, kNoCycle);
    EXPECT_TRUE(hier_->quiescent());
}

TEST_F(HierarchyTest, CriticalLatencyStatSplitsByFlag)
{
    build();
    const auto a = load(0, 0xc000, 5);
    const auto b = load(0, 0xd000, 0);
    tick(2000);
    EXPECT_NE(*a, kNoCycle);
    EXPECT_NE(*b, kNoCycle);
    EXPECT_EQ(hier_->memStats().l2MissLatCrit.count(), 1u);
    EXPECT_EQ(hier_->memStats().l2MissLatNonCrit.count(), 1u);
}

TEST_F(HierarchyTest, InclusionVictimPurgesL1)
{
    // A tiny L2 forces an inclusion eviction that must invalidate the
    // corresponding L1 line.
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.sizeBytes = 8 * 1024; // 2 sets x 8 ways? keep assoc, shrink
    build(cfg);
    const std::uint32_t sets = cfg.l2.sets();
    const Addr stride =
        static_cast<Addr>(sets) * cfg.l2.blockBytes;
    // Fill one set beyond capacity with demand loads.
    std::vector<std::shared_ptr<Cycle>> handles;
    for (std::uint32_t i = 0; i <= cfg.l2.ways; ++i) {
        handles.push_back(load(0, stride * i));
        tick(1500);
    }
    EXPECT_GT(hier_->l2().cacheStats().evictions.value(), 0u);
    // The first block was evicted from L2; inclusion requires its L1
    // copy to be gone too.
    EXPECT_EQ(hier_->dl1(0).probe(0), LineState::Invalid);
}

TEST_F(HierarchyTest, InclusionVictimPurgesIl1)
{
    // An L2 eviction sweeps the iL1s only inside the range of blocks
    // ever fetched into one; a fetched code block is inside it, so its
    // eviction must still purge every iL1 copy.
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.sizeBytes = 8 * 1024;
    cfg.prefetch.enabled = false;
    build(cfg);
    const Addr stride =
        static_cast<Addr>(cfg.l2.sets()) * cfg.l2.blockBytes;
    std::shared_ptr<Cycle> fetched;
    EXPECT_EQ(
        hier_->fetch(0, 0x400000, track(MemToken::Kind::Fetch, fetched)),
        MemResult::Miss);
    tick(1500);
    ASSERT_NE(*fetched, kNoCycle);
    ASSERT_EQ(hier_->il1(0).probe(0x400000), LineState::Shared);
    for (std::uint32_t i = 1; i <= cfg.l2.ways; ++i) {
        load(1, 0x400000 + stride * i);
        tick(1500);
    }
    EXPECT_EQ(hier_->l2().probe(0x400000), LineState::Invalid);
    EXPECT_EQ(hier_->il1(0).probe(0x400000), LineState::Invalid);
    EXPECT_EQ(hier_->il1(0).cacheStats().invalidations.value(), 1u);
}

TEST_F(HierarchyTest, DirtyL2EvictionWritesBack)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.sizeBytes = 8 * 1024;
    build(cfg);
    const std::uint32_t sets = cfg.l2.sets();
    const Addr stride = static_cast<Addr>(sets) * cfg.l2.blockBytes;
    const auto stored = store(0, 0);
    tick(1500);
    ASSERT_NE(*stored, kNoCycle);
    for (std::uint32_t i = 1; i <= cfg.l2.ways + 1; ++i) {
        load(0, stride * i);
        tick(1500);
    }
    std::uint64_t writes = 0;
    for (std::uint32_t c = 0; c < dram_->numChannels(); ++c)
        writes += dram_->channel(c).channelStats().writes.value();
    EXPECT_GT(writes, 0u);
}

TEST_F(HierarchyTest, PrefetcherFillsAheadOfStream)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.prefetch.enabled = true;
    cfg.prefetch.distance = 4;
    cfg.prefetch.degree = 2;
    build(cfg);
    // A clean ascending block stream of demand misses.
    for (int i = 0; i < 8; ++i) {
        load(0, 0x100000 + static_cast<Addr>(i) * 64);
        tick(1500);
    }
    auto *issued =
        root_.findScalar("hier.prefetcher.issued");
    ASSERT_NE(issued, nullptr);
    EXPECT_GT(issued->value(), 0u);
    // A block ahead of the stream is already resident.
    EXPECT_NE(hier_->l2().probe(0x100000 + 11 * 64),
              LineState::Invalid);
}

TEST_F(HierarchyTest, PrefetchedLinesMarkedAndConsumed)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.prefetch.enabled = true;
    cfg.prefetch.distance = 2;
    cfg.prefetch.degree = 2;
    build(cfg);
    for (int i = 0; i < 12; ++i) {
        load(0, 0x200000 + static_cast<Addr>(i) * 64);
        tick(1500);
    }
    EXPECT_GT(hier_->memStats().prefetchUseful.value(), 0u);
}

TEST_F(HierarchyTest, InstructionAndDataMshrsIndependent)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dl1.mshrs = 1;
    build(cfg);
    // Exhaust the single data MSHR; a fetch must still be accepted.
    EXPECT_TRUE(tryLoad(0, 0x30000));
    EXPECT_FALSE(tryLoad(0, 0x40000));
    std::shared_ptr<Cycle> fetched;
    EXPECT_EQ(
        hier_->fetch(0, 0x400000, track(MemToken::Kind::Fetch, fetched)),
        MemResult::Miss);
    tick(2000);
}

TEST_F(HierarchyTest, L1MshrFileRejectsAtExactlyItsSize)
{
    // A non-power-of-two MSHR count: the flat table behind the file
    // has 16 slots, but the configured 5 entries bound it.
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dl1.mshrs = 5;
    build(cfg);
    for (Addr i = 0; i < 5; ++i)
        EXPECT_TRUE(tryLoad(0, 0x100000 + i * 0x1000)) << i;
    EXPECT_FALSE(tryLoad(0, 0x200000));
    EXPECT_EQ(hier_->memStats().l1MshrFull.value(), 1u);
    // A load to a block already outstanding merges: no new entry.
    EXPECT_TRUE(tryLoad(0, 0x100000 + 8));
    // Another core's file is independent.
    EXPECT_TRUE(tryLoad(1, 0x200000));
    tick(2000);
    EXPECT_TRUE(hier_->quiescent());
    // Every entry was freed: the file takes five new misses again.
    for (Addr i = 0; i < 5; ++i)
        EXPECT_TRUE(tryLoad(0, 0x300000 + i * 0x1000)) << i;
    EXPECT_FALSE(tryLoad(0, 0x400000));
    EXPECT_EQ(hier_->memStats().l1MshrFull.value(), 2u);
}

TEST_F(HierarchyTest, L2MshrFileHoldsExactlyItsSize)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.mshrs = 3;
    cfg.prefetch.enabled = false;
    build(cfg);
    // Four misses to distinct L2 blocks reach the L2 together.
    const auto a = load(0, 0x100000);
    const auto b = load(0, 0x101000);
    const auto c = load(1, 0x102000);
    const auto d = load(1, 0x103000);
    tick(cfg.dl1.latency);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 3u);
    EXPECT_GT(hier_->memStats().l2MshrFull.value(), 0u);
    // A same-block miss from another core merges into a full file.
    const auto e = load(2, 0x100020);
    tick(cfg.dl1.latency);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 3u);
    // The fourth miss retries until a fill frees an entry.
    tick(3000);
    for (const auto &done : {a, b, c, d, e})
        EXPECT_NE(*done, kNoCycle);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 4u);
    EXPECT_GT(*d, std::min({*a, *b, *c}));
    EXPECT_TRUE(hier_->quiescent());
}

TEST_F(HierarchyTest, L2MshrFullCountsEachDelayedMissOnce)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.mshrs = 2;
    cfg.prefetch.enabled = false;
    build(cfg);
    // Four misses to distinct L2 blocks: two wait for a free entry,
    // and retry every CPU cycle until a fill frees one.
    std::vector<std::shared_ptr<Cycle>> done;
    for (Addr i = 0; i < 4; ++i)
        done.push_back(load(i % 2, 0x100000 + i * 0x1000));
    tick(200);
    EXPECT_EQ(hier_->memStats().l2MshrFull.value(), 2u);
    tick(3000);
    for (const auto &d : done)
        EXPECT_NE(*d, kNoCycle);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 4u);
    EXPECT_EQ(hier_->memStats().l2MshrFull.value(), 2u);
}

TEST_F(HierarchyTest, L2MissesCountEachDelayedMissOnce)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.l2.mshrs = 2;
    cfg.prefetch.enabled = false;
    build(cfg);
    // Two of the four misses wait for a free MSHR and are retried
    // every CPU cycle until a fill frees one; each still counts one
    // L2 miss, not one per retry.
    for (Addr i = 0; i < 4; ++i)
        load(i % 2, 0x100000 + i * 0x1000);
    tick(3000);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 4u);
    EXPECT_EQ(hier_->l2().cacheStats().misses.value(), 4u);
    EXPECT_EQ(hier_->l2().cacheStats().hits.value(), 0u);
}

TEST(HierarchyDeath, InvalidConfigFatalBeforeSizing)
{
    stats::Group root;
    FrFcfsScheduler sched;
    SystemConfig cfg = SystemConfig::parallelDefault();
    DramSystem dram(cfg.dram, sched, root);
    cfg.dl1.blockBytes = 0; // the L1 directory is sized by it
    EXPECT_DEATH({ MemHierarchy hier(cfg, dram, root); },
                 "dl1.blockBytes");
}

TEST_F(HierarchyTest, MshrWaitersCompleteInPushOrder)
{
    build();
    // Loads, a store and another load on one dL1 block: one MSHR
    // entry, five waiters, all handed back in push order on the fill.
    const auto first = load(0, 0x500000);
    const auto second = load(0, 0x500008);
    const auto stored = store(0, 0x500010);
    const auto third = load(0, 0x500018, 3);
    const auto fourth = load(0, 0x500000);
    tick(2000);
    EXPECT_EQ(hier_->memStats().demandMisses.value(), 1u);
    ASSERT_EQ(log_.size(), 5u);
    for (std::size_t i = 0; i < log_.size(); ++i) {
        EXPECT_EQ(log_[i].first, 0u);
        EXPECT_EQ(log_[i].second.value, i);
    }
    EXPECT_EQ(log_[2].second.kind, MemToken::Kind::Store);
    for (const auto &done : {second, stored, third, fourth})
        EXPECT_EQ(*done, *first);
    // The merged store took ownership for the whole entry.
    EXPECT_EQ(hier_->dl1(0).probe(0x500000), LineState::Modified);
}

TEST_F(HierarchyTest, DirectoryStaysWithinItsBoundUnderDirtySharing)
{
    // Tiny dL1s (16 lines) kept full of private blocks, plus stores to
    // a few shared blocks: dirty transfers invalidate owners while the
    // directory is at its valid-line count. The directory's FlatMap
    // panics if its bound is ever too small.
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dl1.sizeBytes = 512;
    cfg.prefetch.enabled = false;
    build(cfg);
    Rng rng(0xd1c7);
    std::shared_ptr<Cycle> done;
    for (int i = 0; i < 40000; ++i) {
        const CoreId core = static_cast<CoreId>(rng.below(cfg.numCores));
        const bool shared = rng.below(4) == 0;
        const Addr addr = shared
            ? 0x900000 + rng.below(8) * 32
            : 0x100000 * (core + 1) + rng.below(64) * 32;
        if (shared || rng.below(4) == 0)
            hier_->store(core, addr, track(MemToken::Kind::Store, done));
        else
            hier_->load(core, addr, 0, track(MemToken::Kind::Load, done));
        tick(1 + rng.below(2));
    }
    tick(20000);
    EXPECT_TRUE(hier_->quiescent());
    EXPECT_GT(hier_->memStats().coherenceTransfers.value(), 1000u);
}

/** @file Tests for the out-of-order core model, driven by scripted
 *  micro-op sequences. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "cpu/core.hh"
#include "sched/frfcfs.hh"
#include "sim/fnv.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

/** Replays a fixed micro-op vector, repeating it forever. */
class ScriptedTrace : public TraceGenerator
{
  public:
    explicit ScriptedTrace(std::vector<MicroOp> ops)
        : ops_(std::move(ops))
    {
    }

    void
    next(MicroOp &op) override
    {
        op = ops_[pos_];
        pos_ = (pos_ + 1) % ops_.size();
        ++fetched_;
    }

    const std::string &name() const override { return name_; }

    /** Micro-ops handed to the core so far. */
    std::uint64_t fetched() const { return fetched_; }

  private:
    std::vector<MicroOp> ops_;
    std::size_t pos_ = 0;
    std::uint64_t fetched_ = 0;
    std::string name_ = "scripted";
};

MicroOp
alu(std::uint64_t pc, std::uint16_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.pc = pc;
    op.latency = 1;
    op.dep1 = dep;
    return op;
}

MicroOp
ld(std::uint64_t pc, Addr addr, std::uint16_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::Load;
    op.pc = pc;
    op.addr = addr;
    op.dep1 = dep;
    return op;
}

MicroOp
st(std::uint64_t pc, Addr addr)
{
    MicroOp op;
    op.cls = OpClass::Store;
    op.pc = pc;
    op.addr = addr;
    op.latency = 1;
    return op;
}

class CoreTest : public ::testing::Test
{
  protected:
    void
    build(std::vector<MicroOp> ops,
          SystemConfig cfg = SystemConfig::parallelDefault())
    {
        cfg_ = cfg;
        gen_ = std::make_unique<ScriptedTrace>(std::move(ops));
        dram_ = std::make_unique<DramSystem>(cfg_.dram, sched_, root_);
        hier_ = std::make_unique<MemHierarchy>(cfg_, *dram_, root_);
        core_ = std::make_unique<Core>(cfg_, 0, *gen_, *hier_, root_);
    }

    /** Run until the core commits @p quota ops (or a cycle limit). */
    Cycle
    run(std::uint64_t quota, Cycle limit = 2'000'000)
    {
        core_->setQuota(quota);
        while (!core_->finished() && now_ < limit) {
            ++now_;
            hier_->tick(now_);
            core_->tick(now_);
            if (now_ % 4 == 0)
                dram_->tick(now_ / 4);
        }
        return now_;
    }

    stats::Group root_;
    FrFcfsScheduler sched_;
    SystemConfig cfg_;
    std::unique_ptr<ScriptedTrace> gen_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<MemHierarchy> hier_;
    std::unique_ptr<Core> core_;
    Cycle now_ = 0;
};

} // namespace

TEST_F(CoreTest, IndependentAlusReachIssueWidth)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(alu(0x400000 + i * 4));
    build(std::move(ops));
    const Cycle cycles = run(4000);
    const double ipc = 4000.0 / static_cast<double>(cycles);
    // Two IntAlus bound throughput; pipeline overheads cost a bit.
    EXPECT_GT(ipc, 1.6);
    EXPECT_LE(ipc, 2.05);
}

TEST_F(CoreTest, DependenceChainSerializes)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(alu(0x400000 + i * 4, /*dep=*/1));
    build(std::move(ops));
    const Cycle cycles = run(2000);
    // One op per cycle at best: a serial chain cannot beat IPC 1.
    EXPECT_GE(cycles, 2000u);
}

TEST_F(CoreTest, MixedFuClassesAllCommit)
{
    std::vector<MicroOp> ops;
    const OpClass classes[] = {OpClass::IntAlu, OpClass::IntMul,
                               OpClass::FpAlu, OpClass::FpMul,
                               OpClass::Branch};
    for (int i = 0; i < 20; ++i) {
        MicroOp op;
        op.cls = classes[i % 5];
        op.pc = 0x400000 + i * 4;
        op.latency = op.cls == OpClass::FpMul ? 5 : 1;
        ops.push_back(op);
    }
    build(std::move(ops));
    run(1000);
    EXPECT_TRUE(core_->finished());
    EXPECT_EQ(core_->coreStats().committedBranches.value(), 200u);
}

TEST_F(CoreTest, CacheResidentLoadsAreFast)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(ld(0x400000 + i * 4, 0x1000 + i * 8));
    build(std::move(ops));
    const Cycle cycles = run(4000);
    // After the first (cold) block fill, everything hits the dL1.
    EXPECT_LT(cycles, 4000u);
    EXPECT_EQ(core_->coreStats().committedLoads.value(), 4000u);
}

TEST_F(CoreTest, MispredictsCostCycles)
{
    std::vector<MicroOp> clean;
    std::vector<MicroOp> dirty;
    for (int i = 0; i < 16; ++i) {
        MicroOp op;
        op.cls = i % 4 == 0 ? OpClass::Branch : OpClass::IntAlu;
        op.pc = 0x400000 + i * 4;
        clean.push_back(op);
        op.mispredict = op.cls == OpClass::Branch;
        dirty.push_back(op);
    }
    build(std::move(clean));
    const Cycle fast = run(2000);

    now_ = 0;
    build(std::move(dirty));
    const Cycle slow = run(2000);
    // Every 4th op redirects the front end: at least the penalty per
    // mispredicted branch beyond the clean run.
    EXPECT_GT(slow, fast + 2000 / 4 * cfg_.core.mispredictPenalty / 2);
    // Commit may overshoot the quota by up to one commit group.
    EXPECT_GE(core_->coreStats().mispredicts.value(), 500u);
    EXPECT_LE(core_->coreStats().mispredicts.value(), 502u);
}

TEST_F(CoreTest, MissingLoadBlocksRobHead)
{
    // A serial chain of DRAM misses: every load blocks commit.
    std::vector<MicroOp> ops;
    ops.push_back(ld(0x400000, 0x100000, /*dep=*/4));
    for (int i = 1; i < 4; ++i)
        ops.push_back(alu(0x400000 + i * 4, 1));
    build(std::move(ops));
    // Pointer-chase-like: the load depends on the previous iteration.
    run(400);
    EXPECT_GT(core_->coreStats().blockingLoads.value(), 0u);
    EXPECT_GT(core_->coreStats().robHeadBlockedCycles.value(), 0u);
    EXPECT_GT(core_->coreStats().headStallLength.max(), 32u);
}

TEST_F(CoreTest, CbpLearnsBlockingPc)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.crit.predictor = CritPredictor::CbpMaxStall;
    cfg.crit.tableEntries = 64;
    std::vector<MicroOp> ops;
    // One load PC that misses to a new DRAM row every iteration.
    MicroOp chase = ld(0x400000, 0x100000, 4);
    ops.push_back(chase);
    for (int i = 1; i < 4; ++i)
        ops.push_back(alu(0x400000 + i * 4, 1));
    build(std::move(ops), cfg);
    run(400);
    ASSERT_NE(core_->cbp(), nullptr);
    EXPECT_GT(core_->cbp()->maxObserved(), 0u);
    EXPECT_GT(core_->coreStats().critLoadsIssued.value(), 0u);
}

TEST_F(CoreTest, LqCapacityStalls)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.core.lqEntries = 4;
    std::vector<MicroOp> ops;
    // Loads that miss to distinct rows pile up in the tiny LQ.
    for (int i = 0; i < 8; ++i)
        ops.push_back(ld(0x400000 + i * 4, 0x100000 + i * 131072));
    build(std::move(ops), cfg);
    run(800);
    EXPECT_GT(core_->coreStats().lqFullCycles.value(), 0u);
}

TEST_F(CoreTest, RejectedLoadsStillConsumeTheirPort)
{
    // One dL1 MSHR: while a miss is out every other missing load is
    // rejected, and each rejection uses up one of the load ports for
    // that cycle, so the retries never exceed loadPorts per cycle.
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.dl1.mshrs = 1;
    std::vector<MicroOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(ld(0x400000 + i * 4, 0x100000 + i * 131072));
    build(std::move(ops), cfg);
    const Cycle cycles = run(200);
    const std::uint64_t retries = core_->coreStats().loadRetries.value();
    EXPECT_GT(retries, cycles);
    EXPECT_LE(retries, cfg.core.loadPorts * cycles);
}

TEST_F(CoreTest, StoreForwardingShortCircuitsLoads)
{
    std::vector<MicroOp> ops;
    MicroOp st;
    st.cls = OpClass::Store;
    st.pc = 0x400000;
    st.addr = 0x55000; // cold block: the write itself would miss
    ops.push_back(st);
    ops.push_back(ld(0x400004, 0x55000));
    ops.push_back(alu(0x400008));
    ops.push_back(alu(0x40000c));
    build(std::move(ops));
    run(400);
    EXPECT_GT(core_->coreStats().loadsForwarded.value(), 0u);
}

TEST_F(CoreTest, QuotaAndFinishCycle)
{
    std::vector<MicroOp> ops = {alu(0x400000), alu(0x400004)};
    build(std::move(ops));
    const Cycle cycles = run(100);
    EXPECT_TRUE(core_->finished());
    EXPECT_EQ(core_->committed(), 100u);
    EXPECT_EQ(core_->finishCycle(), cycles);
}

TEST_F(CoreTest, InactiveCoreDoesNothing)
{
    std::vector<MicroOp> ops = {alu(0x400000)};
    build(std::move(ops));
    core_->setActive(false);
    EXPECT_TRUE(core_->finished());
    run(10);
    EXPECT_EQ(core_->committed(), 0u);
}

TEST_F(CoreTest, ResetWindowRestartsQuota)
{
    std::vector<MicroOp> ops = {alu(0x400000), alu(0x400004)};
    build(std::move(ops));
    run(50);
    EXPECT_TRUE(core_->finished());
    root_.resetAll();
    core_->resetWindow();
    EXPECT_FALSE(core_->finished());
    run(50);
    EXPECT_TRUE(core_->finished());
    EXPECT_EQ(core_->committed(), 50u);
}

TEST_F(CoreTest, ClptCountsConsumers)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.crit.predictor = CritPredictor::ClptConsumers;
    cfg.crit.tableEntries = 64;
    cfg.crit.clptThreshold = 3;
    std::vector<MicroOp> ops;
    // A cache-resident load with three direct ALU consumers.
    ops.push_back(ld(0x400000, 0x2000));
    ops.push_back(alu(0x400004, 1));
    ops.push_back(alu(0x400008, 2));
    ops.push_back(alu(0x40000c, 3));
    build(std::move(ops), cfg);
    run(400);
    ASSERT_NE(core_->clpt(), nullptr);
    // After the first iteration the CLPT marks the load critical.
    EXPECT_GE(core_->clpt()->predict(0x400000), 3u);
}

TEST_F(CoreTest, DrainedAfterRun)
{
    std::vector<MicroOp> ops = {alu(0x400000)};
    build(std::move(ops));
    run(100);
    // Let in-flight stores/ops drain.
    for (int i = 0; i < 2000; ++i) {
        ++now_;
        hier_->tick(now_);
        core_->tick(now_);
        if (now_ % 4 == 0)
            dram_->tick(now_ / 4);
    }
    EXPECT_TRUE(core_->drained());
}

/**
 * The ROB is a power-of-two ring, but the configured size bounds it:
 * with 96 or 100 entries (a 128-slot ring) dispatch stops at exactly
 * robEntries ops in flight, and robFullCycles starts counting there.
 * 8 entries fit one partial ready-bitmap word; 192 and 256 span
 * several words, so the oldest-first walk wraps across them.
 */
class CoreRobSizeTest : public CoreTest,
                        public ::testing::WithParamInterface<std::uint32_t>
{
};

TEST_P(CoreRobSizeTest, DispatchStopsAtRobEntries)
{
    const std::uint32_t robEntries = GetParam();
    // A DRAM miss at the head, then independent ALU ops that complete
    // but cannot commit past it. Roomy issue queues keep every
    // fetched op dispatched (no op waits in the front end).
    std::vector<MicroOp> ops;
    ops.push_back(ld(0x400000, 0x10000000));
    for (int i = 1; i < 256; ++i)
        ops.push_back(alu(0x400000 + (i % 16) * 4)); // one iL1 block
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.core.robEntries = robEntries;
    cfg.core.intIqEntries = 256;
    build(std::move(ops), cfg);
    core_->setQuota(1000);

    const Core::Stats &stats = core_->coreStats();
    while (stats.robFullCycles.value() == 0 && now_ < 5000) {
        ++now_;
        hier_->tick(now_);
        core_->tick(now_);
        if (now_ % 4 == 0)
            dram_->tick(now_ / 4);
    }
    ASSERT_EQ(stats.robFullCycles.value(), 1u);
    ASSERT_EQ(stats.committedOps.value(), 0u) << "the miss returned early";
    EXPECT_EQ(gen_->fetched(), robEntries);
    // Ten more cycles under the miss: nothing more is fetched, and
    // each cycle is one more ROB-full stall.
    for (int i = 0; i < 10; ++i) {
        ++now_;
        hier_->tick(now_);
        core_->tick(now_);
    }
    EXPECT_EQ(stats.committedOps.value(), 0u);
    EXPECT_EQ(gen_->fetched(), robEntries);
    EXPECT_EQ(stats.robFullCycles.value(), 11u);
    // Once the miss returns, the whole window commits.
    run(robEntries + 50);
    EXPECT_GE(stats.committedOps.value(), robEntries + 50);
}

/**
 * The hierarchy only reports an L1 hit; the core times it. These pin
 * that latency, with the core ticked every cycle and, as under
 * fast-forward, lazily (only at its own next-event bound or when a
 * miss pokes it) across certified-idle skips.
 */
class CoreHitTest : public CoreTest,
                    public ::testing::WithParamInterface<bool>
{
  protected:
    /**
     * One CPU cycle as System::tickOnce() runs it. With fast-forward
     * on, first skip to the cycle before the earliest of the core's,
     * the hierarchy's and the DRAM's next events (System::fastForward
     * without the poll bound), then tick the core only when due.
     */
    void
    step()
    {
        const bool fastForward = GetParam();
        if (fastForward) {
            Cycle target = std::min(coreNext_, hier_->nextEventCycle(now_));
            const DramCycle e = dram_->nextEventCycle(now_ / 4);
            if (e != kNoCycle)
                target = std::min(target, e * 4);
            if (target != kNoCycle && target > now_ + 1) {
                const Cycle stop = target - 1;
                hier_->skipTo(stop);
                if (stop / 4 > now_ / 4)
                    dram_->skipTo(stop / 4);
                now_ = stop;
            }
        }
        ++now_;
        hier_->tick(now_);
        if (!fastForward || core_->poked() || coreNext_ <= now_) {
            core_->skipTo(now_ - 1);
            core_->clearPoked();
            core_->tick(now_);
            coreNext_ = core_->nextEventCycle(now_);
        }
        if (now_ % 4 == 0)
            dram_->tick(now_ / 4);
    }

    /** Step until @p done holds; @return the cycle it first held. */
    template <typename Done>
    Cycle
    stepUntil(Done done)
    {
        while (!done()) {
            if (now_ >= 100'000) {
                ADD_FAILURE() << "condition never held";
                return kNoCycle;
            }
            step();
        }
        return now_;
    }

    Cycle coreNext_ = 0;
};

TEST_P(CoreHitTest, DataHitCompletesAfterL1Latency)
{
    // One load to a dL1-resident block: at the ROB head it commits on
    // the cycle it completes, exactly dl1.latency after it issued.
    build({ld(0x400000, 0x1000)});
    hier_->dl1(0).insert(0x1000, LineState::Exclusive);
    core_->setQuota(1);
    const Core::Stats &stats = core_->coreStats();
    const Cycle issued =
        stepUntil([&] { return stats.loadsIssued.value() == 1; });
    EXPECT_EQ(stats.committedLoads.value(), 0u);
    const Cycle committed =
        stepUntil([&] { return stats.committedLoads.value() == 1; });
    EXPECT_EQ(committed - issued, cfg_.dl1.latency);
    EXPECT_EQ(hier_->dl1(0).cacheStats().hits.value(), 1u);
    EXPECT_EQ(hier_->dl1(0).cacheStats().misses.value(), 0u);
}

TEST_P(CoreHitTest, StoreHitFreesSqEntryAfterL1Latency)
{
    // A one-entry SQ: the second store waits in the front end until
    // the first one's dL1 write completes, dl1.latency after the
    // store commits and drains. Only then does it dispatch, and the
    // third op is fetched behind it.
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.core.sqEntries = 1;
    build({st(0x400000, 0x2000), st(0x400004, 0x2008), alu(0x400008),
           alu(0x40000c)},
          cfg);
    hier_->dl1(0).insert(0x2000, LineState::Exclusive);
    core_->setQuota(100);
    const Core::Stats &stats = core_->coreStats();
    const Cycle committed =
        stepUntil([&] { return stats.committedStores.value() == 1; });
    EXPECT_EQ(gen_->fetched(), 2u);
    const Cycle freed = stepUntil([&] { return gen_->fetched() >= 3; });
    EXPECT_EQ(freed - committed, cfg_.dl1.latency);
    EXPECT_GT(stats.sqFullCycles.value(), 0u);
    EXPECT_EQ(hier_->dl1(0).cacheStats().hits.value(), 1u);
    EXPECT_EQ(hier_->dl1(0).probe(0x2000), LineState::Modified);
}

INSTANTIATE_TEST_SUITE_P(FastForward, CoreHitTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "Lazy" : "EveryCycle";
                         });

INSTANTIATE_TEST_SUITE_P(NonPowerOfTwo, CoreRobSizeTest,
                         ::testing::Values(96u, 100u, 192u));
INSTANTIATE_TEST_SUITE_P(PowerOfTwo, CoreRobSizeTest,
                         ::testing::Values(8u, 32u, 256u));

/**
 * Pins one-core art and mg runs exactly, at ROB sizes from one
 * partial ready-bitmap word to four full ones: any change to which
 * ready op issues first (oldest-first across the ring wrap), to
 * wakeup, or to completion handling moves the cycle count or the
 * stats digest. The values come from the earlier core that sorted a
 * ready list every cycle, so they hold the ready-bitmap select to it.
 */
TEST(Core, StatsPinnedAcrossRobShapes)
{
    struct Pin
    {
        const char *app;
        std::uint32_t robEntries;
        Cycle cycles;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"art", 8, 50598, 0x8647dc3005a349c2ull},
        {"art", 32, 36397, 0xdb2167cb5d677d86ull},
        {"art", 128, 32181, 0x2c9291b6954621abull},
        {"art", 256, 32157, 0xc094d8fc3aff2613ull},
        {"mg", 8, 22619, 0x762e8763726be1b3ull},
        {"mg", 32, 14348, 0x7c57815099b424b3ull},
        {"mg", 128, 9473, 0x12ac78c6975a2ff4ull},
        {"mg", 256, 9469, 0xa20baa335b19bc15ull},
    };
    for (const Pin &pin : pins) {
        SystemConfig cfg = SystemConfig::parallelDefault();
        cfg.core.robEntries = pin.robEntries;
        stats::Group root;
        FrFcfsScheduler sched;
        DramSystem dram(cfg.dram, sched, root);
        MemHierarchy hier(cfg, dram, root);
        SyntheticApp app(appParams(pin.app), 0, 1, 0, 1);
        Core core(cfg, 0, app, hier, root);
        core.setQuota(5000);
        Cycle now = 0;
        while (!core.finished() && now < 2'000'000) {
            ++now;
            hier.tick(now);
            core.tick(now);
            if (now % 4 == 0)
                dram.tick(now / 4);
        }
        std::ostringstream json;
        core.coreStats().group.printJson(json);
        EXPECT_EQ(now, pin.cycles) << pin.app << " rob " << pin.robEntries;
        EXPECT_EQ(fnv1a(json.str()), pin.digest)
            << pin.app << " rob " << pin.robEntries;
    }
}

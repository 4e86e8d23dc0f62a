/**
 * @file
 * Google-benchmark micro-benchmarks backing the paper's
 * implementability arguments (Sections 3.2 and 5.8.1): the per-cycle
 * cost of each scheduler's pick() on realistic candidate sets (the
 * "lean controller" claim — criticality adds a comparator widening,
 * not a pipeline), plus CBP lookup/update and DRAM/system tick rates.
 */

// lint:allow-file(clock-domain): independent micro-benchmarks, each
// driving the components of one clock domain on its own clock.

#include <benchmark/benchmark.h>

#include "cpu/core.hh"
#include "crit/cbp.hh"
#include "dram/dram.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "sched/ahb.hh"
#include "sched/crit_frfcfs.hh"
#include "sched/frfcfs.hh"
#include "sched/morse.hh"
#include "sched/parbs.hh"
#include "sched/registry.hh"
#include "sched/tcm.hh"
#include "sim/random.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

std::vector<SchedCandidate>
makeCandidates(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<SchedCandidate> cands(n);
    for (std::size_t i = 0; i < n; ++i) {
        SchedCandidate &c = cands[i];
        const std::uint64_t draw = rng.next();
        c.cmd = static_cast<DramCmd>(draw % 4);
        c.rowHit = c.isCas();
        c.isWrite = c.cmd == DramCmd::Write;
        c.coord.rank = draw % 4;
        c.coord.bank = (draw >> 8) % 8;
        c.coord.row = (draw >> 16) % 4096;
        c.core = (draw >> 3) % 8;
        c.crit = (draw % 5 == 0) ? (draw % 4000) : 0;
        c.arrival = 1000 + i;
        c.seq = i;
        c.queueIndex = static_cast<std::uint32_t>(i);
    }
    return cands;
}

template <typename Sched>
void
pickLoop(benchmark::State &state, Sched &sched)
{
    const auto cands =
        makeCandidates(static_cast<std::size_t>(state.range(0)), 42);
    DramCycle now = 10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.pick(0, cands, now));
        ++now;
    }
}

void
BM_PickFrFcfs(benchmark::State &state)
{
    FrFcfsScheduler sched;
    pickLoop(state, sched);
}

void
BM_PickCasRasCrit(benchmark::State &state)
{
    CritFrFcfsScheduler sched(CritOrder::CasRasFirst);
    pickLoop(state, sched);
}

void
BM_PickCritCasRas(benchmark::State &state)
{
    CritFrFcfsScheduler sched(CritOrder::CritFirst);
    pickLoop(state, sched);
}

void
BM_PickAhb(benchmark::State &state)
{
    AhbScheduler sched;
    pickLoop(state, sched);
}

void
BM_PickTcm(benchmark::State &state)
{
    TcmScheduler sched(8, false, 7);
    pickLoop(state, sched);
}

void
BM_PickParBs(benchmark::State &state)
{
    ParBsScheduler sched(4, 8, 8, 5);
    // Mirror the candidates' transactions as the channel's enqueues
    // would, so pick() finds their batch marks in a real queue.
    for (const SchedCandidate &c :
         makeCandidates(static_cast<std::size_t>(state.range(0)), 42)) {
        MemRequest req;
        req.id = c.seq;
        req.core = c.core;
        req.type = c.isWrite ? ReqType::Write : ReqType::Read;
        sched.onEnqueue(0, req, c.coord, c.arrival);
    }
    pickLoop(state, sched);
}

void
BM_PickMorse(benchmark::State &state)
{
    MorseScheduler sched(4, 8,
                         static_cast<std::uint32_t>(state.range(0)),
                         false, 7);
    pickLoop(state, sched);
}

void
BM_CbpPredict(benchmark::State &state)
{
    CommitBlockPredictor cbp(CritPredictor::CbpMaxStall, 64, 0);
    for (std::uint64_t pc = 0; pc < 4096; pc += 4)
        cbp.update(0x400000 + pc, pc % 9000);
    std::uint64_t pc = 0x400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cbp.predict(pc));
        pc += 4;
    }
}

void
BM_CbpUpdate(benchmark::State &state)
{
    CommitBlockPredictor cbp(CritPredictor::CbpTotalStall, 64, 0);
    std::uint64_t pc = 0x400000;
    for (auto _ : state) {
        cbp.update(pc, 137);
        pc += 4;
    }
}

void
BM_CmacLookup(benchmark::State &state)
{
    Cmac cmac;
    Cmac::ActiveTiles tiles;
    Rng rng(3);
    float features[8];
    // Pre-train so value() reads non-trivial weights.
    for (int i = 0; i < 4096; ++i) {
        for (int f = 0; f < 8; ++f)
            features[f] = static_cast<float>(rng.next() % 64);
        cmac.tiles(features, 8, tiles);
        cmac.update(tiles, 0.01f);
    }
    for (auto _ : state) {
        for (int f = 0; f < 8; ++f)
            features[f] = static_cast<float>(rng.next() % 64);
        cmac.tiles(features, 8, tiles);
        benchmark::DoNotOptimize(cmac.value(tiles));
    }
}

void
BM_BankTimingUpdate(benchmark::State &state)
{
    // The per-command bookkeeping plus an effective-window min scan,
    // on the bank/rank layout the channel actually uses: each bank
    // holds its own windows, each rank of 8 banks its rank-wide ones.
    constexpr std::size_t kBanksPerRank = 8;
    const std::size_t nBanks =
        static_cast<std::size_t>(state.range(0));
    BankTimingSoA banks(nBanks);
    std::vector<RankState> ranks(nBanks / kBanksPerRank);
    Rng rng(11);
    DramCycle now = 100;
    for (auto _ : state) {
        const std::size_t b = rng.next() % nBanks;
        RankState &rank = ranks[b / kBanksPerRank];
        // One command's worth of state transitions.
        if (banks.open[b]) {
            banks.readyPre[b] = now + 24;
            rank.readyRead = now + 4;
            rank.readyWrite = now + 20;
        } else {
            banks.open[b] = 1;
            banks.row[b] = rng.next() % 16384;
            banks.readyAct[b] = now + 50;
            banks.readyRead[b] = now + 14;
            rank.readyAct = now + 6;
            rank.recordAct(now);
        }
        // The nextEventCycle-style min scan over all banks.
        DramCycle earliest = ~DramCycle{0};
        for (std::size_t i = 0; i < banks.size(); ++i) {
            const RankState &r = ranks[i / kBanksPerRank];
            const DramCycle ready = banks.open[i]
                ? std::max(banks.readyRead[i], r.readyRead)
                : std::max(banks.readyAct[i], r.readyAct);
            earliest = ready < earliest ? ready : earliest;
        }
        benchmark::DoNotOptimize(earliest);
        ++now;
    }
}

/**
 * Keep one channel range(0) transactions deep under @p algo and
 * measure tick(); 64 holds the unified queue full, the saturated case.
 */
void
channelTick(benchmark::State &state, SchedAlgo algo)
{
    const auto depth = static_cast<std::uint32_t>(state.range(0));
    stats::Group root;
    SystemConfig sysCfg = SystemConfig::parallelDefault();
    sysCfg.dram.channels = 1;
    sysCfg.sched.algo = algo;
    const auto sched = makeScheduler(sysCfg);
    DramSystem dram(sysCfg.dram, *sched, root);
    Rng rng(7);
    DramCycle now = 0;
    for (auto _ : state) {
        while (dram.channel(0).readQueueSize() +
                   dram.channel(0).writeQueueSize() <
               depth) {
            MemRequest req;
            req.addr = (rng.next() % (1u << 26)) & ~Addr{63};
            req.type = rng.next() % 4 == 0 ? ReqType::Write
                                           : ReqType::Read;
            req.core = static_cast<CoreId>(rng.next() % 8);
            dram.enqueue(std::move(req));
        }
        dram.tick(++now);
    }
}

void
BM_DramChannelTick(benchmark::State &state)
{
    channelTick(state, SystemConfig::parallelDefault().sched.algo);
}

/** The same with PAR-BS, whose pick() consults its batch marks. */
void
BM_DramChannelTickParBs(benchmark::State &state)
{
    channelTick(state, SchedAlgo::ParBs);
}

/**
 * The idle-probe path fast-forwarding leans on: nextEventCycle() on a
 * loaded channel that has reached a steady mid-burst state.
 */
void
BM_DramReadyScan(benchmark::State &state)
{
    stats::Group root;
    SystemConfig sysCfg = SystemConfig::parallelDefault();
    sysCfg.dram.channels = 1;
    const auto sched = makeScheduler(sysCfg);
    DramSystem dram(sysCfg.dram, *sched, root);
    Rng rng(13);
    DramCycle now = 0;
    for (int i = 0; i < 400; ++i) {
        if (i % 3 == 0) {
            MemRequest req;
            req.addr = (rng.next() % (1u << 26)) & ~Addr{63};
            req.type = rng.next() % 4 == 0 ? ReqType::Write
                                           : ReqType::Read;
            req.core = static_cast<CoreId>(rng.next() % 8);
            dram.enqueue(std::move(req));
        }
        dram.tick(++now);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(dram.nextEventCycle(now));
}

/**
 * A pure pointer-chase application: every load is a far miss whose
 * address depends on the previous load, so the pipeline fully drains
 * between misses and the machine spends most cycles provably idle —
 * the long-idle-gap shape where event-driven cycle skipping shines.
 */
AppParams
chaseParams()
{
    AppParams p = appParams("mcf");
    p.name = "chase";
    p.loadFrac = 0.40;
    p.storeFrac = 0.0;
    p.branchFrac = 0.0;
    p.fpFrac = 0.0;
    p.mispredictRate = 0.0;
    p.localFrac = 0.0;
    p.seqFrac = 0.0;
    p.randomFrac = 0.0;
    p.chaseFrac = 1.0;
    p.sharedFrac = 0.0;
    p.fanoutLoadFrac = 0.0;
    p.privateBytes = 64ull << 20;
    p.rowLocality = 0.0;
    // A short loop keeps the chase-load count under the generator's
    // one-chain threshold: a single serialized pointer chain, MLP 1.
    p.loopLength = 64;
    return p;
}

void
runSystem(benchmark::State &state, bool fastForward)
{
    std::uint64_t totalCycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = SystemConfig::parallelDefault();
        cfg.sched.algo = SchedAlgo::FrFcfs;
        cfg.fastForward = fastForward;
        // One core: the misses serialize and the whole machine goes
        // quiescent for most of every miss's latency.
        cfg.numCores = 1;
        System sys(cfg, chaseParams());
        sys.prewarmCaches();
        state.ResumeTiming();
        totalCycles += sys.run(2000, true, 50'000'000);
    }
    state.counters["cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(totalCycles),
        benchmark::Counter::kIsRate);
}

/** End-to-end System::run() with event-driven cycle skipping on. */
void
BM_SystemRunSkip(benchmark::State &state)
{
    runSystem(state, true);
}

/** The same workload with the plain tick-every-cycle loop. */
void
BM_SystemRunNoSkip(benchmark::State &state)
{
    runSystem(state, false);
}

/** Replays a fixed micro-op loop forever. */
class LoopTrace : public TraceGenerator
{
  public:
    explicit LoopTrace(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

    void
    next(MicroOp &op) override
    {
        op = ops_[pos_];
        if (++pos_ == ops_.size())
            pos_ = 0;
    }

    const std::string &name() const override { return name_; }

  private:
    std::vector<MicroOp> ops_;
    std::size_t pos_ = 0;
    std::string name_ = "loop";
};

/**
 * A loop that is mostly integer ALU ops: every eight hold a
 * cache-resident load, an FP op that uses it and a branch, and every
 * sixteen a store. The two integer ALUs bound throughput below the
 * 4-wide issue, so ready ops pile up in the issue queue and every
 * cycle's oldest-first select walks a backlog larger than the issue
 * width.
 */
std::vector<MicroOp>
aluBoundMix()
{
    std::vector<MicroOp> ops(64);
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        op.pc = 0x400000 + i * 4;
        if (i % 8 == 0) {
            op.cls = OpClass::Load;
            op.addr = 0x10000 + (i % 32) * 64;
        } else if (i % 16 == 3) {
            op.cls = OpClass::Store;
            op.addr = 0x20000 + (i % 32) * 64;
        } else if (i % 8 == 5) {
            op.cls = OpClass::FpAlu;
            op.latency = 3;
            op.dep1 = 5; // the load
        } else if (i % 8 == 7) {
            op.cls = OpClass::Branch;
        } else {
            op.dep1 = i % 3 == 0 ? 2 : 0; // IntAlu
        }
    }
    return ops;
}

/** One core and its hierarchy on aluBoundMix(), a CPU cycle a step. */
void
BM_CoreTick(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    stats::Group root;
    FrFcfsScheduler sched;
    DramSystem dram(cfg.dram, sched, root);
    MemHierarchy hier(cfg, dram, root);
    LoopTrace trace(aluBoundMix());
    Core core(cfg, 0, trace, hier, root);
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        hier.tick(now);
        core.tick(now);
        if (now % 4 == 0)
            dram.tick(now / 4);
    }
    state.counters["ipc"] = static_cast<double>(core.committed()) /
        static_cast<double>(now);
}

/**
 * One L2-geometry tag array (4 MB, 8-way, 64 B blocks) filled from a
 * seeded draw over a block range twice its capacity, then accessed at
 * seeded random blocks of that range: about 40% hits (an LRU update),
 * the rest misses (a full set scan). Cost per access().
 */
void
BM_CacheLookup(benchmark::State &state)
{
    const SystemConfig cfg = SystemConfig::parallelDefault();
    stats::Group root;
    Cache cache(cfg.l2, "l2", root);
    const std::uint64_t blocks = 2 * cfg.l2.sizeBytes / cfg.l2.blockBytes;
    Rng rng(0x1002);
    for (std::uint64_t n = 0; n < blocks / 2; ++n)
        cache.insert(rng.below(blocks) * cfg.l2.blockBytes,
                     LineState::Exclusive);
    std::vector<Addr> addrs(1 << 16);
    for (Addr &addr : addrs)
        addr = rng.below(blocks) * cfg.l2.blockBytes;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.counters["hit_frac"] =
        static_cast<double>(cache.cacheStats().hits.value()) /
        static_cast<double>(cache.cacheStats().hits.value() +
                            cache.cacheStats().misses.value());
}

/** Discards completed tokens. */
struct NullClient : MemClient
{
    void memDone(MemToken) override {}
};

/**
 * One hierarchy cycle plus one dL1 load hit, over 512 resident
 * blocks: the hit's whole cost in the hierarchy, completion included.
 */
void
BM_HierarchyLoadHit(benchmark::State &state)
{
    const SystemConfig cfg = SystemConfig::parallelDefault();
    stats::Group root;
    FrFcfsScheduler sched;
    DramSystem dram(cfg.dram, sched, root);
    MemHierarchy hier(cfg, dram, root);
    NullClient client;
    hier.attach(0, client);
    constexpr Addr kBlocks = 512;
    for (Addr b = 0; b < kBlocks; ++b)
        hier.dl1(0).insert(0x10000 + b * cfg.dl1.blockBytes,
                           LineState::Exclusive);
    Cycle now = 0;
    Addr b = 0;
    for (auto _ : state) {
        hier.tick(++now);
        const Addr addr = 0x10000 + b * cfg.dl1.blockBytes;
        benchmark::DoNotOptimize(
            hier.load(0, addr, 0, MemToken{MemToken::Kind::Load, now}));
        b = (b + 1) % kBlocks;
    }
}

void
BM_SystemTick(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::CasRasCrit;
    cfg.crit.predictor = CritPredictor::CbpMaxStall;
    System sys(cfg, appParams("mg"));
    sys.prewarmCaches();
    std::uint64_t quota = 1000;
    for (auto _ : state) {
        state.PauseTiming();
        quota += 200;
        state.ResumeTiming();
        sys.run(quota, false, 100000);
    }
}

} // namespace

BENCHMARK(BM_PickFrFcfs)->Arg(8)->Arg(32);
BENCHMARK(BM_PickCasRasCrit)->Arg(8)->Arg(32);
BENCHMARK(BM_PickCritCasRas)->Arg(8)->Arg(32);
BENCHMARK(BM_PickAhb)->Arg(8)->Arg(32);
BENCHMARK(BM_PickTcm)->Arg(8)->Arg(32);
BENCHMARK(BM_PickParBs)->Arg(8)->Arg(32);
BENCHMARK(BM_PickMorse)->Arg(6)->Arg(24);
BENCHMARK(BM_CbpPredict);
BENCHMARK(BM_CbpUpdate);
BENCHMARK(BM_CmacLookup);
BENCHMARK(BM_BankTimingUpdate)->Arg(16)->Arg(64);
BENCHMARK(BM_DramChannelTick)->Arg(16)->Arg(64);
BENCHMARK(BM_DramChannelTickParBs)->Arg(64);
BENCHMARK(BM_DramReadyScan);
BENCHMARK(BM_SystemRunSkip)->Unit(benchmark::kMillisecond)
    ->Iterations(3)->Repetitions(3)->ReportAggregatesOnly(true);
BENCHMARK(BM_SystemRunNoSkip)->Unit(benchmark::kMillisecond)
    ->Iterations(3)->Repetitions(3)->ReportAggregatesOnly(true);
BENCHMARK(BM_CoreTick);
BENCHMARK(BM_CacheLookup);
BENCHMARK(BM_HierarchyLoadHit);
BENCHMARK(BM_SystemTick)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK_MAIN();

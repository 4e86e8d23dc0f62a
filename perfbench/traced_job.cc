#include "traced_job.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "cpu/core.hh"
#include "dram/dram.hh"
#include "mem/hierarchy.hh"
#include "sched/registry.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "system/experiment.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace critmem::perfbench
{

LayerProfile &
LayerProfile::operator+=(const LayerProfile &other)
{
    for (std::size_t i = 0; i < kLayers; ++i)
        selfS[i] += other.selfS[i];
    jobS += other.jobS;
    cpuTicks += other.cpuTicks;
    opsCommitted += other.opsCommitted;
    critLookups += other.critLookups;
    critFlagged += other.critFlagged;
    memTicks += other.memTicks;
    dramRejects += other.dramRejects;
    l2DemandMisses += other.l2DemandMisses;
    casServed += other.casServed;
    dramTicks += other.dramTicks;
    dramCmds += other.dramCmds;
    enqueueRejects += other.enqueueRejects;
    schedPicks += other.schedPicks;
    schedCandidates += other.schedCandidates;
    schedIssues += other.schedIssues;
    traceUops += other.traceUops;
    cpuCycles += other.cpuCycles;
    cpuCyclesSkipped += other.cpuCyclesSkipped;
    return *this;
}

void
SpanClock::leave()
{
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double span =
        std::chrono::duration<double>(Clock::now() - frame.start).count();
    profile_.selfS[static_cast<std::size_t>(frame.layer)] +=
        span - frame.childS;
    if (!stack_.empty())
        stack_.back().childS += span;
}

namespace
{

/** Times and counts every call into the wrapped scheduling policy. */
class TimedScheduler final : public Scheduler
{
  public:
    TimedScheduler(Scheduler &inner, SpanClock &clock,
                   LayerProfile &profile)
        : inner_(inner), clock_(clock), profile_(profile)
    {
    }

    int
    pick(std::uint32_t channel, const std::vector<SchedCandidate> &cands,
         DramCycle now) override
    {
        Span span(clock_, Layer::Sched);
        ++profile_.schedPicks;
        profile_.schedCandidates += cands.size();
        return inner_.pick(channel, cands, now);
    }

    void
    onEnqueue(std::uint32_t channel, const MemRequest &req,
              const DramCoord &coord, DramCycle now) override
    {
        Span span(clock_, Layer::Sched);
        inner_.onEnqueue(channel, req, coord, now);
    }

    void
    onIssue(std::uint32_t channel, const SchedCandidate &cand,
            DramCycle now) override
    {
        Span span(clock_, Layer::Sched);
        ++profile_.schedIssues;
        inner_.onIssue(channel, cand, now);
    }

    void
    onComplete(std::uint32_t channel, const MemRequest &req,
               DramCycle now) override
    {
        Span span(clock_, Layer::Sched);
        inner_.onComplete(channel, req, now);
    }

    void
    tick(DramCycle now) override
    {
        Span span(clock_, Layer::Sched);
        inner_.tick(now);
    }

    DramCycle
    nextEventCycle(DramCycle now) const override
    {
        Span span(clock_, Layer::Sched);
        return inner_.nextEventCycle(now);
    }

    const char *name() const override { return inner_.name(); }

  private:
    Scheduler &inner_;
    SpanClock &clock_;
    LayerProfile &profile_;
};

/** Times and counts every micro-op drawn from the wrapped stream. */
class TimedGenerator final : public TraceGenerator
{
  public:
    TimedGenerator(std::unique_ptr<TraceGenerator> inner, SpanClock &clock,
                   LayerProfile &profile)
        : inner_(std::move(inner)), clock_(clock), profile_(profile)
    {
    }

    void
    next(MicroOp &op) override
    {
        Span span(clock_, Layer::Trace);
        ++profile_.traceUops;
        inner_->next(op);
    }

    const std::string &name() const override { return inner_->name(); }

    std::vector<std::pair<Addr, std::uint64_t>>
    farRegions() const override
    {
        return inner_->farRegions();
    }

  private:
    std::unique_ptr<TraceGenerator> inner_;
    SpanClock &clock_;
    LayerProfile &profile_;
};

/**
 * The System of system/system.cc rebuilt from public calls: the same
 * construction order (so the stats tree serializes identically), the
 * same prewarm, and the same tick / lazy-core / fast-forward loop as
 * a JobRunner job, whose cancel flag always bounds skips at the
 * 1024-cycle poll boundary. No checker, injector or abort polling.
 */
class TracedSystem
{
  public:
    TracedSystem(const SystemConfig &cfg,
                 const std::vector<AppParams> &perCore, bool parallel,
                 SpanClock &clock, LayerProfile &profile)
        : cfg_(cfg), root_("sys"), clock_(clock), profile_(profile)
    {
        policy_ = makeScheduler(cfg_);
        sched_ =
            std::make_unique<TimedScheduler>(*policy_, clock_, profile_);
        dram_ = std::make_unique<DramSystem>(cfg_.dram, *sched_, root_);
        hier_ = std::make_unique<MemHierarchy>(cfg_, *dram_, root_);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            std::unique_ptr<TraceGenerator> app;
            if (parallel) {
                app = std::make_unique<SyntheticApp>(
                    perCore[i], i, cfg_.numCores, 0, cfg_.seed);
            } else {
                const Addr base = static_cast<Addr>(i) << 40;
                app = std::make_unique<SyntheticApp>(
                    perCore[i], 0, 1, base, cfg_.seed + i * 977);
            }
            gens_.push_back(std::make_unique<TimedGenerator>(
                std::move(app), clock_, profile_));
            cores_.push_back(std::make_unique<Core>(
                cfg_, i, *gens_.back(), *hier_, root_));
            if (perCore[i].name.empty())
                cores_.back()->setActive(false);
        }
    }

    /** System::prewarmCaches() with its default fractions. */
    void
    prewarmCaches()
    {
        const double fillFrac = 0.9;
        const double dirtyFrac = 0.12;
        Rng rng(cfg_.seed ^ 0x77a12f5ull);
        Cache &l2 = hier_->l2();
        const std::uint64_t lines = static_cast<std::uint64_t>(
            fillFrac * cfg_.l2.sizeBytes / cfg_.l2.blockBytes);
        std::vector<std::pair<Addr, std::uint64_t>> regions;
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            if (!cores_[i]->active())
                continue;
            for (const auto &region : gens_[i]->farRegions()) {
                if (region.second > 0)
                    regions.push_back(region);
            }
        }
        if (regions.empty())
            return;
        for (std::uint64_t n = 0; n < lines; ++n) {
            const auto &[base, size] = regions[rng.below(regions.size())];
            const Addr block = l2.blockAlign(base + rng.below(size));
            l2.insert(block, rng.chance(dirtyFrac) ? LineState::Modified
                                                   : LineState::Exclusive);
        }
    }

    /** Count the closing window's work, then zero every statistic. */
    void
    resetStatsWindow()
    {
        countWindow();
        root_.resetAll();
        for (auto &core : cores_)
            core->resetWindow();
    }

    /** Add the current window's stat-derived counters to the profile. */
    void
    countWindow()
    {
        for (const auto &core : cores_) {
            const Core::Stats &cs = core->coreStats();
            profile_.opsCommitted += cs.committedOps.value();
            if (core->cbp() != nullptr || core->clpt() != nullptr) {
                profile_.critLookups += cs.loadsIssued.value();
                profile_.critFlagged += cs.critLoadsIssued.value();
            }
        }
        const MemHierarchy::Stats &ms = hier_->memStats();
        profile_.dramRejects += ms.dramRejects.value();
        profile_.l2DemandMisses += ms.demandMisses.value();
        for (std::uint32_t c = 0; c < dram_->numChannels(); ++c) {
            const DramChannel::Stats &ds = dram_->channel(c).channelStats();
            profile_.casServed += ds.reads.value() + ds.writes.value();
            profile_.dramCmds += ds.activates.value() + ds.reads.value() +
                ds.writes.value() + ds.precharges.value() +
                ds.refreshes.value();
            profile_.enqueueRejects += ds.enqueueRejects.value();
        }
    }

    /** System::run(): false when the safety cycle limit cut it short. */
    bool
    run(std::uint64_t quotaPerCore, bool stopAtQuota)
    {
        const Cycle maxCycles = quotaPerCore * 4000 + 10'000'000;
        for (auto &core : cores_) {
            core->setQuota(quotaPerCore);
            core->setStopAtQuota(stopAtQuota);
        }
        const bool skip = cfg_.fastForward;
        lazyTick_ = skip;
        coreNext_.assign(cores_.size(), 0);
        const Cycle limit = cycle_ + maxCycles;
        bool finished = true;
        while (!allFinished()) {
            if (cycle_ >= limit) {
                finished = false;
                break;
            }
            tickOnce();
            if (skip && !allFinished())
                fastForward(limit);
        }
        if (lazyTick_) {
            Span span(clock_, Layer::Cpu);
            for (auto &core : cores_)
                core->skipTo(cycle_);
            lazyTick_ = false;
        }
        profile_.cpuCycles = cycle_;
        return finished;
    }

    stats::Group &statsRoot() { return root_; }

  private:
    bool
    allFinished() const
    {
        return std::all_of(cores_.begin(), cores_.end(),
                           [](const auto &core) {
                               return core->finished();
                           });
    }

    void
    tickOnce()
    {
        ++cycle_;
        {
            Span span(clock_, Layer::Mem);
            ++profile_.memTicks;
            hier_->tick(cycle_);
        }
        if (lazyTick_) {
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                Core &core = *cores_[i];
                if (!core.poked() && coreNext_[i] > cycle_)
                    continue;
                Span span(clock_, Layer::Cpu);
                ++profile_.cpuTicks;
                core.skipTo(cycle_ - 1);
                core.clearPoked();
                core.tick(cycle_);
                coreNext_[i] = core.nextEventCycle(cycle_);
            }
        } else {
            for (auto &core : cores_) {
                Span span(clock_, Layer::Cpu);
                ++profile_.cpuTicks;
                core->tick(cycle_);
            }
        }
        dramAccum_ += cfg_.dram.busMHz;
        if (dramAccum_ >= cfg_.core.freqMHz) {
            dramAccum_ -= cfg_.core.freqMHz;
            Span span(clock_, Layer::Dram);
            ++profile_.dramTicks;
            dram_->tick(++dramCycle_);
        }
    }

    void
    fastForward(Cycle limit)
    {
        Span ffSpan(clock_, Layer::FastForward);
        Cycle target = std::min(limit, (cycle_ | Cycle{0x3ff}) + 1);
        for (const Cycle bound : coreNext_) {
            target = std::min(target, bound);
            if (target <= cycle_ + 1)
                return;
        }
        {
            Span span(clock_, Layer::Mem);
            target = std::min(target, hier_->nextEventCycle(cycle_));
        }
        if (target <= cycle_ + 1)
            return;

        DramCycle e = kNoCycle;
        {
            Span span(clock_, Layer::Dram);
            e = dram_->nextEventCycle(dramCycle_);
        }
        if (e != kNoCycle) {
            if (e <= dramCycle_)
                return;
            const std::uint64_t m = e - dramCycle_;
            const std::uint64_t need =
                m * cfg_.core.freqMHz - dramAccum_;
            const std::uint64_t k =
                (need + cfg_.dram.busMHz - 1) / cfg_.dram.busMHz;
            target = std::min(target, cycle_ + k);
        }
        if (target <= cycle_ + 1)
            return;

        const Cycle stop = target - 1;
        {
            Span span(clock_, Layer::Mem);
            hier_->skipTo(stop);
        }
        const std::uint64_t cpuCycles = stop - cycle_;
        profile_.cpuCyclesSkipped += cpuCycles;
        const std::uint64_t total =
            dramAccum_ + cpuCycles * cfg_.dram.busMHz;
        const std::uint64_t dramTicks = total / cfg_.core.freqMHz;
        dramAccum_ = total % cfg_.core.freqMHz;
        if (dramTicks != 0) {
            dramCycle_ += dramTicks;
            Span span(clock_, Layer::Dram);
            dram_->skipTo(dramCycle_);
        }
        cycle_ = stop;
    }

    SystemConfig cfg_;
    stats::Group root_;
    SpanClock &clock_;
    LayerProfile &profile_;
    std::unique_ptr<Scheduler> policy_;
    std::unique_ptr<TimedScheduler> sched_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<MemHierarchy> hier_;
    std::vector<std::unique_ptr<TimedGenerator>> gens_;
    std::vector<std::unique_ptr<Core>> cores_;

    std::vector<Cycle> coreNext_;
    bool lazyTick_ = false;
    Cycle cycle_ = 0;
    std::uint64_t dramAccum_ = 0;
    DramCycle dramCycle_ = 0;
};

} // namespace

std::string
runTraced(const exec::JobSpec &spec, LayerProfile &profile)
{
    if (!spec.cfg.validate().empty())
        throw std::runtime_error("invalid config for job '" + spec.name +
                                 "'");
    if (spec.cfg.check.enabled || spec.cfg.check.fault != FaultKind::None)
        throw std::runtime_error("traced run of '" + spec.name +
                                 "': the protocol checker is not traced");

    std::vector<AppParams> perCore;
    bool parallel = false;
    switch (spec.kind) {
      case exec::RunKind::Parallel:
        perCore.assign(spec.cfg.numCores, appParams(spec.workload));
        parallel = true;
        break;
      case exec::RunKind::Alone:
        perCore.resize(spec.cfg.numCores);
        perCore[0] = appParams(spec.workload);
        break;
      case exec::RunKind::Bundle: {
        const Bundle *bundle = findBundle(spec.workload);
        if (bundle == nullptr ||
            bundle->apps.size() != spec.cfg.numCores)
            throw std::runtime_error("bad bundle job '" + spec.name +
                                     "'");
        for (const std::string &name : bundle->apps)
            perCore.push_back(appParams(name));
        break;
      }
      case exec::RunKind::Trace:
        throw std::runtime_error("traced run of '" + spec.name +
                                 "': trace-file jobs are not supported");
    }

    LayerProfile job;
    SpanClock clock(job);
    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<TracedSystem> sys;
    {
        Span span(clock, Layer::Build);
        sys = std::make_unique<TracedSystem>(spec.cfg, perCore, parallel,
                                             clock, job);
        sys->prewarmCaches();
    }
    const std::uint64_t warmup = spec.warmup == kDefaultWarmup
        ? defaultWarmup(spec.quota)
        : spec.warmup;
    bool finished = true;
    if (warmup != 0) {
        finished = sys->run(warmup, /*stopAtQuota=*/false);
        sys->resetStatsWindow();
    }
    finished = sys->run(spec.quota, spec.kind != exec::RunKind::Bundle) &&
        finished;
    sys->countWindow();
    job.jobS = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (!finished)
        throw std::runtime_error("traced run of '" + spec.name +
                                 "' hit the safety cycle limit");

    std::ostringstream os;
    sys->statsRoot().printJson(os);
    profile += job;
    return os.str();
}

} // namespace critmem::perfbench

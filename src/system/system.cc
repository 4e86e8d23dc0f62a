#include "system/system.hh"

// lint:allow-file(clock-domain): System advances both clocks; the
// crossing is pinned at runtime by System.DramClockFollowsBusRatio.

#include <algorithm>

#include "check/diagnostics.hh"
#include "sim/log.hh"

namespace critmem
{

System::System(const SystemConfig &cfg, const AppParams &app)
    : cfg_(cfg), root_("sys")
{
    std::vector<AppParams> perCore(cfg.numCores, app);
    build(perCore, true);
}

System::System(const SystemConfig &cfg,
               const std::vector<AppParams> &perCore)
    : cfg_(cfg), root_("sys")
{
    if (perCore.size() != cfg.numCores)
        fatal("per-core workload list has ", perCore.size(),
              " entries for ", cfg.numCores, " cores");
    build(perCore, false);
}

System::System(const SystemConfig &cfg, const TraceWorkload &trace)
    : cfg_(cfg), root_("sys")
{
    if (cfg_.numCores != trace.numCores)
        fatal("trace workload '", trace.name, "' declares ",
              trace.numCores, " cores but the config has ",
              cfg_.numCores);
    buildTrace(trace);
}

void
System::buildShared()
{
    validateOrFatal(cfg_);

    sched_ = makeScheduler(cfg_);
    dram_ = std::make_unique<DramSystem>(cfg_.dram, *sched_, root_);
    if (cfg_.check.enabled) {
        checker_ =
            std::make_unique<ProtocolChecker>(cfg_.check, cfg_.dram);
        checker_->attach(*dram_);
    }
    if (cfg_.check.fault != FaultKind::None) {
        injector_ =
            std::make_unique<ScriptedFaultInjector>(cfg_.check);
        dram_->setFaultInjector(injector_.get());
    }
    hier_ = std::make_unique<MemHierarchy>(cfg_, *dram_, root_);
}

void
System::buildTrace(const TraceWorkload &trace)
{
    buildShared();
    traceStats_ = std::make_unique<TraceStats>(root_);
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        // Per-core prewarm regions from the registration scan, with
        // memory-op-free cores contributing nothing.
        std::vector<std::pair<Addr, std::uint64_t>> far;
        if (i < trace.coreRegions.size() &&
            trace.coreRegions[i].second > 0)
            far.push_back(trace.coreRegions[i]);
        gens_.push_back(std::make_unique<ingest::ExternalTraceReader>(
            trace.name, trace.path, i, std::move(far),
            &traceStats_->records));
        cores_.push_back(std::make_unique<Core>(
            cfg_, i, *gens_.back(), *hier_, root_));
    }
}

void
System::build(const std::vector<AppParams> &perCore, bool parallel)
{
    buildShared();

    for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
        if (parallel) {
            // SPMD threads of one application, shared address space.
            gens_.push_back(std::make_unique<SyntheticApp>(
                perCore[i], i, cfg_.numCores, 0, cfg_.seed));
        } else {
            // Disjoint address spaces, one single-threaded app each.
            const Addr base = static_cast<Addr>(i) << 40;
            gens_.push_back(std::make_unique<SyntheticApp>(
                perCore[i], 0, 1, base, cfg_.seed + i * 977));
        }
        cores_.push_back(std::make_unique<Core>(
            cfg_, i, *gens_.back(), *hier_, root_));
        if (perCore[i].name.empty())
            cores_.back()->setActive(false);
    }
}

void
System::prewarmCaches(double fillFrac, double dirtyFrac)
{
    Rng rng(cfg_.seed ^ 0x77a12f5ull);
    Cache &l2 = hier_->l2();
    const std::uint64_t lines = static_cast<std::uint64_t>(
        fillFrac * cfg_.l2.sizeBytes / cfg_.l2.blockBytes);

    // Gather every active thread's far regions once.
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
        const Addr block =
            l2.blockAlign(base + rng.below(size));
        l2.insert(block, rng.chance(dirtyFrac) ? LineState::Modified
                                               : LineState::Exclusive);
    }
}

void
System::resetStatsWindow()
{
    root_.resetAll();
    if (checker_)
        checker_->onStatsReset();
    for (auto &core : cores_)
        core->resetWindow();
    windowStart_ = cycle_;
}

void
System::finalizeChecks(bool requireDrained)
{
    if (!checker_)
        return;
    checker_->finalize(requireDrained);
    checker_->crossCheckStats(root_);
}

void
System::tickOnce()
{
    ++cycle_;
    hier_->tick(cycle_);
    if (lazyTick_) {
        // Lazy core ticking: only cores whose cached next-event bound
        // is due (or that a completion delivered by the hierarchy
        // tick above just poked) run a real tick; the rest stay
        // frozen and bulk-replay the window when they next wake.
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            Core &core = *cores_[i];
            if (!core.poked() && coreNext_[i] > cycle_)
                continue;
            core.skipTo(cycle_ - 1);
            core.clearPoked();
            core.tick(cycle_);
            coreNext_[i] = core.nextEventCycle(cycle_);
        }
    } else {
        for (auto &core : cores_)
            core->tick(cycle_);
    }
    // Clock crossing: one DRAM tick whenever the fractional
    // accumulator of busMHz/cpuMHz wraps (4 CPU cycles per DRAM cycle
    // at DDR3-2133 under a 4.27 GHz core).
    dramAccum_ += cfg_.dram.busMHz;
    if (dramAccum_ >= cfg_.core.freqMHz) {
        dramAccum_ -= cfg_.core.freqMHz;
        dram_->tick(++dramCycle_);
    }
}

void
System::fastForward(Cycle limit, bool pollBounded)
{
    // Gather bounds cheapest-first and bail as soon as one pins the
    // next event to the very next tick — on busy cycles this keeps
    // the fast-forward probe close to free.
    Cycle target = limit;
    if (pollBounded)
        target = std::min(target, (cycle_ | Cycle{0x3ff}) + 1);
    // The cached per-core bounds are current: tickOnce() refreshed
    // every core that was poked or due this cycle, and the rest are
    // frozen with their bound still in the future.
    for (const Cycle bound : coreNext_) {
        target = std::min(target, bound);
        if (target <= cycle_ + 1)
            return;
    }
    target = std::min(target, hier_->nextEventCycle(cycle_));
    if (target <= cycle_ + 1)
        return;

    // Translate the DRAM domain's next event into the CPU cycle on
    // which the clock-crossing accumulator reaches it: the m-th
    // future DRAM tick fires on the k-th future CPU cycle where
    // dramAccum_ + k*busMHz first reaches m*freqMHz.
    const DramCycle e = dram_->nextEventCycle(dramCycle_);
    if (e != kNoCycle) {
        if (e <= dramCycle_)
            return; // defensive: treat a stale bound as "event now"
        const std::uint64_t m = e - dramCycle_;
        const std::uint64_t need = m * cfg_.core.freqMHz - dramAccum_;
        const std::uint64_t k =
            (need + cfg_.dram.busMHz - 1) / cfg_.dram.busMHz;
        target = std::min(target, cycle_ + k);
    }

    if (target <= cycle_ + 1)
        return; // the next event is the very next tick — nothing to skip

    // Skip to the cycle *before* the earliest event; the event's own
    // cycle runs through the ordinary tickOnce() path.
    const Cycle stop = target - 1;
    // Cores stay lazy — their skipped window is replayed when they
    // next wake or tick; only the hierarchy clock advances eagerly.
    hier_->skipTo(stop);

    const std::uint64_t cpuCycles = stop - cycle_;
    const std::uint64_t total =
        dramAccum_ + cpuCycles * cfg_.dram.busMHz;
    const std::uint64_t dramTicks = total / cfg_.core.freqMHz;
    dramAccum_ = total % cfg_.core.freqMHz;
    if (dramTicks != 0) {
        dramCycle_ += dramTicks;
        dram_->skipTo(dramCycle_);
    }
    cycle_ = stop;
}

Cycle
System::run(std::uint64_t quotaPerCore, bool stopAtQuota,
            Cycle maxCycles)
{
    if (quotaPerCore == 0)
        fatal("run() needs a nonzero quota");
    if (maxCycles == 0)
        maxCycles = quotaPerCore * 4000 + 10'000'000;

    for (auto &core : cores_) {
        core->setQuota(quotaPerCore);
        core->setStopAtQuota(stopAtQuota);
    }

    // Commit-level forward-progress watchdog: catches system-wide
    // deadlocks (e.g. a lost completion wedging a core's ROB) that
    // the DRAM-side watchdog cannot see because the channel looks
    // legitimately idle.
    const bool watchCommits =
        checker_ != nullptr && cfg_.check.commitWatchdogCycles != 0;

    // Fault injection perturbs channel timing outside the
    // nextEventCycle contract, so it forces the plain loop.
    const bool skip = cfg_.fastForward && injector_ == nullptr;
    const bool pollBounded = abortFlag_ != nullptr || watchCommits;
    lazyTick_ = skip;
    // A zero bound makes every core tick (and publish a real bound)
    // on the first cycle of the run.
    coreNext_.assign(cores_.size(), 0);
    // Lazily-skipped cores replay their idle accounting when poked;
    // whatever window is still pending at exit (including exits via
    // the watchdog/abort throws) is settled here so the statistics
    // always cover the full run.
    const auto syncCores = [&] {
        if (!lazyTick_)
            return;
        for (auto &core : cores_)
            core->skipTo(cycle_);
        lazyTick_ = false;
    };

    const Cycle limit = cycle_ + maxCycles;
    try {
        runLoop(limit, skip, pollBounded, watchCommits);
    } catch (...) {
        syncCores();
        throw;
    }
    syncCores();
    return cycle_;
}

void
System::runLoop(Cycle limit, bool skip, bool pollBounded,
                bool watchCommits)
{
    const Cycle start = cycle_;
    std::uint64_t lastCommitTotal = 0;
    Cycle lastCommitCycle = cycle_;
    // Cores only commit inside tickOnce() (fast-forward leaves them
    // lazy), so one scan after each tick answers both the skip test
    // and the next iteration's exit test. "All finished" is tested
    // before the cycle limit.
    const auto allFinished = [this] {
        for (const auto &core : cores_) {
            if (!core->finished())
                return false;
        }
        return true;
    };
    bool allDone = allFinished();
    while (!allDone) {
        if (cycle_ >= limit) {
            warn("run() hit the ", limit - start,
                 "-cycle safety limit before all cores finished");
            hitCycleLimit_ = true;
            break;
        }
        tickOnce();

        if (abortFlag_ != nullptr && (cycle_ & 0x3ff) == 0 &&
            abortFlag_->load(std::memory_order_relaxed)) {
            std::string dump;
            for (std::uint32_t c = 0; c < dram_->numChannels(); ++c)
                dump +=
                    formatSnapshot(dram_->channel(c).snapshot(dramCycle_));
            throw CheckViolation(Violation{
                RuleId::Watchdog, 0, dramCycle_,
                "run aborted by the execution engine at cycle " +
                    std::to_string(cycle_) +
                    " (per-job timeout or shutdown drain deadline); "
                    "channel snapshots:\n" +
                    dump});
        }

        if (watchCommits && (cycle_ & 0x3ff) == 0) {
            std::uint64_t committed = 0;
            for (const auto &core : cores_)
                committed += core->committed();
            if (committed != lastCommitTotal) {
                lastCommitTotal = committed;
                lastCommitCycle = cycle_;
            } else if (cycle_ - lastCommitCycle >=
                       cfg_.check.commitWatchdogCycles) {
                std::string dump;
                for (std::uint32_t c = 0; c < dram_->numChannels(); ++c)
                    dump += formatSnapshot(
                        dram_->channel(c).snapshot(dramCycle_));
                throw CheckViolation(Violation{
                    RuleId::Watchdog, 0, dramCycle_,
                    "no core committed for " +
                        std::to_string(cycle_ - lastCommitCycle) +
                        " CPU cycles; channel snapshots:\n" + dump});
            }
        }

        allDone = allFinished();
        // The loop exits before ticking again once every core is
        // finished; skipping here would overrun that exit cycle.
        if (skip && !allDone)
            fastForward(limit, pollBounded);
    }
}

} // namespace critmem

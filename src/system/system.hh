/**
 * @file
 * Top-level simulated system: N cores driving a shared cache
 * hierarchy and the DDR3 subsystem, with the 4.27 GHz core clock and
 * the DRAM bus clock crossed through a fractional accumulator.
 */

#ifndef CRITMEM_SYSTEM_SYSTEM_HH
#define CRITMEM_SYSTEM_SYSTEM_HH

// lint:allow-file(clock-domain): System is where the CPU clock and the
// DRAM bus clock advance together (the busMHz/freqMHz accumulator).

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "check/protocol_checker.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "mem/hierarchy.hh"
#include "sched/registry.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace critmem
{

/** A complete CMP + memory system instance. */
class System
{
  public:
    /**
     * Parallel-workload system: every core runs one thread of @p app.
     */
    System(const SystemConfig &cfg, const AppParams &app);

    /**
     * Multiprogrammed system: core i runs @p perCore[i] alone in a
     * disjoint address space. An empty name leaves that core idle.
     */
    System(const SystemConfig &cfg,
           const std::vector<AppParams> &perCore);

    /**
     * Trace-backed system: core i replays its slice of the workload's
     * external trace file (scanned by scanTraceWorkload).
     * cfg.numCores must match the trace's declared core count.
     * The delivered-record counter appears under the "trace" stats
     * group. @throws TraceError when the file fails to decode.
     */
    System(const SystemConfig &cfg, const TraceWorkload &trace);

    /**
     * Run until every active core commits @p quotaPerCore micro-ops.
     *
     * @param quotaPerCore Commit quota per core.
     * @param stopAtQuota True (parallel methodology): cores stop
     *        fetching at the quota and the returned cycle count is the
     *        completion time. False (multiprogrammed methodology):
     *        cores keep running for contention until all reach the
     *        quota; per-core IPCs come from finishCycle().
     * @param maxCycles Safety limit (0 = quota * 4000 + 10M cycles).
     *        A run that reaches it stops with a warning and sets
     *        hitCycleLimit().
     * @return total cycles elapsed.
     */
    Cycle run(std::uint64_t quotaPerCore, bool stopAtQuota = true,
              Cycle maxCycles = 0);

    /**
     * @return true once any run() on this System stopped at its
     *         safety cycle limit before every core finished: the
     *         statistics describe a truncated run.
     */
    bool hitCycleLimit() const { return hitCycleLimit_; }

    /**
     * Prefill the shared L2 with lines drawn from the threads' far
     * regions — the steady-state resident set a long-running program
     * would have built — so that capacity evictions and dirty
     * writebacks behave realistically from the first measured cycle.
     *
     * @param fillFrac Fraction of L2 lines to populate.
     * @param dirtyFrac Probability a prefilled line is dirty.
     */
    void prewarmCaches(double fillFrac, double dirtyFrac);

    /** 90% of the L2, dirty at SystemConfig::prewarmDirtyFrac. */
    void prewarmCaches() { prewarmCaches(0.9, cfg_.prewarmDirtyFrac); }

    /**
     * Close the warmup window: zero every statistic and restart the
     * cores' commit quotas, keeping all microarchitectural state
     * (caches, predictors, row buffers) warm.
     */
    void resetStatsWindow();

    /** Cycles elapsed since the last resetStatsWindow() (or start). */
    Cycle windowCycles() const { return cycle_ - windowStart_; }

    /** First cycle of the current measurement window. */
    Cycle windowStart() const { return windowStart_; }

    Core &core(std::uint32_t i) { return *cores_[i]; }
    const Core &core(std::uint32_t i) const { return *cores_[i]; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    MemHierarchy &hierarchy() { return *hier_; }
    DramSystem &dram() { return *dram_; }
    Scheduler &scheduler() { return *sched_; }

    /** The attached checker, or nullptr when checking is disabled. */
    ProtocolChecker *checker() { return checker_.get(); }

    /**
     * End-of-run validation: conservation + refresh-deadline checks
     * and the stats cross-check. No-op when checking is disabled.
     * @param requireDrained Report still-outstanding requests as lost.
     */
    void finalizeChecks(bool requireDrained = true);

    /**
     * Cooperative cancellation: run() polls @p flag every 1024 cycles
     * and, when it becomes true, throws CheckViolation carrying the
     * per-channel diagnostics snapshots — the same dump the commit
     * watchdog produces, so a wall-clock-stuck job explains itself.
     * The execution engine's per-job timeout and graceful-shutdown
     * drain deadline are built on this hook. nullptr disables it.
     */
    void setAbortFlag(const std::atomic<bool> *flag)
    {
        abortFlag_ = flag;
    }
    stats::Group &statsRoot() { return root_; }
    const stats::Group &statsRoot() const { return root_; }
    const SystemConfig &config() const { return cfg_; }
    Cycle cycle() const { return cycle_; }
    /** Last DRAM cycle ticked (or skipped to). */
    DramCycle dramCycle() const { return dramCycle_; }

  private:
    void buildShared();
    void build(const std::vector<AppParams> &perCore, bool parallel);
    void buildTrace(const TraceWorkload &trace);
    void tickOnce();

    /**
     * Event-driven cycle skipping: ask every component for its next
     * event cycle and, when the earliest one is more than a cycle
     * away, bulk-advance the clocks (and per-cycle statistics) to the
     * cycle just before it. @p limit caps the skip at the run()'s
     * safety bound; @p pollBounded additionally caps it at the next
     * 1024-cycle abort/commit-watchdog poll boundary so those polls
     * fire on exactly the cycles they would have without skipping.
     */
    void fastForward(Cycle limit, bool pollBounded);

    /** The body of run(): tick/poll/fast-forward until done. */
    void runLoop(Cycle limit, bool skip, bool pollBounded,
                 bool watchCommits);

    /** Record counter for trace-backed systems ("trace" group). */
    struct TraceStats
    {
        explicit TraceStats(stats::Group &parent)
            : group("trace", &parent),
              records(group, "records",
                      "micro-ops delivered from the trace file")
        {
        }

        stats::Group group;
        stats::Scalar records;
    };

    SystemConfig cfg_;
    stats::Group root_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<ProtocolChecker> checker_;
    std::unique_ptr<ScriptedFaultInjector> injector_;
    std::unique_ptr<MemHierarchy> hier_;
    std::unique_ptr<TraceStats> traceStats_;
    std::vector<std::unique_ptr<TraceGenerator>> gens_;
    std::vector<std::unique_ptr<Core>> cores_;

    const std::atomic<bool> *abortFlag_ = nullptr;

    /**
     * Per-core cached nextEventCycle() bounds for lazy core ticking:
     * while fast-forwarding is enabled, tickOnce() skips any core
     * whose bound is still in the future and that no returning
     * miss has poked; the core replays the skipped window's
     * accounting (Core::skipTo) when it next ticks.
     */
    std::vector<Cycle> coreNext_;
    bool lazyTick_ = false;

    Cycle cycle_ = 0;
    Cycle windowStart_ = 0;
    bool hitCycleLimit_ = false;
    std::uint64_t dramAccum_ = 0;
    DramCycle dramCycle_ = 0;
};

} // namespace critmem

#endif // CRITMEM_SYSTEM_SYSTEM_HH

/**
 * @file
 * Cycle-level simplified out-of-order core (Table 1).
 *
 * The core consumes a TraceGenerator's dependence-annotated micro-op
 * stream and models the structures that matter to the paper's
 * mechanism: a finite ROB with in-order dispatch/commit, issue queues
 * and a functional-unit pool, load/store queues with store-to-load
 * forwarding (perfect disambiguation, per Table 1), a bounded number
 * of unresolved branches with a fixed misprediction redirect penalty,
 * and — crucially — detection and timing of loads that block the ROB
 * head, feeding the Commit Block Predictor.
 *
 * Deliberate simplifications (documented in DESIGN.md): wrong-path
 * instructions are not fetched (a mispredicted branch instead blocks
 * the front end until it resolves plus the redirect penalty), and
 * register renaming is abstracted by the generator's dependence
 * distances.
 */

#ifndef CRITMEM_CPU_CORE_HH
#define CRITMEM_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "crit/cbp.hh"
#include "crit/clpt.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"
#include "trace/generator.hh"

namespace critmem
{

/** One out-of-order core. */
class Core : private MemClient
{
  public:
    /**
     * Attaches itself to @p mem as core @p id's MemClient.
     * @param cfg Whole-system configuration (core + crit sections).
     * @param id This core's id.
     * @param gen Micro-op source; must outlive the core.
     * @param mem Shared memory hierarchy; must outlive the core.
     * @param parent Statistics parent.
     */
    Core(const SystemConfig &cfg, CoreId id, TraceGenerator &gen,
         MemHierarchy &mem, stats::Group &parent);

    /** Stop fetching new micro-ops after this many commits. */
    void setQuota(std::uint64_t instructions) { quota_ = instructions; }

    /**
     * When false, the core keeps executing past its quota (the
     * multiprogrammed methodology: the bundle runs until every
     * application has committed its measurement window, but each
     * application's IPC uses only its own first-quota instructions).
     */
    void setStopAtQuota(bool stop) { stopAtQuota_ = stop; }

    /** Advance one CPU cycle. */
    void tick(Cycle now);

    /**
     * Earliest CPU cycle > @p now at which tick() could do anything
     * besides deterministic idle accounting (cycle/stall counters):
     * a completion (an FU op, a forwarded load or an L1 hit), the
     * fetch-redirect resume, a CBP reset, or "next cycle" whenever
     * the core has actionable work (ready ops, stores to drain, a
     * committable or about-to-block ROB head, an unblocked front
     * end). kNoCycle for an inactive or fully quiescent core. Misses
     * return through MemHierarchy events and are bounded by its
     * nextEventCycle, not this one.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Bulk-apply the per-cycle idle accounting tick() would have done
     * for every cycle in (now_, to]: the cycle counter, the blocked
     * ROB-head stall counter, and the dispatch stall counter the
     * front end is deterministically pinned on. Only legal when
     * to < nextEventCycle(now_).
     */
    void skipTo(Cycle to);

    /**
     * True when a returning miss has touched core state since the
     * last tick() — the signal that a lazily-skipped core must tick
     * on the current cycle regardless of its cached nextEventCycle().
     */
    bool poked() const { return poked_; }
    void clearPoked() { poked_ = false; }

    /** Committed instruction count. */
    std::uint64_t committed() const { return stats_.committedOps.value(); }

    /**
     * Deactivate the core entirely (used to run an application
     * "alone" for weighted-speedup baselining). An inactive core
     * never ticks and always reports finished.
     */
    void setActive(bool active) { active_ = active; }

    bool active() const { return active_; }

    /** @return true once the commit quota has been reached. */
    bool
    finished() const
    {
        return !active_ || (quota_ != 0 && committed() >= quota_);
    }

    /** Cycle at which the quota was reached (kNoCycle if not yet). */
    Cycle finishCycle() const { return finishCycle_; }

    /**
     * Start a fresh measurement window after a warmup run: the commit
     * quota counts from zero again (statistics are reset separately
     * via the stats tree). Predictor state is deliberately kept warm.
     */
    void
    resetWindow()
    {
        fetched_ = 0;
        finishCycle_ = kNoCycle;
    }

    /** @return true when no instruction is in flight. */
    bool drained() const { return robCount_ == 0 && storeDrain_.empty(); }

    /** Per-core statistics. */
    struct Stats
    {
        Stats(stats::Group &parent, CoreId id);

        stats::Group group;
        stats::Scalar cycles;
        stats::Scalar committedOps;
        stats::Scalar committedLoads;
        stats::Scalar committedStores;
        stats::Scalar committedBranches;
        stats::Scalar mispredicts;
        stats::Scalar blockingLoads;
        stats::Scalar robHeadBlockedCycles;
        stats::Scalar robFullCycles;
        stats::Scalar lqFullCycles;
        stats::Scalar sqFullCycles;
        stats::Scalar iqFullCycles;
        stats::Scalar branchLimitCycles;
        stats::Scalar loadsIssued;
        stats::Scalar loadsForwarded;
        stats::Scalar critLoadsIssued;
        stats::Scalar loadRetries;
        stats::Histogram headStallLength;
    };

    const Stats &coreStats() const { return stats_; }

    /** The core's commit block predictor (null unless configured). */
    const CommitBlockPredictor *cbp() const { return cbp_.get(); }

    /** The core's CLPT (null unless configured). */
    const Clpt *clpt() const { return clpt_.get(); }

  private:
    enum class EntryState : std::uint8_t
    {
        Waiting,  ///< operands outstanding
        Ready,    ///< may issue when an FU/port is free
        Issued,   ///< executing / memory access in flight
        Complete, ///< may commit when it reaches the head
    };

    /**
     * A wakeup link names one source operand of a waiting consumer:
     * (ROB index << 1) | source slot. A producer's waiters form an
     * intrusive list threaded through the consumers' nextWaiter[].
     */
    static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

    struct RobEntry
    {
        MicroOp op;
        std::uint64_t stallCycles = 0;
        std::uint32_t consumers = 0; ///< direct consumers (CLPT)
        std::uint32_t firstWaiter = kNoLink; ///< consumers to wake
        std::uint32_t nextWaiter[2] = {kNoLink, kNoLink}; ///< per source
        EntryState state = EntryState::Waiting;
        std::uint8_t srcsPending = 0;
        bool isFp = false;
        bool blocked = false;       ///< has blocked the ROB head
    };
    static_assert(sizeof(RobEntry) <= 64, "one ROB entry per cache line");

    std::uint32_t robIndex(SeqNum seq) const
    {
        return static_cast<std::uint32_t>(seq & robMask_);
    }

    RobEntry &entryOf(SeqNum seq) { return rob_[robIndex(seq)]; }
    const RobEntry &entryOf(SeqNum seq) const
    {
        return rob_[robIndex(seq)];
    }

    /**
     * What dispatchStage() would do this cycle if the front end's
     * time gate (fetchResumeAt_) is open: real work (Busy), nothing
     * at all (Idle: quota reached, iL1 miss pending, or an unresolved
     * mispredict), or a deterministic structural stall that bumps one
     * stall counter per cycle until an event frees the resource.
     */
    enum class DispatchState : std::uint8_t
    {
        Busy,
        Idle,
        RobFull,
        IqFull,
        LqFull,
        SqFull,
        BranchLimit,
    };

    DispatchState dispatchState() const;

    /**
     * A load, store or fetch miss returned. First replays the idle
     * accounting up to the cycle before the delivering event (while
     * the pre-completion state the skipped window saw is still
     * intact) and flags the core for a real tick this cycle; then
     * complete() applies it.
     */
    void memDone(MemToken token) override;

    /**
     * Apply one completion: a Load token completes ROB entry
     * token.value, whatever its class (a branch also resolves); a
     * Store frees its SQ slot; a Fetch unblocks the front end.
     */
    void complete(MemToken token, Cycle now);

    void commitStage(Cycle now);
    void completeStage(Cycle now);
    void issueStage(Cycle now);
    void drainStores(Cycle now);
    void dispatchStage(Cycle now);

    void markReady(std::uint32_t idx);
    void markComplete(RobEntry &entry);
    /** @return false when the hierarchy rejected the load. */
    bool issueLoad(const RobEntry &entry, SeqNum seq, Cycle now);
    /** Schedule ROB entry @p seq's completion at @p at. */
    void
    completeAt(Cycle at, SeqNum seq)
    {
        fuCompletions_.push(at, MemToken{MemToken::Kind::Load, seq});
    }
    /** Issue slots per cycle, one per OpClass (FUs or ports). */
    static constexpr std::size_t kOpClasses =
        static_cast<std::size_t>(OpClass::Branch) + 1;
    using PortBudget = std::array<std::uint32_t, kOpClasses>;
    /**
     * Issue the Ready entry in slot @p idx if its class has a port
     * left in @p ports this cycle.
     * @return false when it stays Ready.
     */
    bool tryIssue(std::uint32_t idx, SeqNum seq, PortBudget &ports,
                  Cycle now);
    CritLevel criticalityOf(const MicroOp &op) const;

    SystemConfig cfg_;
    const CoreId id_;
    TraceGenerator &gen_;
    MemHierarchy &mem_;

    /**
     * A ring of bit_ceil(robEntries) slots indexed by seq & robMask_;
     * robCount_ against robEntries, not the ring size, bounds it.
     */
    std::vector<RobEntry> rob_;
    SeqNum robMask_;
    SeqNum headSeq_ = 0;
    SeqNum nextSeq_ = 0;
    std::uint32_t robCount_ = 0;

    std::uint32_t intIqCount_ = 0;
    std::uint32_t fpIqCount_ = 0;
    std::uint32_t lqCount_ = 0;
    std::uint32_t sqCount_ = 0;
    std::uint32_t unresolvedBranches_ = 0;

    /** Committed stores awaiting their dL1 write. */
    std::queue<Addr> storeDrain_;
    /**
     * Store addresses (8B-aligned) visible for forwarding, with their
     * in-flight store count; at most sqEntries keys.
     */
    FlatMap<std::uint32_t> pendingStoreAddrs_;

    /**
     * Completions the core times itself, by cycle: FU ops and
     * forwarded loads (Load tokens naming the ROB entry) and dL1 load
     * and store hits. The ring grows to the longest latency pushed
     * (at most 255).
     */
    TimingWheel<MemToken> fuCompletions_{1};

    /**
     * One bit per ROB slot, set while the entry is Ready. Ring order
     * from the head slot is age order, so issueStage() selects
     * oldest-first by walking the set bits from there.
     */
    std::vector<std::uint64_t> readyBits_;
    std::uint32_t readyCount_ = 0;
    PortBudget portBudget_;

    /** Front-end state. */
    Cycle fetchResumeAt_ = 0;
    SeqNum redirectBranch_ = ~SeqNum{0}; ///< unresolved mispredict
    bool fetchBlockedOnIcache_ = false;
    Addr fetchedBlock_ = kNoAddr;
    MicroOp pendingOp_;
    bool hasPendingOp_ = false;

    std::uint64_t quota_ = 0;
    std::uint64_t fetched_ = 0;
    bool stopAtQuota_ = true;
    bool active_ = true;
    bool poked_ = false;
    Cycle finishCycle_ = kNoCycle;
    Cycle now_ = 0;

    std::unique_ptr<CommitBlockPredictor> cbp_;
    std::unique_ptr<Clpt> clpt_;

    Stats stats_;
};

} // namespace critmem

#endif // CRITMEM_CPU_CORE_HH

/**
 * @file
 * One DDR3 channel: transaction queues, per-bank/rank timing state,
 * refresh engine, candidate generation and command issue.
 */

#ifndef CRITMEM_DRAM_CHANNEL_HH
#define CRITMEM_DRAM_CHANNEL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dram/command.hh"
#include "dram/observer.hh"
#include "mem/request.hh"
#include "sched/scheduler.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"

namespace critmem
{

/**
 * Timing state of every bank in a channel, stored struct-of-arrays:
 * one contiguous ready-time vector per command kind, indexed by
 * rank * banksPerRank + bank. The readyX vectors hold the earliest
 * DRAM cycle the bank's own windows admit command X (tRC/tRP/tRFC for
 * ACT, tRCD for a CAS, tRAS/tRTP/tWR for PRE); the windows a command
 * puts on its whole rank live in RankState. The effective ready cycle
 * is the max of the two. A bank's values change only when a command
 * issues to it or the refresh engine acts on it; DramChannel caches
 * every queued transaction's bank part between those changes.
 */
struct BankTimingSoA
{
    explicit BankTimingSoA(std::size_t n)
        : open(n, 0), row(n, 0), readyAct(n, 0), readyRead(n, 0),
          readyWrite(n, 0), readyPre(n, 0)
    {
    }

    std::size_t size() const { return open.size(); }

    std::vector<std::uint8_t> open;
    std::vector<std::uint64_t> row;
    std::vector<DramCycle> readyAct;
    std::vector<DramCycle> readyRead;
    std::vector<DramCycle> readyWrite;
    std::vector<DramCycle> readyPre;
};

/** Refresh, activate-window and rank-wide CAS bookkeeping of a rank. */
struct RankState
{
    DramCycle refreshDue = 0;  ///< next tREFI deadline
    bool refreshPending = false;
    /**
     * Issue times of the last four ACTs to this rank (tFAW sliding
     * window); actHead points at the oldest slot. 0 means "never"
     * (the DRAM clock starts at cycle 1).
     */
    std::array<DramCycle, 4> actTimes{};
    std::uint32_t actHead = 0;
    /** tRRD: the earliest cycle any bank of the rank may ACT. */
    DramCycle readyAct = 0;
    /** tCCD / write-to-read turnaround for a read to any bank. */
    DramCycle readyRead = 0;
    /** tCCD / read-to-write turnaround for a write to any bank. */
    DramCycle readyWrite = 0;

    /** Record an ACT issued to this rank at @p now. */
    void
    recordAct(DramCycle now)
    {
        actTimes[actHead] = now;
        actHead = (actHead + 1) % actTimes.size();
    }

    /**
     * Earliest cycle tFAW admits another ACT: a fifth waits until the
     * oldest of the last four is @p tFAW old (an empty slot admits).
     */
    DramCycle
    fawReady(DramCycle tFAW) const
    {
        const DramCycle oldest = actTimes[actHead];
        return oldest == 0 ? 0 : oldest + tFAW;
    }
};

/**
 * A DDR3 channel with its own command/address/data buses.
 *
 * Scheduling protocol per DRAM cycle:
 *  1. The refresh engine runs first; when a refresh is due it owns the
 *     command bus (issuing PREs then REF) until the rank is clean.
 *  2. Otherwise all immediately-issuable commands are gathered and the
 *     scheduler picks one (or idles).
 *
 * By default (the paper's Table 3 controller) reads and writebacks
 * share one unified 64-entry transaction queue and arbitrate
 * together. DramConfig::unifiedQueue = false switches to a modern
 * split write buffer drained in bursts under a high/low watermark.
 * DramConfig::closedPage enables CAS-with-auto-precharge when no
 * other queued transaction wants the open row.
 */
class DramChannel
{
  public:
    DramChannel(const DramConfig &cfg, std::uint32_t id,
                Scheduler &sched, stats::Group &parent);

    /**
     * @return true when a transaction of @p type would be accepted:
     *         its queue (the shared one under unifiedQueue) has a
     *         free entry. Only issuing a CAS frees an entry.
     */
    bool hasRoom(ReqType type) const;

    /**
     * Try to append a transaction.
     * @return false (counted in enqueueRejects) when !hasRoom(type).
     */
    bool enqueue(MemRequest req, const DramCoord &coord, DramCycle now);

    /** Advance one DRAM cycle: completions, refresh, scheduling. */
    void tick(DramCycle now);

    /**
     * Earliest DRAM cycle > the last ticked cycle at which tick()
     * could do anything besides static idle accounting: a completion
     * popping, a refresh action (or a rank crossing its tREFI
     * deadline), a queued transaction's timing window opening (the
     * cached per-queue minimum buildCandidates() admits against), or
     * the forward-progress watchdog tripping. Returns kNoCycle when the
     * channel is fully drained and no refresh is on the horizon.
     * With a fault injector attached every cycle is an event (faults
     * are probed per tick), so skipping is disabled.
     *
     * Contract: for every cycle t in (now, nextEventCycle(now)),
     * tick(t) would only have resampled the occupancy statistics,
     * bumped idleNoCandidate, and refreshed lastProgress_/lastTick_
     * — exactly what skipTo() replays in bulk.
     */
    DramCycle nextEventCycle(DramCycle now) const;

    /**
     * Bulk-apply the idle per-cycle accounting for every skipped
     * cycle in (lastTick_, to]: occupancy samples, idleNoCandidate,
     * and the lastProgress_/lastTick_ bookkeeping. Only legal when
     * to < nextEventCycle(lastTick_).
     */
    void skipTo(DramCycle to);

    /**
     * Raise the criticality of a queued read to @p crit if the request
     * from @p core for @p addr is still waiting (Section 5.1 naive
     * forwarding path).
     * @return true when a matching queued read was found.
     */
    bool promote(Addr addr, CoreId core, CritLevel crit);

    /** @return number of queued (not yet CAS-issued) reads. */
    std::uint32_t readQueueSize() const
    {
        return static_cast<std::uint32_t>(readQ_.size());
    }

    std::uint32_t writeQueueSize() const
    {
        return static_cast<std::uint32_t>(writeQ_.size());
    }

    /** @return true when no work remains anywhere in the channel. */
    bool
    idle() const
    {
        return readQ_.empty() && writeQ_.empty() && completions_.empty();
    }

    /**
     * Attach a passive observer notified of every enqueue, command,
     * completion, promotion and watchdog trip. Pass nullptr to detach;
     * the observer must outlive its attachment. With queued work and
     * no command issued or completion popped for @p watchdogCycles
     * DRAM cycles, the channel reports a stall (0 disables).
     */
    void setObserver(ChannelObserver *observer,
                     std::uint64_t watchdogCycles = 0)
    {
        observer_ = observer;
        watchdogCycles_ = watchdogCycles;
    }

    /** Attach a fault injector (nullptr = honest channel). */
    void setFaultInjector(FaultInjector *inj) { injector_ = inj; }

    /**
     * Hand every finished read and prefetch to @p listener (nullptr
     * detaches); it must outlive its attachment.
     */
    void setFillListener(FillListener *listener) { fill_ = listener; }

    /** Capture a diagnostic snapshot of all channel state. */
    ChannelSnapshot snapshot(DramCycle now) const;

    /** Statistics for this channel. */
    struct Stats
    {
        explicit Stats(stats::Group &parent, std::uint32_t id);

        stats::Group group;
        stats::Scalar activates;
        stats::Scalar reads;
        stats::Scalar writes;
        stats::Scalar precharges;
        stats::Scalar refreshes;
        stats::Scalar rowHits;
        stats::Scalar rowMisses;
        stats::Scalar rowConflicts;
        stats::Scalar busyDataCycles;
        stats::Scalar idleNoCandidate;
        stats::Scalar enqueueRejects;
        stats::Scalar autoPrecharges;
        stats::Histogram readLatency;
        stats::Average readQueueOcc;
        stats::Average critInQueue;
    };

    const Stats &channelStats() const { return stats_; }

    /** bankReady() evaluations so far: a work counter, not a stat. */
    std::uint64_t readinessEvals() const { return readinessEvals_; }

  private:
    /**
     * The command a queued transaction wants under the current bank
     * state, and the earliest DRAM cycle its bank's own windows admit
     * that command. The full ready cycle also takes the rank/channel
     * part, rankReady_[rank][cmd] (without the injector's EarlyCas
     * slack, which buildCandidates() subtracts from row-hit CASes).
     */
    struct TxnReady
    {
        DramCmd cmd;
        bool rowHit;
        DramCycle bankAt;
    };

    struct Transaction
    {
        MemRequest req;
        DramCoord coord;
        DramCycle arrival = 0;
        /**
         * bankReady() of this entry; current while its bank is not
         * stale and its rank has no refresh pending.
         */
        mutable TxnReady ready{};
    };

    /** A CAS-issued transaction waiting for its data burst to end. */
    struct Completion
    {
        MemRequest req;
        DramCycle arrival;
    };

    std::uint32_t bankIdx(std::uint32_t rank, std::uint32_t bank) const
    {
        return rank * cfg_.banksPerRank + bank;
    }

    /** The bank part of a transaction's readiness: one evaluation. */
    TxnReady bankReady(const DramCoord &coord, bool isWrite) const;

    /** Full ready cycle of @p trans: its bank part and rank part. */
    DramCycle
    readyAt(const Transaction &trans) const
    {
        return std::max(
            trans.ready.bankAt,
            rankReady_[trans.coord.rank]
                      [static_cast<std::size_t>(trans.ready.cmd)]);
    }

    /** Recompute rankReady_ from the rank and data-bus state. */
    void updateRankReady();

    /** A command or the refresh engine changed bank @p bi. */
    void
    markBankStale(std::uint32_t bi)
    {
        bankStale_[bi] = 1;
        readyStale_ = true;
    }

    /**
     * One in-order walk of @p queue: re-evaluate the bank part of
     * every entry whose bank is stale, and return the earliest full
     * ready cycle over the entries whose rank has no refresh pending.
     * With @p out, also append every entry issuable at @p now (the
     * EarlyCas @p slack taken off row-hit CASes) to it as a candidate.
     */
    DramCycle walk(const std::vector<Transaction> &queue, bool isWrite,
                   DramCycle now, std::uint32_t slack,
                   std::vector<SchedCandidate> *out) const;

    /**
     * Bring every cached readiness value and both minima up to date
     * without gathering candidates (nextEventCycle()'s pass).
     */
    void refreshReady() const;

    /** The write-drain watermark decision for the current queue sizes. */
    bool writesEligible() const;

    /** Earliest cycle a CAS to (rank) could start its data burst. */
    DramCycle dataBusFreeFor(std::uint32_t rank) const;

    /** Handle due refreshes; @return true when the bus was consumed. */
    bool refreshTick(DramCycle now);

    /** Report a stall when the forward-progress bound is exceeded. */
    void checkWatchdog(DramCycle now);

    /** Gather this cycle's candidates into cands_ (one fused walk). */
    void buildCandidates(DramCycle now);
    void maybeAutoPrecharge(const DramCoord &coord, DramCycle now);
    void issue(const SchedCandidate &cand, DramCycle now);
    void applyRead(const DramCoord &c, DramCycle now);
    void applyWrite(const DramCoord &c, DramCycle now);
    void popCompletions(DramCycle now);

    const DramConfig &cfg_;
    const std::uint32_t id_;
    Scheduler &sched_;

    BankTimingSoA banks_;
    std::vector<RankState> ranks_;
    std::vector<Transaction> readQ_;
    std::vector<Transaction> writeQ_;
    /** In-flight bursts, due in (end cycle, CAS issue) order. */
    TimingWheel<Completion> completions_;
    std::vector<SchedCandidate> cands_;

    /** End (exclusive) of the latest scheduled data burst. */
    DramCycle busFreeAt_ = 0;
    std::uint32_t lastBusRank_ = 0;
    bool draining_ = false;

    ChannelObserver *observer_ = nullptr;
    std::uint64_t watchdogCycles_ = 0;
    FaultInjector *injector_ = nullptr;
    FillListener *fill_ = nullptr;
    /** Last cycle this channel issued, completed, or was work-free. */
    DramCycle lastProgress_ = 0;
    /** Most recent tick() cycle (timestamps promote() events). */
    DramCycle lastTick_ = 0;

    /** Queued reads with crit > 0 (the critInQueue sample). */
    std::uint32_t critQueued_ = 0;
    /**
     * Rank/channel part of readiness per rank, indexed by DramCmd:
     * tRRD and tFAW for ACT, the rank-wide CAS windows plus the data
     * bus and tRTRS for RD/WR, 0 for PRE. Updated after every ACT/CAS.
     */
    std::vector<std::array<DramCycle, 4>> rankReady_;
    /** Per bank: its entries' cached TxnReady may be out of date. */
    mutable std::vector<std::uint8_t> bankStale_;
    /** Some bank is stale, or the minima below are out of date. */
    mutable bool readyStale_ = false;
    /** Earliest ready cycle per queue, refresh-pending ranks aside. */
    mutable DramCycle minRead_ = kNoCycle;
    mutable DramCycle minWrite_ = kNoCycle;
    mutable std::uint64_t readinessEvals_ = 0;

    Stats stats_;
};

} // namespace critmem

#endif // CRITMEM_DRAM_CHANNEL_HH

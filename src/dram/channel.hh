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
 * the bank part of each of its readiness classes between those
 * changes.
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
     * earliest ready cycle over its queue's classes), or
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

    /**
     * Queue entries read while building candidates and the
     * nextEventCycle() minima: a work counter, not a stat.
     */
    std::uint64_t entriesRead() const { return entriesRead_; }

  private:
    /**
     * The bank part of readiness of every class of a bank's queued
     * transactions, computed by bankReady(): a row hit wants a CAS
     * (hitAt, per queue), every other entry wants missCmd (ACT on a
     * closed bank, PRE on an open one) at missAt. A class's full ready
     * cycle is the max with its rank part, rankReady_[rank][cmd].
     */
    struct BankReady
    {
        std::array<DramCycle, 2> hitAt{}; ///< indexed by queue
        DramCycle missAt = 0;
        DramCmd missCmd = DramCmd::Act;
        std::uint32_t rank = 0;
    };

    /**
     * One queue's entries of one bank as bits of their queue
     * positions (bit i = queue[i]), and the subset that hits the
     * bank's open row (always empty while the bank is closed).
     */
    struct BankEntries
    {
        std::uint64_t all = 0;
        std::uint64_t hit = 0;
    };

    /**
     * scan()'s result for one queue: its entries issuable this cycle,
     * as position bits, and its earliest full ready cycle.
     */
    struct QueueScan
    {
        std::uint64_t hit = 0;  ///< row-hit CASes
        std::uint64_t miss = 0; ///< ACTs and PREs
        DramCycle earliest = kNoCycle;
    };

    struct Transaction
    {
        MemRequest req;
        DramCoord coord;
        DramCycle arrival = 0;
    };

    /** A CAS-issued transaction waiting for its data burst to end. */
    struct Completion
    {
        MemRequest req;
        DramCycle arrival;
    };

    /** A cycle per DramCmd (Act, Read, Write, Pre). */
    using CmdCycles = std::array<DramCycle, 4>;

    /** Index of a queue in entries_: reads 0, writes 1. */
    static constexpr std::size_t kReadQ = 0;
    static constexpr std::size_t kWriteQ = 1;

    std::uint32_t bankIdx(std::uint32_t rank, std::uint32_t bank) const
    {
        return rank * cfg_.banksPerRank + bank;
    }

    std::vector<Transaction> &queue(std::size_t q)
    {
        return q == kWriteQ ? writeQ_ : readQ_;
    }

    /**
     * Re-evaluate bank @p bi's BankReady: after every command to it
     * and every refresh PRE or REF that touches it.
     */
    void bankReady(std::uint32_t bi);

    /**
     * Recompute rankReady_ from the rank and data-bus state; a rank
     * with a refresh pending gets kNoCycle for every command.
     */
    void updateRankReady();

    /** The CAS a row hit in queue @p q wants, as a CmdCycles index. */
    static constexpr std::size_t
    casCmd(std::size_t q)
    {
        return static_cast<std::size_t>(q == kWriteQ ? DramCmd::Write
                                                     : DramCmd::Read);
    }

    /**
     * Each queue's entries issuable at @p now (row hits @p slack
     * cycles early) and its earliest ready cycle, ranks with a refresh
     * pending skipped: one pass over the banks that hold entries of
     * either queue, three max and four compares per bank, and no queue
     * entry read.
     */
    std::array<QueueScan, 2> scan(DramCycle now, std::uint32_t slack) const;

    /** Bring earliest_ up to date after a command or refresh action. */
    void refreshEarliest() const;

    /**
     * Append queue @p q's entries in @p ready to cands_, in queue
     * order; each is asked starveCore() first.
     */
    void emitCandidates(std::size_t q, const QueueScan &ready);

    /** Set bank @p bi's hit bits from its entries' rows (after ACT). */
    void markRowHits(std::uint32_t bi);

    /** Clear bank @p bi's hit bits (the bank closed). */
    void clearRowHits(std::uint32_t bi);

    /**
     * Remove queue @p q's entry at @p pos (its CAS issued) and shift
     * the bits above @p pos down one in every bank holding entries.
     * @return the entry.
     */
    Transaction eraseEntry(std::size_t q, std::uint32_t pos);

    /** The write-drain watermark decision for the current queue sizes. */
    bool writesEligible() const;

    /** Earliest cycle a CAS to (rank) could start its data burst. */
    DramCycle dataBusFreeFor(std::uint32_t rank) const;

    /** Handle due refreshes; @return true when the bus was consumed. */
    bool refreshTick(DramCycle now);

    /** Report a stall when the forward-progress bound is exceeded. */
    void checkWatchdog(DramCycle now);

    /** Gather this cycle's candidates into cands_. */
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
     * bus and tRTRS for RD/WR, 0 for PRE; kNoCycle for every command
     * while the rank's refresh is pending. Updated after every ACT/CAS
     * and when a refresh goes pending or its REF issues.
     */
    std::vector<CmdCycles> rankReady_;
    /** Per bank: the bank part of each class (bankReady()). */
    std::vector<BankReady> bankReady_;
    /** Per queue, per bank: its entries' queue positions. */
    std::array<std::vector<BankEntries>, 2> entries_;
    /** Per queue: one bit per bank holding at least one entry. */
    std::array<std::vector<std::uint64_t>, 2> occupied_;
    /**
     * Per queue: the earliest ready cycle over its classes, lowered by
     * each arrival, so an idle tick and nextEventCycle() cost one
     * compare. A command or refresh action sets earliestStale_, and the
     * next candidate build (or nextEventCycle()) takes the minima from
     * its scan instead of a pass of their own.
     */
    mutable std::array<DramCycle, 2> earliest_{kNoCycle, kNoCycle};
    mutable bool earliestStale_ = false;
    std::uint64_t readinessEvals_ = 0;
    std::uint64_t entriesRead_ = 0;

    Stats stats_;
};

} // namespace critmem

#endif // CRITMEM_DRAM_CHANNEL_HH

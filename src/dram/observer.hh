/**
 * @file
 * Passive instrumentation and fault-injection interfaces of a DRAM
 * channel.
 *
 * A ChannelObserver shadows everything a channel does — enqueues,
 * issued commands, completions, criticality promotions, watchdog
 * trips — without being able to influence scheduling. The protocol
 * invariant checker (src/check/) is the canonical implementation.
 *
 * A FaultInjector is the opposite: it deliberately corrupts channel
 * behaviour so that tests can prove each checker rule actually fires.
 * The default implementation injects nothing.
 */

#ifndef CRITMEM_DRAM_OBSERVER_HH
#define CRITMEM_DRAM_OBSERVER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/command.hh"
#include "mem/request.hh"
#include "sim/types.hh"

namespace critmem
{

class DramChannel;

/**
 * Point-in-time diagnostic state of one channel, dumped by the
 * forward-progress watchdog when a stall or violation is reported.
 */
struct ChannelSnapshot
{
    struct QueueEntry
    {
        Addr addr = 0;
        ReqType type = ReqType::Read;
        CoreId core = 0;
        CritLevel crit = 0;
        DramCycle arrival = 0;
        std::uint64_t id = 0;
        DramCoord coord;
    };

    /** readyX: the effective window, the max of bank and rank. */
    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        DramCycle readyAct = 0;
        DramCycle readyRead = 0;
        DramCycle readyWrite = 0;
        DramCycle readyPre = 0;
    };

    struct Rank
    {
        DramCycle refreshDue = 0;
        bool refreshPending = false;
        /** The tFAW window: the last four ACT times, oldest first. */
        std::array<DramCycle, 4> lastActs{};
        /** Rank-wide windows (tRRD; tCCD and turnarounds). */
        DramCycle readyAct = 0;
        DramCycle readyRead = 0;
        DramCycle readyWrite = 0;
    };

    std::uint32_t channel = 0;
    DramCycle now = 0;
    const char *scheduler = "";
    std::vector<QueueEntry> readQ;
    std::vector<QueueEntry> writeQ;
    std::size_t completionsPending = 0;
    std::vector<Bank> banks;
    std::vector<Rank> ranks;
    DramCycle busFreeAt = 0;
    /** Rank of the latest data burst (tRTRS applies to the others). */
    std::uint32_t lastBusRank = 0;
    bool draining = false;
};

/** Passive shadow of every externally visible channel event. */
class ChannelObserver
{
  public:
    virtual ~ChannelObserver() = default;

    /** A transaction was accepted into @p channel's queue. */
    virtual void
    onEnqueue(std::uint32_t channel, const MemRequest &req,
              const DramCoord &coord, DramCycle now)
    {
        (void)channel; (void)req; (void)coord; (void)now;
    }

    /** A transaction was rejected because the queue was full. */
    virtual void
    onReject(std::uint32_t channel, const MemRequest &req, DramCycle now)
    {
        (void)channel; (void)req; (void)now;
    }

    /**
     * A command was placed on @p channel's command bus this cycle
     * (including the refresh engine's precharges and REF commands).
     * For ACT/Read/Write/Pre @p coord carries rank/bank/row; for Ref
     * only the rank is meaningful.
     */
    virtual void
    onCommand(std::uint32_t channel, DramCmd cmd, const DramCoord &coord,
              DramCycle now)
    {
        (void)channel; (void)cmd; (void)coord; (void)now;
    }

    /**
     * A CAS-with-auto-precharge closed @p coord's bank (closed-page
     * policy). This consumes no command-bus slot; the bank closes once
     * its restore window elapses.
     */
    virtual void
    onAutoPrecharge(std::uint32_t channel, const DramCoord &coord,
                    DramCycle now)
    {
        (void)channel; (void)coord; (void)now;
    }

    /** A transaction's data burst finished (reads and writes). */
    virtual void
    onComplete(std::uint32_t channel, const MemRequest &req,
               DramCycle now)
    {
        (void)channel; (void)req; (void)now;
    }

    /**
     * A queued read's criticality was promoted. @p requested is the
     * caller's level; @p applied is what the queue entry now holds —
     * legal behaviour guarantees applied == max(previous, requested).
     */
    virtual void
    onPromote(std::uint32_t channel, Addr addr, CoreId core,
              CritLevel previous, CritLevel requested, CritLevel applied,
              DramCycle now)
    {
        (void)channel; (void)addr; (void)core; (void)previous;
        (void)requested; (void)applied; (void)now;
    }

    /**
     * The forward-progress watchdog tripped: @p channel has queued
     * work but issued nothing for its watchdog bound. The
     * handler should capture channel.snapshot(now) and fail loudly.
     */
    virtual void
    onStall(const DramChannel &channel, DramCycle now)
    {
        (void)channel; (void)now;
    }
};

/**
 * Deliberate-misbehaviour hooks a channel consults at each decision
 * point. Every default answers "no fault"; src/check/fault_injector
 * implements the seeded, configurable version.
 */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;

    /** Swallow this read completion (no fill, no notification)? */
    virtual bool
    dropCompletion(const MemRequest &req, DramCycle now)
    {
        (void)req; (void)now;
        return false;
    }

    /** Cycles of illegal headroom to give CAS eligibility this tick. */
    virtual std::uint32_t casSlack(DramCycle now)
    {
        (void)now;
        return 0;
    }

    /** Skip the refresh that just became due on @p rank? */
    virtual bool
    skipRefresh(std::uint32_t rank, DramCycle now)
    {
        (void)rank; (void)now;
        return false;
    }

    /** Hide all of @p core's transactions from the scheduler? */
    virtual bool starveCore(CoreId core)
    {
        (void)core;
        return false;
    }

    /** Zero the outcome of the current criticality promotion? */
    virtual bool corruptPromotion(DramCycle now)
    {
        (void)now;
        return false;
    }
};

} // namespace critmem

#endif // CRITMEM_DRAM_OBSERVER_HH

/**
 * @file
 * Abstract memory-scheduler interface.
 *
 * Each DRAM cycle, every channel gathers the set of commands that are
 * legal to issue *right now* (one SchedCandidate per queued
 * transaction) and asks the scheduler to pick one. The scheduler also
 * receives enqueue/issue/complete notifications so that stateful
 * policies (PAR-BS batches, TCM clustering, AHB history, MORSE
 * learning) can maintain their bookkeeping.
 *
 * A single Scheduler instance serves all channels of a DramSystem,
 * which lets policies share global state (e.g. TCM's cross-channel
 * bandwidth accounting) while still making per-channel decisions.
 */

#ifndef CRITMEM_SCHED_SCHEDULER_HH
#define CRITMEM_SCHED_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "dram/command.hh"
#include "mem/request.hh"
#include "sim/types.hh"

namespace critmem
{

/** Base class of all memory scheduling policies. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Choose the command to issue on @p channel this DRAM cycle.
     *
     * @param channel Channel making the request.
     * @param cands Commands legal to issue now; never empty.
     * @param now Current DRAM cycle.
     * @return Index into @p cands, or -1 to idle the command bus.
     */
    virtual int pick(std::uint32_t channel,
                     const std::vector<SchedCandidate> &cands,
                     DramCycle now) = 0;

    /** A transaction entered @p channel's queue. */
    virtual void
    onEnqueue(std::uint32_t channel, const MemRequest &req,
              const DramCoord &coord, DramCycle now)
    {
        (void)channel; (void)req; (void)coord; (void)now;
    }

    /** The chosen command was issued. */
    virtual void
    onIssue(std::uint32_t channel, const SchedCandidate &cand,
            DramCycle now)
    {
        (void)channel; (void)cand; (void)now;
    }

    /** A read's data burst completed. */
    virtual void
    onComplete(std::uint32_t channel, const MemRequest &req,
               DramCycle now)
    {
        (void)channel; (void)req; (void)now;
    }

    /** Called once per DRAM cycle, before any channel picks. */
    virtual void tick(DramCycle now) { (void)now; }

    /**
     * Earliest DRAM cycle at which tick() would do real work again
     * (epoch/quantum bookkeeping). Policies whose tick() is a no-op
     * return kNoCycle ("no scheduled work"), which lets the system
     * fast-forward across idle gaps without missing a boundary.
     * Returning a too-early cycle is always safe; too late is not.
     */
    virtual DramCycle
    nextEventCycle(DramCycle now) const
    {
        (void)now;
        return kNoCycle;
    }

    /** @return human-readable policy name. */
    virtual const char *name() const = 0;
};

/**
 * The pick of a policy that is a ranking key: the index of the first
 * candidate whose @p key is lowest under `<`, so a tie goes to the
 * earlier candidate; -1 when @p cands is empty.
 */
template <typename KeyFn>
int
pickLowest(const std::vector<SchedCandidate> &cands, KeyFn key)
{
    // One call site, so the compiler inlines the key into the loop.
    using Key = decltype(key(cands.front()));
    int best = -1;
    Key bestKey{};
    for (std::size_t i = 0; i < cands.size(); ++i) {
        Key k = key(cands[i]);
        if (i == 0 || k < bestKey) {
            best = static_cast<int>(i);
            bestKey = k;
        }
    }
    return best;
}

} // namespace critmem

#endif // CRITMEM_SCHED_SCHEDULER_HH

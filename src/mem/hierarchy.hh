/**
 * @file
 * The full cache hierarchy: per-core iL1/dL1 with MSHRs, an inclusive
 * shared L2 with MSHRs, a MESI-style invalidation directory, the L2
 * stream prefetcher, and the connection to the DRAM subsystem.
 *
 * Timing model: a dL1 hit completes after the configured round-trip
 * latency; the hierarchy only reports it (MemResult::Hit), and the
 * core completes it on its own clock. A dL1 miss reaches the L2 after
 * the dL1 latency; an L2 hit returns after the L2 round-trip latency;
 * an L2 miss pays a quarter of the L2 latency to the controller, the
 * DRAM service time, and a quarter of the L2 latency back. A full L2
 * MSHR file delays misses through a retry list. A full DRAM queue
 * parks the L2 miss or writeback in a per-channel FIFO until the
 * channel frees an entry.
 */

#ifndef CRITMEM_MEM_HIERARCHY_HH
#define CRITMEM_MEM_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "dram/dram.hh"
#include "mem/cache.hh"
#include "mem/prefetcher.hh"
#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"

namespace critmem
{

/**
 * Names a core-side access: the hierarchy hands it back to the
 * issuing core's MemClient when a miss completes.
 */
struct MemToken
{
    enum class Kind : std::uint8_t
    {
        Load,  ///< value = the load's ROB sequence number
        Store, ///< value = the committed store's address
        Fetch, ///< value = the fetched iL1 block
    };

    Kind kind = Kind::Load;
    std::uint64_t value = 0;
};

/** The core side of the hierarchy: receives completed misses. */
class MemClient
{
  public:
    virtual ~MemClient() = default;
    virtual void memDone(MemToken token) = 0;
};

/** What load(), store() and fetch() did with an access. */
enum class MemResult : std::uint8_t
{
    Rejected, ///< the L1 MSHR file is full: nothing was queued
    /**
     * An L1 hit. Nothing is scheduled: the caller completes the
     * access itself, the L1's latency after issue (an iL1 hit feeds
     * the pipelined front end at once).
     */
    Hit,
    Miss, ///< queued: the token returns through MemClient::memDone
};

/** Caches + directory + prefetcher + DRAM connection. */
class MemHierarchy : private FillListener
{
  public:
    /**
     * Registers itself as @p dram's fill listener; fatal() when
     * @p cfg fails validation.
     */
    MemHierarchy(const SystemConfig &cfg, DramSystem &dram,
                 stats::Group &parent);

    /**
     * Deliver @p core's completed misses to @p client (a core does
     * this in its constructor); it must outlive the hierarchy's use.
     */
    void attach(CoreId core, MemClient &client);

    /**
     * Issue a data load; @p token returns only on a Miss.
     * @param crit Criticality magnitude to piggyback on an L2 miss.
     * @return Rejected when the dL1 MSHR file is full: the caller
     *         must issue the load again.
     */
    MemResult load(CoreId core, Addr addr, CritLevel crit,
                   MemToken token);

    /**
     * Issue a committed store (write-allocate, write-back); a hit
     * takes ownership at once.
     */
    MemResult store(CoreId core, Addr addr, MemToken token);

    /**
     * Fetch @p pc's block. A hit counts as an iL1 hit only; a miss
     * also counts in mem.fetches.
     */
    MemResult fetch(CoreId core, Addr pc, MemToken token);

    /**
     * Advance one CPU cycle: fire due events, retry misses waiting
     * for an L2 MSHR, then move blocked requests into DRAM queues
     * that have room.
     */
    void tick(Cycle now);

    /**
     * Earliest CPU cycle > @p now at which tick() would do anything:
     * the next scheduled event, or "next cycle" while a miss waits
     * for an L2 MSHR or a blocked request's DRAM queue has room.
     * A blocked request whose queue is full adds no bound: only a
     * DRAM tick can free an entry, and the DRAM's own next event
     * bounds that. kNoCycle when fully quiescent. tick() has no
     * per-cycle accounting, so skipping cycles before this bound is
     * free.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Advance the clock across a certified-idle skip window. */
    void skipTo(Cycle to) { now_ = to; }

    /**
     * Raise the criticality of an in-flight L2 miss (Section 5.1
     * naive forwarding). No effect if the block is no longer queued.
     */
    void promote(Addr addr, CritLevel crit);

    /** @return true when no access is in flight anywhere. */
    bool quiescent() const;

    Cycle now() const { return now_; }

    /** Aggregate statistics. */
    struct Stats
    {
        explicit Stats(stats::Group &parent);

        stats::Group group;
        stats::Scalar loads;
        stats::Scalar stores;
        stats::Scalar fetches;
        stats::Scalar l1MshrFull;
        stats::Scalar l2MshrFull;
        stats::Scalar dramRejects;
        stats::Scalar dramBlockedCycles;
        stats::Scalar demandMisses;
        stats::Scalar coherenceTransfers;
        stats::Scalar prefetchUseful;
        stats::Average l2MissLatCrit;
        stats::Average l2MissLatNonCrit;
    };

    const Stats &memStats() const { return stats_; }

    Cache &il1(CoreId core) { return *il1_[core]; }
    Cache &dl1(CoreId core) { return *dl1_[core]; }
    Cache &l2() { return *l2_; }

  private:
    /** A miss outstanding at L1 level (one per core x block). */
    struct L1Entry
    {
        std::vector<MemToken> waiters; ///< completed in push order
        CritLevel crit = 0;
        bool rfo = false; ///< a store needs exclusive ownership
    };

    /** Per-core L1 MSHR file, keyed by the L1-aligned block address. */
    using L1MshrMap = FlatMap<L1Entry>;

    /** Identifies one L1 MSHR entry waiting on an L2 fill. */
    struct L2Waiter
    {
        CoreId core = 0;
        Addr l1Block = 0;
        bool isInst = false;
        bool rfo = false;
    };

    /** A miss outstanding at L2 level (one per L2 block). */
    struct L2Entry
    {
        std::vector<L2Waiter> waiters;
        CritLevel crit = 0;
        bool demand = false;
        bool sentToDram = false;
        Cycle started = 0;
        CoreId firstCore = 0;
    };

    /** What a scheduled event does when it fires. */
    enum class EventKind : std::uint8_t
    {
        L2Access,  ///< an L1 miss reaches the L2
        DeliverL1, ///< an L2 hit or fill reaches the waiting L1 MSHR
    };

    struct Event
    {
        EventKind kind;
        L2Waiter waiter; ///< the L1 MSHR entry
    };

    /** A dL1 holding a block in Modified state. */
    struct Owner
    {
        CoreId core = kNoCore;
        Cache::Way line = Cache::kNoWay;
    };

    void schedule(Cycle delay, EventKind kind, const L2Waiter &waiter);
    /**
     * Look @p waiter's block up in L2 and start or merge its miss.
     * @p retry marks a miss already counted in l2MshrFull and in the
     * L2's misses: a retry that hits counts the hit, one that misses
     * counts nothing.
     */
    void l2Access(const L2Waiter &waiter, bool retry);
    /** A DRAM read or prefetch of the L2 block req.addr finished. */
    void onFill(const MemRequest &req) override;
    void deliverToL1(const L2Waiter &waiter);
    bool sendToDram(Addr l2Block, L2Entry &entry);
    void enqueueRead(Addr l2Block, L2Entry &entry);
    void writebackToDram(Addr l2Block);
    void enqueueWriteback(Addr l2Block);
    bool drainable() const;
    void drainBlocked();
    void issuePrefetches(Addr l2Block);
    void evictFromL2(const Cache::Victim &victim);
    void invalidateSharers(Addr l1Block, CoreId except);
    /** @return the dL1 line holding @p l1Block modified (core
     *  kNoCore when there is none). */
    Owner modifiedOwner(Addr l1Block, CoreId except) const;

    SystemConfig cfg_;
    DramSystem &dram_;
    stats::Group group_;

    std::vector<std::unique_ptr<Cache>> il1_;
    std::vector<std::unique_ptr<Cache>> dl1_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;

    /** Who receives each core's misses (MemHierarchy::attach). */
    std::vector<MemClient *> clients_;

    /** Bounded by il1.mshrs / dl1.mshrs, l2.mshrs. */
    std::vector<L1MshrMap> iMshr_;
    std::vector<L1MshrMap> dMshr_;
    FlatMap<L2Entry> l2Mshr_;

    /**
     * dL1-block address -> bitmask of cores with a copy. Every entry
     * has a bit set; each set bit is a valid dL1 line, or the owner
     * a store miss's dirty transfer just invalidated, until that
     * miss's dL1 MSHR entry delivers. So numCores x (dL1 lines + dL1
     * MSHRs) bounds it.
     */
    FlatMap<std::uint32_t> directory_;

    /**
     * First and last byte of every block ever inserted into any iL1
     * (empty while lo > hi). An L2 eviction sweeps the iL1s only for
     * sub-blocks inside it: no iL1 can hold anything outside. It is a
     * range, not an "is code" test, because a parallel app's private
     * data starts at address 0 and may overlap the code region.
     */
    Addr il1Lo_ = ~Addr{0};
    Addr il1Hi_ = 0;

    /** (core, l1Block, isInst, rfo) waiting for an L2 MSHR slot. */
    std::vector<L2Waiter> l2MshrRetry_;
    /**
     * tick()'s MSHR retry loop swaps the list into this persistent
     * scratch buffer; reusing its capacity keeps the per-cycle path
     * free of heap allocation (the hot-path-alloc lint rule).
     */
    std::vector<L2Waiter> l2RetryScratch_;

    /** An L2 miss or writeback that found its DRAM queue full. */
    struct Blocked
    {
        std::uint64_t seq; ///< global block order, for the drain merge
        Addr block;
        Cycle since; ///< CPU cycle it found the queue full
    };

    /**
     * Per DRAM channel, oldest first: demand L2 misses (their L2 MSHR
     * entry holds crit and type until the send) and dirty writebacks
     * waiting for a free queue entry. Prefetches never wait here.
     */
    std::vector<std::deque<Blocked>> blockedReads_;
    std::vector<std::deque<Blocked>> blockedWrites_;
    std::uint64_t blockedSeq_ = 0;
    /** Entries across every blocked FIFO (0 = nothing to drain). */
    std::size_t blockedCount_ = 0;

    /**
     * Every pending event, due in (cycle, schedule order). Sized so
     * the longest delay (an L1 or L2 latency, or the fill return)
     * never grows the ring.
     */
    TimingWheel<Event> events_;
    Cycle now_ = 0;
    std::vector<Addr> prefetchScratch_;

    Stats stats_;
};

} // namespace critmem

#endif // CRITMEM_MEM_HIERARCHY_HH

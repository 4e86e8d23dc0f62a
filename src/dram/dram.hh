/**
 * @file
 * Top-level DRAM subsystem: address decoding plus one DramChannel per
 * configured channel, all served by a single scheduling policy.
 */

#ifndef CRITMEM_DRAM_DRAM_HH
#define CRITMEM_DRAM_DRAM_HH

#include <memory>
#include <vector>

#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "mem/request.hh"
#include "sched/scheduler.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace critmem
{

/** Quad-channel (configurable) DDR3 memory subsystem. */
class DramSystem
{
  public:
    /**
     * @param cfg Organization and timing; fatal() when it fails
     *            validation.
     * @param sched Scheduling policy shared by every channel; must
     *              outlive the DramSystem.
     * @param parent Statistics parent group.
     */
    DramSystem(const DramConfig &cfg, Scheduler &sched,
               stats::Group &parent);

    /**
     * Decode and enqueue a transaction. Arrival is stamped with the
     * DRAM subsystem's own clock (the last ticked cycle), keeping
     * queue ages monotonic regardless of the caller's clock domain.
     * Request ids are assigned on accept only, so the accepted
     * requests carry ids 0, 1, 2, ... in arrival order.
     * @return false when the destination queue is full. The request
     *         is dropped; callers that must not lose it check
     *         hasRoom() first and hold it until there is room.
     */
    bool enqueue(MemRequest req);

    /** Channel that @p addr decodes to. */
    std::uint32_t channelOf(Addr addr) const
    {
        return map_.decode(addr).channel;
    }

    /** @return true when @p channel would accept a @p type request. */
    bool hasRoom(std::uint32_t channel, ReqType type) const
    {
        return channels_[channel]->hasRoom(type);
    }

    /** Advance every channel one DRAM cycle. */
    void tick(DramCycle now);

    /**
     * Earliest DRAM cycle > @p now at which any channel or the
     * scheduling policy would do real work (see
     * DramChannel::nextEventCycle). kNoCycle = fully quiescent.
     */
    DramCycle nextEventCycle(DramCycle now) const;

    /**
     * Bulk-apply idle accounting for the skipped cycles up to and
     * including @p to on every channel. Only legal when
     * to < nextEventCycle(last ticked cycle).
     */
    void skipTo(DramCycle to);

    /** Naive-forwarding criticality promotion (Section 5.1). */
    bool promote(Addr addr, CoreId core, CritLevel crit);

    /** @return true when all channels are empty. */
    bool idle() const;

    const AddressMap &addressMap() const { return map_; }
    const DramConfig &config() const { return cfg_; }

    std::uint32_t
    numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    const DramChannel &channel(std::uint32_t i) const
    {
        return *channels_[i];
    }

    /**
     * Attach @p observer to every channel (nullptr detaches), with
     * the channel watchdog bound (DramChannel::setObserver).
     */
    void setObserver(ChannelObserver *observer,
                     std::uint64_t watchdogCycles = 0);

    /** Attach @p injector to every channel (nullptr detaches). */
    void setFaultInjector(FaultInjector *injector);

    /** Hand every channel's finished reads to @p listener. */
    void setFillListener(FillListener *listener);

  private:
    DramConfig cfg_;
    AddressMap map_;
    stats::Group group_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    Scheduler &sched_;
    std::uint64_t nextId_ = 0;
    DramCycle lastNow_ = 0;
};

} // namespace critmem

#endif // CRITMEM_DRAM_DRAM_HH

#include "dram/dram.hh"

#include <algorithm>

namespace critmem
{

DramSystem::DramSystem(const DramConfig &cfg, Scheduler &sched,
                       stats::Group &parent)
    : cfg_(validateOrFatal(cfg)), map_(cfg_), group_("dram", &parent),
      sched_(sched)
{
    channels_.reserve(cfg_.channels);
    for (std::uint32_t i = 0; i < cfg_.channels; ++i) {
        channels_.push_back(
            std::make_unique<DramChannel>(cfg_, i, sched, group_));
    }
}

bool
DramSystem::enqueue(MemRequest req)
{
    const DramCoord coord = map_.decode(req.addr);
    req.id = nextId_;
    if (!channels_[coord.channel]->enqueue(std::move(req), coord,
                                           lastNow_ + 1))
        return false;
    ++nextId_;
    return true;
}

void
DramSystem::tick(DramCycle now)
{
    lastNow_ = now;
    sched_.tick(now);
    for (auto &channel : channels_)
        channel->tick(now);
}

DramCycle
DramSystem::nextEventCycle(DramCycle now) const
{
    DramCycle next = sched_.nextEventCycle(now);
    for (const auto &channel : channels_)
        next = std::min(next, channel->nextEventCycle(now));
    return next;
}

void
DramSystem::skipTo(DramCycle to)
{
    lastNow_ = to;
    for (auto &channel : channels_)
        channel->skipTo(to);
}

bool
DramSystem::promote(Addr addr, CoreId core, CritLevel crit)
{
    const DramCoord coord = map_.decode(addr);
    return channels_[coord.channel]->promote(addr, core, crit);
}

bool
DramSystem::idle() const
{
    for (const auto &channel : channels_) {
        if (!channel->idle())
            return false;
    }
    return true;
}

void
DramSystem::setObserver(ChannelObserver *observer,
                        std::uint64_t watchdogCycles)
{
    for (auto &channel : channels_)
        channel->setObserver(observer, watchdogCycles);
}

void
DramSystem::setFaultInjector(FaultInjector *injector)
{
    for (auto &channel : channels_)
        channel->setFaultInjector(injector);
}

void
DramSystem::setFillListener(FillListener *listener)
{
    for (auto &channel : channels_)
        channel->setFillListener(listener);
}

} // namespace critmem

#include "mem/hierarchy.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace critmem
{

MemHierarchy::Stats::Stats(stats::Group &parent)
    : group("mem", &parent),
      loads(group, "loads", "data loads issued to the hierarchy"),
      stores(group, "stores", "stores issued to the hierarchy"),
      fetches(group, "fetches", "instruction fetch accesses"),
      l1MshrFull(group, "l1MshrFull", "accesses rejected: L1 MSHR full"),
      l2MshrFull(group, "l2MshrFull", "misses delayed: L2 MSHR full"),
      dramRejects(group, "dramRejects",
                  "distinct requests that found their DRAM queue full "
                  "(counted once)"),
      dramBlockedCycles(group, "dramBlockedCycles",
                        "CPU cycles blocked requests waited for a DRAM "
                        "queue entry (summed at accept)"),
      demandMisses(group, "demandMisses", "demand L2 misses sent to DRAM"),
      coherenceTransfers(group, "coherenceTransfers",
                         "dirty cache-to-cache transfers"),
      prefetchUseful(group, "prefetchUseful",
                     "demand hits on prefetched L2 lines"),
      l2MissLatCrit(group, "l2MissLatCrit",
                    "L2 miss latency, critical loads (CPU cycles)"),
      l2MissLatNonCrit(group, "l2MissLatNonCrit",
                       "L2 miss latency, non-critical (CPU cycles)")
{
}

MemHierarchy::MemHierarchy(const SystemConfig &cfg, DramSystem &dram,
                           stats::Group &parent)
    : cfg_(validateOrFatal(cfg)), dram_(dram), group_("hier", &parent),
      clients_(cfg.numCores, nullptr),
      l2Mshr_(cfg.l2.mshrs, "L2 MSHR file"),
      directory_(std::size_t{cfg.numCores} *
                     (cfg.dl1.sizeBytes / cfg.dl1.blockBytes +
                      cfg.dl1.mshrs),
                 "L1 directory"),
      blockedReads_(dram.numChannels()),
      blockedWrites_(dram.numChannels()),
      events_(std::max({cfg.il1.latency, cfg.dl1.latency, cfg.l2.latency,
                        cfg.l2.latency / 4})),
      stats_(group_)
{
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        iMshr_.emplace_back(cfg.il1.mshrs, "iL1 MSHR file");
        dMshr_.emplace_back(cfg.dl1.mshrs, "dL1 MSHR file");
        il1_.push_back(std::make_unique<Cache>(
            cfg.il1, "il1_" + std::to_string(c), group_));
        dl1_.push_back(std::make_unique<Cache>(
            cfg.dl1, "dl1_" + std::to_string(c), group_));
    }
    l2_ = std::make_unique<Cache>(cfg.l2, "l2", group_);
    if (cfg.prefetch.enabled) {
        prefetcher_ = std::make_unique<StreamPrefetcher>(
            cfg.prefetch, cfg.l2.blockBytes, group_);
    }
    dram_.setFillListener(this);
}

void
MemHierarchy::attach(CoreId core, MemClient &client)
{
    clients_.at(core) = &client;
}

void
MemHierarchy::schedule(Cycle delay, EventKind kind, const L2Waiter &waiter)
{
    events_.push(now_ + delay, Event{kind, waiter});
}

MemResult
MemHierarchy::load(CoreId core, Addr addr, CritLevel crit, MemToken token)
{
    ++stats_.loads;
    Cache &dl1 = *dl1_[core];
    const Addr l1Block = dl1.blockAlign(addr);
    if (dl1.access(l1Block) != Cache::kNoWay)
        return MemResult::Hit;
    auto &mshr = dMshr_[core];
    if (L1Entry *merged = mshr.find(l1Block)) {
        merged->waiters.push_back(token);
        if (crit > merged->crit) {
            merged->crit = crit;
            promote(addr, crit);
        }
        return MemResult::Miss;
    }
    if (mshr.size() >= cfg_.dl1.mshrs) {
        ++stats_.l1MshrFull;
        return MemResult::Rejected;
    }
    L1Entry &entry = mshr[l1Block];
    entry.waiters.push_back(token);
    entry.crit = crit;
    schedule(cfg_.dl1.latency, EventKind::L2Access,
             L2Waiter{core, l1Block, false, false});
    return MemResult::Miss;
}

MemResult
MemHierarchy::store(CoreId core, Addr addr, MemToken token)
{
    ++stats_.stores;
    Cache &dl1 = *dl1_[core];
    const Addr l1Block = dl1.blockAlign(addr);
    if (const Cache::Way line = dl1.access(l1Block);
        line != Cache::kNoWay) {
        if (dl1.state(line) == LineState::Shared)
            invalidateSharers(l1Block, core);
        dl1.setState(line, LineState::Modified);
        return MemResult::Hit;
    }
    auto &mshr = dMshr_[core];
    if (L1Entry *merged = mshr.find(l1Block)) {
        merged->waiters.push_back(token);
        merged->rfo = true;
        return MemResult::Miss;
    }
    if (mshr.size() >= cfg_.dl1.mshrs) {
        ++stats_.l1MshrFull;
        return MemResult::Rejected;
    }
    L1Entry &entry = mshr[l1Block];
    entry.waiters.push_back(token);
    entry.rfo = true;
    schedule(cfg_.dl1.latency, EventKind::L2Access,
             L2Waiter{core, l1Block, false, true});
    return MemResult::Miss;
}

MemResult
MemHierarchy::fetch(CoreId core, Addr pc, MemToken token)
{
    Cache &il1 = *il1_[core];
    const Addr block = il1.blockAlign(pc);
    if (il1.access(block) != Cache::kNoWay)
        return MemResult::Hit;
    ++stats_.fetches;
    auto &mshr = iMshr_[core];
    if (L1Entry *merged = mshr.find(block)) {
        merged->waiters.push_back(token);
        return MemResult::Miss;
    }
    if (mshr.size() >= cfg_.il1.mshrs) {
        ++stats_.l1MshrFull;
        return MemResult::Rejected;
    }
    mshr[block].waiters.push_back(token);
    schedule(cfg_.il1.latency, EventKind::L2Access,
             L2Waiter{core, block, true, false});
    return MemResult::Miss;
}

MemHierarchy::Owner
MemHierarchy::modifiedOwner(Addr l1Block, CoreId except) const
{
    const std::uint32_t *sharers = directory_.find(l1Block);
    if (!sharers)
        return {};
    for (std::uint32_t bits = *sharers & ~(1u << except); bits != 0;
         bits &= bits - 1) {
        const auto c = static_cast<CoreId>(std::countr_zero(bits));
        const Cache &dl1 = *dl1_[c];
        const Cache::Way line = dl1.lookup(l1Block);
        if (line != Cache::kNoWay &&
            dl1.state(line) == LineState::Modified)
            return {c, line};
    }
    return {};
}

void
MemHierarchy::invalidateSharers(Addr l1Block, CoreId except)
{
    std::uint32_t *sharers = directory_.find(l1Block);
    if (!sharers)
        return;
    for (std::uint32_t bits = *sharers & ~(1u << except); bits != 0;
         bits &= bits - 1) {
        Cache &dl1 = *dl1_[std::countr_zero(bits)];
        const Cache::Way line = dl1.lookup(l1Block);
        if (line == Cache::kNoWay)
            continue;
        // A modified copy's data lives on in the inclusive L2.
        if (dl1.state(line) == LineState::Modified)
            l2_->setState(l2_->blockAlign(l1Block), LineState::Modified);
        dl1.invalidate(line);
    }
    *sharers &= 1u << except;
    if (*sharers == 0)
        directory_.erase(sharers);
}

void
MemHierarchy::l2Access(const L2Waiter &waiter, bool retry)
{
    const auto [core, l1Block, isInst, rfo] = waiter;
    const Addr l2Block = l2_->blockAlign(l1Block);

    if (!isInst) {
        const Owner owner = modifiedOwner(l1Block, core);
        if (owner.core != kNoCore) {
            // Dirty cache-to-cache transfer through the shared L2. The
            // inclusive L2 absorbs the dirty data; the owner is
            // downgraded (or invalidated on a store miss).
            ++stats_.coherenceTransfers;
            if (const Cache::Way line = l2_->access(l2Block, !retry);
                line != Cache::kNoWay)
                l2_->setState(line, LineState::Modified);
            Cache &ownerL1 = *dl1_[owner.core];
            if (rfo)
                ownerL1.invalidate(owner.line);
            else
                ownerL1.setState(owner.line, LineState::Shared);
            schedule(cfg_.l2.latency, EventKind::DeliverL1,
                     L2Waiter{core, l1Block, isInst, false});
            return;
        }
    }

    if (const Cache::Way line = l2_->access(l2Block, !retry);
        line != Cache::kNoWay) {
        if (l2_->prefetched(line)) {
            ++stats_.prefetchUseful;
            l2_->clearPrefetched(line);
            if (prefetcher_)
                prefetcher_->onUseful();
        }
        schedule(cfg_.l2.latency, EventKind::DeliverL1,
                 L2Waiter{core, l1Block, isInst, false});
        return;
    }

    // L2 miss.
    const CritLevel crit = [&]() -> CritLevel {
        if (isInst)
            return 0;
        const L1Entry *l1 = dMshr_[core].find(l1Block);
        return l1 ? l1->crit : 0;
    }();

    if (L2Entry *merged = l2Mshr_.find(l2Block)) {
        L2Entry &entry = *merged;
        entry.waiters.push_back(waiter);
        if (!entry.demand) {
            // A prefetch in flight just turned into a demand miss.
            entry.demand = true;
            entry.started = now_;
        }
        if (crit > entry.crit) {
            entry.crit = crit;
            dram_.promote(l2Block, entry.firstCore, crit);
        }
        return;
    }
    if (l2Mshr_.size() >= cfg_.l2.mshrs) {
        if (!retry)
            ++stats_.l2MshrFull;
        l2MshrRetry_.push_back(waiter);
        return;
    }

    L2Entry &entry = l2Mshr_[l2Block];
    entry.waiters.push_back(waiter);
    entry.demand = true;
    entry.started = now_;
    entry.firstCore = core;
    entry.crit = crit;
    ++stats_.demandMisses;
    sendToDram(l2Block, entry);

    if (prefetcher_ && !isInst)
        issuePrefetches(l2Block);
}

bool
MemHierarchy::sendToDram(Addr l2Block, L2Entry &entry)
{
    const std::uint32_t channel = dram_.channelOf(l2Block);
    if (dram_.hasRoom(channel, entry.demand ? ReqType::Read
                                            : ReqType::Prefetch)) {
        enqueueRead(l2Block, entry);
        return true;
    }
    ++stats_.dramRejects;
    if (entry.demand) {
        blockedReads_[channel].push_back(
            Blocked{blockedSeq_++, l2Block, now_});
        ++blockedCount_;
    }
    return false;
}

void
MemHierarchy::enqueueRead(Addr l2Block, L2Entry &entry)
{
    MemRequest req;
    req.addr = l2Block;
    req.type = entry.demand ? ReqType::Read : ReqType::Prefetch;
    req.core = entry.firstCore;
    req.crit = entry.crit;
    if (!dram_.enqueue(req))
        panic("DRAM rejected an L2 miss its queue had room for");
    entry.sentToDram = true;
}

void
MemHierarchy::writebackToDram(Addr l2Block)
{
    const std::uint32_t channel = dram_.channelOf(l2Block);
    if (dram_.hasRoom(channel, ReqType::Write)) {
        enqueueWriteback(l2Block);
        return;
    }
    ++stats_.dramRejects;
    blockedWrites_[channel].push_back(
        Blocked{blockedSeq_++, l2Block, now_});
    ++blockedCount_;
}

void
MemHierarchy::enqueueWriteback(Addr l2Block)
{
    MemRequest req;
    req.addr = l2Block;
    req.type = ReqType::Write;
    req.core = kNoCore;
    if (!dram_.enqueue(req))
        panic("DRAM rejected a writeback its queue had room for");
}

void
MemHierarchy::issuePrefetches(Addr l2Block)
{
    prefetchScratch_.clear();
    prefetcher_->onDemandMiss(l2Block, prefetchScratch_);
    // Keep a demand reserve: prefetches never take the last MSHRs.
    const std::size_t prefetchCap =
        cfg_.l2.mshrs - std::min<std::size_t>(cfg_.l2.mshrs / 4, 16);
    for (const Addr target : prefetchScratch_) {
        if (l2_->probe(target) != LineState::Invalid)
            continue;
        if (l2Mshr_.contains(target))
            continue;
        if (l2Mshr_.size() >= prefetchCap)
            break;
        L2Entry &entry = l2Mshr_[target];
        entry.demand = false;
        entry.started = now_;
        entry.firstCore = 0;
        if (!sendToDram(target, entry)) {
            // Prefetches are best-effort: drop instead of waiting.
            l2Mshr_.erase(&entry);
        }
    }
}

void
MemHierarchy::evictFromL2(const Cache::Victim &victim)
{
    bool dirty = victim.dirty;
    // Inclusion: purge every L1 copy of the victim's sub-blocks; a
    // modified L1 copy folds into the writeback.
    for (Addr sub = victim.addr; sub < victim.addr + cfg_.l2.blockBytes;
         sub += cfg_.dl1.blockBytes) {
        if (std::uint32_t *sharers = directory_.find(sub)) {
            for (std::uint32_t bits = *sharers; bits != 0;
                 bits &= bits - 1) {
                Cache &dl1 = *dl1_[std::countr_zero(bits)];
                const Cache::Way line = dl1.lookup(sub);
                if (line == Cache::kNoWay)
                    continue;
                if (dl1.state(line) == LineState::Modified)
                    dirty = true;
                dl1.invalidate(line);
            }
            directory_.erase(sharers);
        }
        if (sub >= il1Lo_ && sub <= il1Hi_) {
            for (CoreId c = 0; c < cfg_.numCores; ++c)
                il1_[c]->invalidate(sub);
        }
    }
    if (dirty)
        writebackToDram(victim.addr);
}

void
MemHierarchy::onFill(const MemRequest &req)
{
    const Addr l2Block = req.addr;
    L2Entry *pending = l2Mshr_.find(l2Block);
    if (!pending)
        panic("DRAM fill for unknown L2 MSHR block");
    L2Entry entry = std::move(*pending);
    l2Mshr_.erase(pending);

    if (entry.demand) {
        auto &stat = entry.crit > 0 ? stats_.l2MissLatCrit
                                    : stats_.l2MissLatNonCrit;
        stat.sample(static_cast<double>(now_ - entry.started));
    }

    const Cache::Victim victim =
        l2_->insert(l2Block, LineState::Exclusive, !entry.demand);
    if (victim.valid)
        evictFromL2(victim);

    const Cycle returnLat = std::max<Cycle>(cfg_.l2.latency / 4, 1);
    for (const L2Waiter &waiter : entry.waiters)
        schedule(returnLat, EventKind::DeliverL1, waiter);
}

void
MemHierarchy::deliverToL1(const L2Waiter &waiter)
{
    auto &mshr =
        waiter.isInst ? iMshr_[waiter.core] : dMshr_[waiter.core];
    L1Entry *pending = mshr.find(waiter.l1Block);
    if (!pending)
        return; // already satisfied (e.g. duplicate delivery)
    L1Entry entry = std::move(*pending);
    mshr.erase(pending);

    if (waiter.isInst) {
        il1_[waiter.core]->insert(waiter.l1Block, LineState::Shared);
        il1Lo_ = std::min(il1Lo_, waiter.l1Block);
        il1Hi_ = std::max(il1Hi_, waiter.l1Block + cfg_.il1.blockBytes - 1);
    } else {
        if (entry.rfo)
            invalidateSharers(waiter.l1Block, waiter.core);
        std::uint32_t others = 0; // other cores with a directory bit
        if (const std::uint32_t *sharers =
                directory_.find(waiter.l1Block)) {
            others = *sharers & ~(1u << waiter.core);
        }
        const bool sharedElsewhere = others != 0;
        const LineState state = entry.rfo
            ? LineState::Modified
            : (sharedElsewhere ? LineState::Shared
                               : LineState::Exclusive);
        if (sharedElsewhere && !entry.rfo) {
            // Demote the other copies from E to S. Every valid dL1
            // line has its directory bit, so the bits name them all.
            for (; others != 0; others &= others - 1) {
                Cache &dl1 = *dl1_[std::countr_zero(others)];
                const Cache::Way line = dl1.lookup(waiter.l1Block);
                if (line != Cache::kNoWay &&
                    dl1.state(line) == LineState::Exclusive)
                    dl1.setState(line, LineState::Shared);
            }
        }
        const Cache::Victim victim =
            dl1_[waiter.core]->insert(waiter.l1Block, state);
        if (victim.valid) {
            if (std::uint32_t *sharers = directory_.find(victim.addr)) {
                *sharers &= ~(1u << waiter.core);
                if (*sharers == 0)
                    directory_.erase(sharers);
            }
            if (victim.dirty) {
                l2_->setState(l2_->blockAlign(victim.addr),
                              LineState::Modified);
            }
        }
        directory_[waiter.l1Block] |= 1u << waiter.core;
    }

    MemClient &client = *clients_[waiter.core];
    for (const MemToken token : entry.waiters)
        client.memDone(token);
}

void
MemHierarchy::promote(Addr addr, CritLevel crit)
{
    const Addr l2Block = l2_->blockAlign(addr);
    L2Entry *entry = l2Mshr_.find(l2Block);
    if (!entry)
        return;
    if (crit > entry->crit) {
        entry->crit = crit;
        dram_.promote(l2Block, entry->firstCore, crit);
    }
}

bool
MemHierarchy::quiescent() const
{
    if (!events_.empty() || !l2Mshr_.empty() || !l2MshrRetry_.empty() ||
        blockedCount_ != 0) {
        return false;
    }
    for (const auto &mshr : dMshr_) {
        if (!mshr.empty())
            return false;
    }
    for (const auto &mshr : iMshr_) {
        if (!mshr.empty())
            return false;
    }
    return true;
}

Cycle
MemHierarchy::nextEventCycle(Cycle now) const
{
    if (!l2MshrRetry_.empty() || drainable())
        return now + 1;
    return events_.next(now);
}

bool
MemHierarchy::drainable() const
{
    if (blockedCount_ == 0)
        return false;
    for (std::uint32_t c = 0; c < blockedReads_.size(); ++c) {
        if ((!blockedReads_[c].empty() &&
             dram_.hasRoom(c, ReqType::Read)) ||
            (!blockedWrites_[c].empty() &&
             dram_.hasRoom(c, ReqType::Write)))
            return true;
    }
    return false;
}

void
MemHierarchy::drainBlocked()
{
    // Blocked reads go before blocked writebacks; within each kind
    // the request that blocked first, across all channels whose queue
    // has room, goes next. Queues only shrink in a DRAM tick, so this
    // accepts exactly the requests, in exactly the order, that
    // re-offering every blocked request each cycle would.
    if (blockedCount_ == 0)
        return;
    for (const ReqType type : {ReqType::Read, ReqType::Write}) {
        auto &fifos =
            type == ReqType::Read ? blockedReads_ : blockedWrites_;
        while (true) {
            std::uint32_t pick = 0;
            bool found = false;
            for (std::uint32_t c = 0; c < fifos.size(); ++c) {
                if (!fifos[c].empty() &&
                    (!found ||
                     fifos[c].front().seq < fifos[pick].front().seq) &&
                    dram_.hasRoom(c, type)) {
                    pick = c;
                    found = true;
                }
            }
            if (!found)
                break;
            const Blocked blocked = fifos[pick].front();
            fifos[pick].pop_front();
            --blockedCount_;
            stats_.dramBlockedCycles += now_ - blocked.since;
            if (type == ReqType::Write) {
                enqueueWriteback(blocked.block);
                continue;
            }
            L2Entry *entry = l2Mshr_.find(blocked.block);
            if (!entry || entry->sentToDram)
                panic("blocked L2 miss lost its MSHR entry");
            enqueueRead(blocked.block, *entry);
        }
    }
}

void
MemHierarchy::tick(Cycle now)
{
    now_ = now;
    events_.drain(now, [this](Cycle, const Event &event) {
        switch (event.kind) {
          case EventKind::L2Access:
            l2Access(event.waiter, /*retry=*/false);
            break;
          case EventKind::DeliverL1:
            deliverToL1(event.waiter);
            break;
        }
    });

    // The retry list swaps into a persistent scratch buffer instead of
    // a per-tick local so the steady state never touches the heap (the
    // retry loop below may push back into the live list).
    if (!l2MshrRetry_.empty()) {
        l2RetryScratch_.clear();
        l2RetryScratch_.swap(l2MshrRetry_);
        for (const L2Waiter &waiter : l2RetryScratch_)
            l2Access(waiter, /*retry=*/true);
    }
    drainBlocked();
}

} // namespace critmem

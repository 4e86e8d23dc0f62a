#include "dram/channel.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace critmem
{

DramChannel::Stats::Stats(stats::Group &parent, std::uint32_t id)
    : group("channel" + std::to_string(id), &parent),
      activates(group, "activates", "ACT commands issued"),
      reads(group, "reads", "column read commands issued"),
      writes(group, "writes", "column write commands issued"),
      precharges(group, "precharges", "PRE commands issued"),
      refreshes(group, "refreshes", "REF commands issued"),
      rowHits(group, "rowHits", "CAS commands that hit an open row"),
      rowMisses(group, "rowMisses", "ACTs issued to closed banks"),
      rowConflicts(group, "rowConflicts",
                   "PREs closing a row another request had open"),
      busyDataCycles(group, "busyDataCycles",
                     "DRAM cycles the data bus carried a burst"),
      idleNoCandidate(group, "idleNoCandidate",
                      "cycles queue was nonempty but nothing issuable"),
      enqueueRejects(group, "enqueueRejects",
                     "transactions rejected because a queue was full"),
      autoPrecharges(group, "autoPrecharges",
                     "closed-page auto-precharges after CAS"),
      readLatency(group, "readLatency",
                  "read queueing+service latency, DRAM cycles"),
      readQueueOcc(group, "readQueueOcc",
                   "read transaction queue occupancy"),
      critInQueue(group, "critInQueue",
                  "critical reads resident in the queue")
{
}

DramChannel::DramChannel(const DramConfig &cfg, std::uint32_t id,
                         Scheduler &sched, stats::Group &parent)
    : cfg_(cfg), id_(id), sched_(sched),
      banks_(std::size_t{cfg.ranksPerChannel} * cfg.banksPerRank),
      ranks_(cfg.ranksPerChannel),
      completions_(std::max(cfg.t.tCL, cfg.t.tWL) + cfg.t.dataCycles()),
      rankReady_(cfg.ranksPerChannel), bankReady_(banks_.size()),
      entries_{std::vector<BankEntries>(banks_.size()),
               std::vector<BankEntries>(banks_.size())},
      occupied_{std::vector<std::uint64_t>((banks_.size() + 63) / 64),
                std::vector<std::uint64_t>((banks_.size() + 63) / 64)},
      stats_(parent, id)
{
    for (std::uint32_t bi = 0; bi < banks_.size(); ++bi) {
        bankReady_[bi].rank = bi / cfg_.banksPerRank;
        bankReady(bi);
    }
    updateRankReady();
    // Stagger refresh deadlines so the ranks don't refresh in
    // lock-step and stall the whole channel at once.
    for (std::uint32_t r = 0; r < cfg_.ranksPerChannel; ++r) {
        ranks_[r].refreshDue =
            static_cast<DramCycle>(cfg_.t.tREFI) * (r + 1) /
            cfg_.ranksPerChannel;
    }
}

bool
DramChannel::hasRoom(ReqType type) const
{
    const std::size_t used = cfg_.unifiedQueue
        ? readQ_.size() + writeQ_.size()
        : (type == ReqType::Write ? writeQ_ : readQ_).size();
    return used < cfg_.queueEntries;
}

bool
DramChannel::enqueue(MemRequest req, const DramCoord &coord,
                     DramCycle now)
{
    if (!hasRoom(req.type)) {
        ++stats_.enqueueRejects;
        if (observer_)
            observer_->onReject(id_, req, now);
        return false;
    }
    sched_.onEnqueue(id_, req, coord, now);
    if (observer_)
        observer_->onEnqueue(id_, req, coord, now);
    const bool isWrite = req.type == ReqType::Write;
    if (!isWrite && req.crit > 0)
        ++critQueued_;
    const std::size_t q = isWrite ? kWriteQ : kReadQ;
    std::vector<Transaction> &entries = queue(q);
    // An arrival changes no bank state: it joins its bank's class.
    const std::uint64_t bit = std::uint64_t{1} << entries.size();
    const std::uint32_t bi = bankIdx(coord.rank, coord.bank);
    BankEntries &bank = entries_[q][bi];
    bank.all |= bit;
    occupied_[q][bi / 64] |= std::uint64_t{1} << (bi % 64);
    const BankReady &at = bankReady_[bi];
    std::size_t cmd = static_cast<std::size_t>(at.missCmd);
    DramCycle bankAt = at.missAt;
    if (banks_.open[bi] && banks_.row[bi] == coord.row) {
        bank.hit |= bit;
        cmd = casCmd(q);
        bankAt = at.hitAt[q];
    }
    if (!earliestStale_) {
        earliest_[q] = std::min(
            earliest_[q], std::max(bankAt, rankReady_[coord.rank][cmd]));
    }
    entries.emplace_back(std::move(req), coord, now);
    return true;
}

bool
DramChannel::promote(Addr addr, CoreId core, CritLevel crit)
{
    for (auto &trans : readQ_) {
        if (trans.req.addr == addr && trans.req.core == core &&
            trans.req.type == ReqType::Read) {
            const CritLevel previous = trans.req.crit;
            CritLevel applied = std::max(previous, crit);
            if (injector_ && injector_->corruptPromotion(lastTick_))
                applied = 0;
            trans.req.crit = applied;
            critQueued_ += (applied > 0) - (previous > 0);
            if (observer_) {
                observer_->onPromote(id_, addr, core, previous, crit,
                                     applied, lastTick_);
            }
            return true;
        }
    }
    return false;
}

DramCycle
DramChannel::dataBusFreeFor(std::uint32_t rank) const
{
    if (busFreeAt_ == 0)
        return 0;
    return busFreeAt_ + (rank != lastBusRank_ ? cfg_.t.tRTRS : 0);
}

void
DramChannel::popCompletions(DramCycle now)
{
    completions_.drain(now, [&](DramCycle at, const Completion &done) {
        const MemRequest &req = done.req;
        if (injector_ && injector_->dropCompletion(req, now))
            return; // fault: the data burst vanishes untraced
        lastProgress_ = now;
        if (req.type != ReqType::Write)
            stats_.readLatency.sample(at - done.arrival);
        sched_.onComplete(id_, req, now);
        if (observer_)
            observer_->onComplete(id_, req, now);
        if (fill_ && req.type != ReqType::Write)
            fill_->onFill(req);
    });
}

bool
DramChannel::refreshTick(DramCycle now)
{
    for (std::uint32_t r = 0; r < cfg_.ranksPerChannel; ++r) {
        RankState &rank = ranks_[r];
        if (!rank.refreshPending) {
            if (now >= rank.refreshDue) {
                if (injector_ && injector_->skipRefresh(r, now)) {
                    // Fault: the due refresh silently never happens.
                    rank.refreshDue += cfg_.t.tREFI;
                    continue;
                }
                rank.refreshPending = true;
                updateRankReady();
                earliestStale_ = true;
            } else {
                continue;
            }
        }
        // Close any open bank as soon as its precharge is legal.
        bool allClosed = true;
        DramCycle readyRef = 0;
        const std::uint32_t base = bankIdx(r, 0);
        for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b) {
            const std::uint32_t bi = base + b;
            if (banks_.open[bi]) {
                allClosed = false;
                if (now >= banks_.readyPre[bi]) {
                    if (observer_) {
                        DramCoord coord;
                        coord.channel = id_;
                        coord.rank = r;
                        coord.bank = b;
                        coord.row = banks_.row[bi];
                        observer_->onCommand(id_, DramCmd::Pre, coord,
                                             now);
                    }
                    banks_.open[bi] = 0;
                    banks_.readyAct[bi] =
                        std::max(banks_.readyAct[bi], now + cfg_.t.tRP);
                    // The pending rank offers nothing until its REF, so
                    // earliest_ stands.
                    clearRowHits(bi);
                    bankReady(bi);
                    ++stats_.precharges;
                    lastProgress_ = now;
                    return true; // consumed the command bus
                }
            } else {
                readyRef = std::max(readyRef, banks_.readyAct[bi]);
            }
        }
        // REF waits for every bank's effective ACT window, so the
        // rank's tRRD window has passed and assigning tRFC to the
        // bank windows below is exact.
        readyRef = std::max(readyRef, rank.readyAct);
        if (allClosed && now >= readyRef) {
            for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b) {
                banks_.readyAct[base + b] = now + cfg_.t.tRFC;
                bankReady(base + b);
            }
            rank.refreshPending = false;
            updateRankReady();
            earliestStale_ = true;
            rank.refreshDue += cfg_.t.tREFI;
            ++stats_.refreshes;
            lastProgress_ = now;
            if (observer_) {
                DramCoord coord;
                coord.channel = id_;
                coord.rank = r;
                observer_->onCommand(id_, DramCmd::Ref, coord, now);
            }
            return true;
        }
        // A pending refresh that cannot act yet does not consume the
        // bus; other ranks may still be scheduled.
    }
    return false;
}

void
DramChannel::bankReady(std::uint32_t bi)
{
    ++readinessEvals_;
    BankReady &ready = bankReady_[bi];
    ready.hitAt = {banks_.readyRead[bi], banks_.readyWrite[bi]};
    if (banks_.open[bi]) {
        ready.missCmd = DramCmd::Pre;
        ready.missAt = banks_.readyPre[bi];
    } else {
        ready.missCmd = DramCmd::Act;
        ready.missAt = banks_.readyAct[bi];
    }
}

void
DramChannel::markRowHits(std::uint32_t bi)
{
    const std::uint64_t row = banks_.row[bi];
    for (std::size_t q : {kReadQ, kWriteQ}) {
        const std::vector<Transaction> &entries = queue(q);
        BankEntries &bank = entries_[q][bi];
        bank.hit = 0;
        for (std::uint64_t bits = bank.all; bits != 0; bits &= bits - 1) {
            const int i = std::countr_zero(bits);
            if (entries[i].coord.row == row)
                bank.hit |= std::uint64_t{1} << i;
        }
    }
}

void
DramChannel::clearRowHits(std::uint32_t bi)
{
    entries_[kReadQ][bi].hit = 0;
    entries_[kWriteQ][bi].hit = 0;
}

DramChannel::Transaction
DramChannel::eraseEntry(std::size_t q, std::uint32_t pos)
{
    std::vector<Transaction> &entries = queue(q);
    Transaction trans = std::move(entries[pos]);
    entries.erase(entries.begin() + pos);
    // Every later entry moves down one position: keep the bits below
    // pos, shift the ones above it down (dropping bit pos itself).
    const std::uint64_t below = (std::uint64_t{1} << pos) - 1;
    const std::vector<std::uint64_t> &occupied = occupied_[q];
    for (std::size_t w = 0; w < occupied.size(); ++w) {
        for (std::uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
            BankEntries &bank = entries_[q][w * 64 + std::countr_zero(bits)];
            bank.all = (bank.all & below) | ((bank.all >> 1) & ~below);
            bank.hit = (bank.hit & below) | ((bank.hit >> 1) & ~below);
        }
    }
    const std::uint32_t bi = bankIdx(trans.coord.rank, trans.coord.bank);
    if (entries_[q][bi].all == 0)
        occupied_[q][bi / 64] &= ~(std::uint64_t{1} << (bi % 64));
    return trans;
}

void
DramChannel::updateRankReady()
{
    const DramTiming &t = cfg_.t;
    for (std::uint32_t r = 0; r < cfg_.ranksPerChannel; ++r) {
        const RankState &rank = ranks_[r];
        CmdCycles &at = rankReady_[r];
        // A rank with a refresh pending offers nothing; its entries
        // come back when REF re-evaluates every bank of the rank.
        if (rank.refreshPending) {
            at.fill(kNoCycle);
            continue;
        }
        // A CAS must also find the shared data bus free when its
        // burst starts, CAS latency after the command.
        const DramCycle busFree = dataBusFreeFor(r);
        auto casAt = [busFree](DramCycle ready, DramCycle casLead) {
            return std::max(ready,
                            busFree > casLead ? busFree - casLead : 0);
        };
        at[static_cast<std::size_t>(DramCmd::Act)] =
            std::max(rank.readyAct, rank.fawReady(t.tFAW));
        at[static_cast<std::size_t>(DramCmd::Read)] =
            casAt(rank.readyRead, t.tCL);
        at[static_cast<std::size_t>(DramCmd::Write)] =
            casAt(rank.readyWrite, t.tWL);
        at[static_cast<std::size_t>(DramCmd::Pre)] = 0;
    }
}

namespace
{

/** @p at when @p present, else kNoCycle (all ones), without a branch. */
DramCycle
orNone(DramCycle at, bool present)
{
    return at | (static_cast<DramCycle>(present) - 1);
}

/** @p bits when @p keep, else 0, without a branch. */
std::uint64_t
keepIf(std::uint64_t bits, bool keep)
{
    return bits & (0 - static_cast<std::uint64_t>(keep));
}

} // namespace

void
DramChannel::refreshEarliest() const
{
    const std::array<QueueScan, 2> queues = scan(0, 0);
    earliest_ = {queues[kReadQ].earliest, queues[kWriteQ].earliest};
    earliestStale_ = false;
}

std::array<DramChannel::QueueScan, 2>
DramChannel::scan(DramCycle now, std::uint32_t slack) const
{
    // Which classes are empty is data, so the pass selects with masks
    // instead of branching. The EarlyCas slack moves row-hit CASes
    // earlier only, and leaves the minima alone. Both queues share a
    // bank's miss class part.
    const DramCycle hitBy = now + slack;
    QueueScan reads;
    QueueScan writes;
    const std::vector<std::uint64_t> &readBanks = occupied_[kReadQ];
    const std::vector<std::uint64_t> &writeBanks = occupied_[kWriteQ];
    for (std::size_t w = 0; w < readBanks.size(); ++w) {
        for (std::uint64_t bits = readBanks[w] | writeBanks[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t bi = w * 64 + std::countr_zero(bits);
            const BankReady &at = bankReady_[bi];
            const CmdCycles &rankAt = rankReady_[at.rank];
            const DramCycle missAt = std::max(
                at.missAt, rankAt[static_cast<std::size_t>(at.missCmd)]);
            const bool missReady = missAt <= now;
            auto fold = [&](QueueScan &queue, std::size_t q) {
                const BankEntries &bank = entries_[q][bi];
                const DramCycle hitAt =
                    std::max(at.hitAt[q], rankAt[casCmd(q)]);
                const std::uint64_t misses = bank.all & ~bank.hit;
                queue.hit |= keepIf(bank.hit, hitAt <= hitBy);
                queue.miss |= keepIf(misses, missReady);
                queue.earliest = std::min(queue.earliest,
                                          orNone(hitAt, bank.hit != 0));
                queue.earliest =
                    std::min(queue.earliest, orNone(missAt, misses != 0));
            };
            fold(reads, kReadQ);
            fold(writes, kWriteQ);
        }
    }
    return {reads, writes};
}

void
DramChannel::emitCandidates(std::size_t q, const QueueScan &ready)
{
    const bool isWrite = q == kWriteQ;
    const std::vector<Transaction> &entries = queue(q);
    for (std::uint64_t bits = ready.hit | ready.miss; bits != 0;
         bits &= bits - 1) {
        const int i = std::countr_zero(bits);
        const Transaction &trans = entries[i];
        ++entriesRead_;
        if (injector_ && injector_->starveCore(trans.req.core))
            continue; // fault: scheduler never sees this core
        const bool rowHit = (ready.hit >> i) & 1;

        SchedCandidate &cand = cands_.emplace_back();
        cand.queueIndex = static_cast<std::uint32_t>(i);
        cand.coord = trans.coord;
        cand.isWrite = isWrite;
        cand.isPrefetch = trans.req.type == ReqType::Prefetch;
        cand.core = trans.req.core;
        cand.crit = trans.req.crit;
        cand.arrival = trans.arrival;
        cand.seq = trans.req.id;
        cand.cmd = rowHit
            ? (isWrite ? DramCmd::Write : DramCmd::Read)
            : bankReady_[bankIdx(trans.coord.rank, trans.coord.bank)]
                  .missCmd;
        cand.rowHit = rowHit;
    }
}

bool
DramChannel::writesEligible() const
{
    if (cfg_.unifiedQueue)
        return true;
    // Split-queue mode: drain writes under a high/low watermark or
    // opportunistically when no read is pending. Project the
    // hysteresis forward from the stored state so const callers
    // (nextEventCycle) see the decision the next tick would make.
    const std::uint32_t hi = cfg_.queueEntries * 3 / 4;
    const std::uint32_t lo = cfg_.queueEntries / 4;
    bool draining = draining_;
    if (!draining && writeQ_.size() >= hi)
        draining = true;
    else if (draining && writeQ_.size() <= lo)
        draining = false;
    return draining || (readQ_.empty() && !writeQ_.empty());
}

void
DramChannel::buildCandidates(DramCycle now)
{
    cands_.clear();

    if (!cfg_.unifiedQueue) {
        const std::uint32_t hi = cfg_.queueEntries * 3 / 4;
        const std::uint32_t lo = cfg_.queueEntries / 4;
        if (!draining_ && writeQ_.size() >= hi)
            draining_ = true;
        else if (draining_ && writeQ_.size() <= lo)
            draining_ = false;
    }
    const bool writes = writesEligible();
    if (!earliestStale_ && !injector_ &&
        std::min(earliest_[kReadQ], writes ? earliest_[kWriteQ] : kNoCycle) >
            now)
        return;

    // EarlyCas fault: pretend CAS timing windows open `slack` cycles
    // sooner than they really do (a row hit ready by now + slack is
    // issuable). issue() applies honest timings, so the shadow
    // checker sees a genuinely premature command.
    const std::uint32_t slack = injector_ ? injector_->casSlack(now) : 0;

    // Candidates in queue order: reads, then eligible writes. The scan
    // covers the write queue while writes are not eligible too, which
    // keeps its minimum.
    const std::array<QueueScan, 2> queues = scan(now, slack);
    if (earliestStale_) {
        earliest_ = {queues[kReadQ].earliest, queues[kWriteQ].earliest};
        earliestStale_ = false;
    }
    emitCandidates(kReadQ, queues[kReadQ]);
    if (writes)
        emitCandidates(kWriteQ, queues[kWriteQ]);
}

void
DramChannel::applyRead(const DramCoord &c, DramCycle now)
{
    const DramTiming &t = cfg_.t;
    const std::uint32_t bi = bankIdx(c.rank, c.bank);
    const DramCycle burstEnd = now + t.tCL + t.dataCycles();

    banks_.readyPre[bi] = std::max(banks_.readyPre[bi], now + t.tRTP);
    // Read-to-write turnaround: the write burst must start after the
    // read burst clears the bus plus a rank switch gap.
    RankState &rank = ranks_[c.rank];
    rank.readyRead = std::max(rank.readyRead, now + t.tCCD);
    rank.readyWrite =
        std::max(rank.readyWrite, burstEnd + t.tRTRS - t.tWL);
    busFreeAt_ = burstEnd;
    lastBusRank_ = c.rank;
    stats_.busyDataCycles += t.dataCycles();
}

void
DramChannel::applyWrite(const DramCoord &c, DramCycle now)
{
    const DramTiming &t = cfg_.t;
    const DramCycle burstEnd = now + t.tWL + t.dataCycles();

    const std::uint32_t bi = bankIdx(c.rank, c.bank);
    banks_.readyPre[bi] =
        std::max(banks_.readyPre[bi], burstEnd + t.tWR);
    RankState &rank = ranks_[c.rank];
    rank.readyWrite = std::max(rank.readyWrite, now + t.tCCD);
    rank.readyRead = std::max(rank.readyRead, burstEnd + t.tWTR);
    busFreeAt_ = burstEnd;
    lastBusRank_ = c.rank;
    stats_.busyDataCycles += t.dataCycles();
}

void
DramChannel::maybeAutoPrecharge(const DramCoord &coord, DramCycle now)
{
    if (!cfg_.closedPage)
        return;
    // Keep the row open while any queued transaction still wants it:
    // the CAS hit the open row, so those are the bank's hit bits.
    const std::uint32_t bi = bankIdx(coord.rank, coord.bank);
    if ((entries_[kReadQ][bi].hit | entries_[kWriteQ][bi].hit) != 0)
        return;
    // CAS-with-auto-precharge: the bank closes once its restore
    // window (already folded into readyPre by applyRead/applyWrite)
    // elapses; model it as an immediate close whose next activate
    // honors that window plus tRP. No hit bit is left to clear.
    banks_.open[bi] = 0;
    banks_.readyAct[bi] =
        std::max(banks_.readyAct[bi], banks_.readyPre[bi] + cfg_.t.tRP);
    ++stats_.autoPrecharges;
    if (observer_)
        observer_->onAutoPrecharge(id_, coord, now);
}

void
DramChannel::issue(const SchedCandidate &cand, DramCycle now)
{
    const DramTiming &t = cfg_.t;
    const std::uint32_t bi = bankIdx(cand.coord.rank, cand.coord.bank);

    lastProgress_ = now;
    if (observer_)
        observer_->onCommand(id_, cand.cmd, cand.coord, now);

    switch (cand.cmd) {
      case DramCmd::Act: {
        RankState &rank = ranks_[cand.coord.rank];
        rank.recordAct(now);
        // tRRD also covers the ACT's own bank: exact while tRC >= tRRD
        // (DramTiming::validate), as tRC below dominates it there.
        rank.readyAct = std::max(rank.readyAct, now + t.tRRD);
        banks_.open[bi] = 1;
        banks_.row[bi] = cand.coord.row;
        banks_.readyRead[bi] = std::max(banks_.readyRead[bi], now + t.tRCD);
        banks_.readyWrite[bi] =
            std::max(banks_.readyWrite[bi], now + t.tRCD);
        banks_.readyPre[bi] = std::max(banks_.readyPre[bi], now + t.tRAS);
        banks_.readyAct[bi] = std::max(banks_.readyAct[bi], now + t.tRC);
        markRowHits(bi);
        ++stats_.activates;
        ++stats_.rowMisses;
        break;
      }

      case DramCmd::Read: {
        applyRead(cand.coord, now);
        ++stats_.reads;
        ++stats_.rowHits;
        const Transaction trans = eraseEntry(kReadQ, cand.queueIndex);
        critQueued_ -= trans.req.crit > 0;
        completions_.push(now + t.tCL + t.dataCycles(),
                          Completion{trans.req, trans.arrival});
        maybeAutoPrecharge(cand.coord, now);
        break;
      }

      case DramCmd::Write: {
        applyWrite(cand.coord, now);
        ++stats_.writes;
        ++stats_.rowHits;
        const Transaction trans = eraseEntry(kWriteQ, cand.queueIndex);
        completions_.push(now + t.tWL + t.dataCycles(),
                          Completion{trans.req, trans.arrival});
        maybeAutoPrecharge(cand.coord, now);
        break;
      }

      case DramCmd::Pre:
        banks_.open[bi] = 0;
        banks_.readyAct[bi] = std::max(banks_.readyAct[bi], now + t.tRP);
        clearRowHits(bi);
        ++stats_.precharges;
        ++stats_.rowConflicts;
        break;

      case DramCmd::Ref:
        panic("refresh is issued by the refresh engine, not pick()");
    }
    // Every command changes only its own bank and its bits; the
    // closed-page auto-precharge after a CAS closes that same bank.
    // A CAS shifts other banks' bits too, but moves no entry between
    // classes there.
    bankReady(bi);
    if (cand.cmd != DramCmd::Pre)
        updateRankReady();
    earliestStale_ = true;

    sched_.onIssue(id_, cand, now);
}

void
DramChannel::tick(DramCycle now)
{
    lastTick_ = now;
    popCompletions(now);

    stats_.readQueueOcc.sample(static_cast<double>(readQ_.size()));
    stats_.critInQueue.sample(static_cast<double>(critQueued_));

    if (refreshTick(now))
        return;

    if (readQ_.empty() && writeQ_.empty()) {
        // No queued work: idling is progress, not a stall.
        lastProgress_ = now;
        return;
    }

    buildCandidates(now);
    if (cands_.empty()) {
        ++stats_.idleNoCandidate;
        checkWatchdog(now);
        return;
    }

    const int choice =
        sched_.pick(id_, cands_, now);
    if (choice < 0) {
        checkWatchdog(now);
        return;
    }
    if (static_cast<std::size_t>(choice) >= cands_.size())
        panic("scheduler '", sched_.name(), "' picked candidate ",
              choice, " of ", cands_.size());
    issue(cands_[choice], now);
}

DramCycle
DramChannel::nextEventCycle(DramCycle now) const
{
    if (injector_)
        return now + 1; // faults are probed every cycle: never skip

    DramCycle next = completions_.next(now);

    // Refresh engine events: a rank crossing its tREFI deadline, a
    // pending refresh becoming able to PRE an open bank, or REF
    // becoming legal once every bank's activate window has drained.
    for (std::uint32_t r = 0; r < cfg_.ranksPerChannel; ++r) {
        const RankState &rank = ranks_[r];
        if (!rank.refreshPending) {
            next = std::min(next, rank.refreshDue);
            continue;
        }
        bool allClosed = true;
        DramCycle readyRef = 0;
        DramCycle preAt = kNoCycle;
        const std::uint32_t base = bankIdx(r, 0);
        for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b) {
            if (banks_.open[base + b]) {
                allClosed = false;
                preAt = std::min(preAt, banks_.readyPre[base + b]);
            } else {
                readyRef = std::max(readyRef, banks_.readyAct[base + b]);
            }
        }
        readyRef = std::max(readyRef, rank.readyAct);
        next = std::min(next, allClosed ? readyRef : preAt);
    }

    if (!readQ_.empty() || !writeQ_.empty()) {
        // The watchdog only fires while queued work exists; stop the
        // skip at its threshold so onStall() triggers on schedule.
        if (watchdogCycles_ != 0 && observer_)
            next = std::min(next, lastProgress_ + watchdogCycles_);

        // Earliest cycle any queued transaction becomes issuable.
        // Transactions on refresh-pending ranks resurface via the
        // refresh events above.
        if (earliestStale_)
            refreshEarliest();
        next = std::min(next, earliest_[kReadQ]);
        if (writesEligible())
            next = std::min(next, earliest_[kWriteQ]);
    }

    if (next == kNoCycle)
        return kNoCycle;
    return std::max(next, now + 1);
}

void
DramChannel::skipTo(DramCycle to)
{
    const std::uint64_t n = to - lastTick_;
    if (n == 0)
        return;
    lastTick_ = to;

    // Replay tick()'s per-cycle idle accounting for the n skipped
    // cycles: queue contents are frozen inside a certified window, so
    // every skipped cycle samples the same occupancy values.
    stats_.readQueueOcc.sampleN(static_cast<double>(readQ_.size()), n);
    stats_.critInQueue.sampleN(static_cast<double>(critQueued_), n);

    if (readQ_.empty() && writeQ_.empty()) {
        // No queued work: idling is progress, not a stall.
        lastProgress_ = to;
    } else {
        // Queued work but (certified) nothing issuable all window.
        stats_.idleNoCandidate += n;
    }
}

void
DramChannel::checkWatchdog(DramCycle now)
{
    if (watchdogCycles_ == 0 || !observer_)
        return;
    if (now - lastProgress_ >= watchdogCycles_)
        observer_->onStall(*this, now);
}

ChannelSnapshot
DramChannel::snapshot(DramCycle now) const
{
    ChannelSnapshot snap;
    snap.channel = id_;
    snap.now = now;
    snap.scheduler = sched_.name();
    snap.completionsPending = completions_.size();
    snap.busFreeAt = busFreeAt_;
    snap.draining = draining_;

    auto capture = [](const std::vector<Transaction> &queue) {
        std::vector<ChannelSnapshot::QueueEntry> out;
        out.reserve(queue.size());
        for (const Transaction &trans : queue) {
            ChannelSnapshot::QueueEntry e;
            e.addr = trans.req.addr;
            e.type = trans.req.type;
            e.core = trans.req.core;
            e.crit = trans.req.crit;
            e.arrival = trans.arrival;
            e.id = trans.req.id;
            e.coord = trans.coord;
            out.push_back(e);
        }
        return out;
    };
    snap.readQ = capture(readQ_);
    snap.writeQ = capture(writeQ_);

    snap.banks.reserve(banks_.size());
    // Each bank reports its effective windows: its own and its rank's.
    for (std::size_t i = 0; i < banks_.size(); ++i) {
        const RankState &r = ranks_[i / cfg_.banksPerRank];
        ChannelSnapshot::Bank bank;
        bank.open = banks_.open[i] != 0;
        bank.row = banks_.row[i];
        bank.readyAct = std::max(banks_.readyAct[i], r.readyAct);
        bank.readyRead = std::max(banks_.readyRead[i], r.readyRead);
        bank.readyWrite = std::max(banks_.readyWrite[i], r.readyWrite);
        bank.readyPre = banks_.readyPre[i];
        snap.banks.push_back(bank);
    }
    snap.ranks.reserve(ranks_.size());
    for (const RankState &r : ranks_) {
        ChannelSnapshot::Rank rank;
        rank.refreshDue = r.refreshDue;
        rank.refreshPending = r.refreshPending;
        for (std::size_t k = 0; k < r.actTimes.size(); ++k) {
            rank.lastActs[k] =
                r.actTimes[(r.actHead + k) % r.actTimes.size()];
        }
        rank.readyAct = r.readyAct;
        rank.readyRead = r.readyRead;
        rank.readyWrite = r.readyWrite;
        snap.ranks.push_back(rank);
    }
    snap.lastBusRank = lastBusRank_;
    return snap;
}

} // namespace critmem

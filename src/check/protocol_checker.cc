#include "check/protocol_checker.hh"

#include <algorithm>
#include <sstream>

#include "check/diagnostics.hh"
#include "dram/channel.hh"
#include "dram/dram.hh"

namespace critmem
{

namespace
{

/** max of @p terms, ignoring the 0 = "never happened" sentinel. */
DramCycle
maxKnown(std::initializer_list<DramCycle> terms)
{
    DramCycle best = 0;
    for (DramCycle t : terms)
        best = std::max(best, t);
    return best;
}

std::string
coordStr(const DramCoord &c)
{
    return "rank " + std::to_string(c.rank) + " bank " +
        std::to_string(c.bank) + " row " + std::to_string(c.row);
}

} // namespace

ProtocolChecker::ProtocolChecker(const CheckConfig &check,
                                 const DramConfig &dram)
    : check_(check), t_(dram.t), channels_(dram.channels)
{
    for (auto &ch : channels_) {
        ch.ranks.resize(dram.ranksPerChannel);
        for (auto &rank : ch.ranks)
            rank.banks.resize(dram.banksPerRank);
    }
}

void
ProtocolChecker::attach(DramSystem &dram)
{
    dram.setObserver(this, check_.watchdogCycles);
}

void
ProtocolChecker::record(RuleId rule, std::uint32_t channel,
                        DramCycle now, std::string message,
                        bool forceThrow)
{
    Violation v{rule, channel, now, std::move(message)};
    ++countsByRule_[rule];
    ++total_;
    if (violations_.size() < kMaxViolations)
        violations_.push_back(v);
    if (check_.failFast || forceThrow)
        throw CheckViolation(std::move(v));
}

bool
ProtocolChecker::hasRule(RuleId rule) const
{
    return countsByRule_.count(rule) != 0;
}

void
ProtocolChecker::onEnqueue(std::uint32_t channel, const MemRequest &req,
                           const DramCoord &coord, DramCycle now)
{
    (void)coord;
    auto [it, inserted] = outstanding_.emplace(
        req.id, Pending{channel, req.addr, req.core, now, false});
    if (!inserted) {
        record(RuleId::DuplicateId, channel, now,
               "request id " + std::to_string(req.id) +
                   " enqueued while a request with the same id is "
                   "still in flight (first enqueued at cycle " +
                   std::to_string(it->second.enqueued) + ")");
    }
}

void
ProtocolChecker::onReject(std::uint32_t channel, const MemRequest &req,
                          DramCycle now)
{
    (void)req; (void)now;
    ++channels_[channel].counters.rejects;
}

void
ProtocolChecker::checkAct(ChannelShadow &ch, std::uint32_t channel,
                          const DramCoord &c, DramCycle now)
{
    RankShadow &rank = ch.ranks[c.rank];
    BankShadow &bank = rank.banks[c.bank];

    if (bank.open) {
        record(RuleId::ActOnOpenBank, channel, now,
               "ACT to " + coordStr(c) + " while row " +
                   std::to_string(bank.row) + " is open");
    }
    if (bank.lastPre != 0 && now < bank.lastPre + t_.tRP) {
        record(RuleId::Trp, channel, now,
               "ACT to " + coordStr(c) + " only " +
                   std::to_string(now - bank.lastPre) +
                   " cycles after precharge (tRP=" +
                   std::to_string(t_.tRP) + ")");
    }
    if (bank.lastAct != 0 && now < bank.lastAct + t_.tRC) {
        record(RuleId::Trc, channel, now,
               "ACT to " + coordStr(c) + " only " +
                   std::to_string(now - bank.lastAct) +
                   " cycles after previous ACT (tRC=" +
                   std::to_string(t_.tRC) + ")");
    }
    if (rank.lastActAny != 0 && rank.lastActAny != bank.lastAct &&
        now < rank.lastActAny + t_.tRRD) {
        record(RuleId::Trrd, channel, now,
               "ACT to " + coordStr(c) + " only " +
                   std::to_string(now - rank.lastActAny) +
                   " cycles after an ACT to the same rank (tRRD=" +
                   std::to_string(t_.tRRD) + ")");
    }
    const DramCycle oldest = rank.actTimes[rank.actHead];
    if (oldest != 0 && now < oldest + t_.tFAW) {
        record(RuleId::Tfaw, channel, now,
               "fifth ACT to rank " + std::to_string(c.rank) +
                   " only " + std::to_string(now - oldest) +
                   " cycles after the fourth-last (tFAW=" +
                   std::to_string(t_.tFAW) + ")");
    }
    if (rank.lastRef != 0 && now < rank.lastRef + t_.tRFC) {
        record(RuleId::Trfc, channel, now,
               "ACT to " + coordStr(c) + " only " +
                   std::to_string(now - rank.lastRef) +
                   " cycles after REF (tRFC=" +
                   std::to_string(t_.tRFC) + ")");
    }

    bank.open = true;
    bank.row = c.row;
    bank.lastAct = now;
    rank.lastActAny = now;
    rank.actTimes[rank.actHead] = now;
    rank.actHead =
        (rank.actHead + 1) % static_cast<std::uint32_t>(
            rank.actTimes.size());
    ++ch.counters.activates;
}

void
ProtocolChecker::checkCas(ChannelShadow &ch, std::uint32_t channel,
                          bool isWrite, const DramCoord &c,
                          DramCycle now)
{
    RankShadow &rank = ch.ranks[c.rank];
    BankShadow &bank = rank.banks[c.bank];
    const char *what = isWrite ? "write CAS" : "read CAS";

    if (!bank.open || bank.row != c.row) {
        record(RuleId::CasIllegal, channel, now,
               std::string(what) + " to " + coordStr(c) +
                   (bank.open
                        ? " but row " + std::to_string(bank.row) +
                              " is open"
                        : " but the bank is closed"));
    } else if (bank.lastAct != 0 && now < bank.lastAct + t_.tRCD) {
        record(RuleId::Trcd, channel, now,
               std::string(what) + " to " + coordStr(c) + " only " +
                   std::to_string(now - bank.lastAct) +
                   " cycles after ACT (tRCD=" +
                   std::to_string(t_.tRCD) + ")");
    }

    const DramCycle lastSame =
        isWrite ? rank.lastWriteCas : rank.lastReadCas;
    if (lastSame != 0 && now < lastSame + t_.tCCD) {
        record(RuleId::Tccd, channel, now,
               std::string(what) + " to " + coordStr(c) + " only " +
                   std::to_string(now - lastSame) +
                   " cycles after the previous same-type CAS (tCCD=" +
                   std::to_string(t_.tCCD) + ")");
    }
    if (!isWrite && rank.lastWriteBurstEnd != 0 &&
        now < rank.lastWriteBurstEnd + t_.tWTR) {
        record(RuleId::Twtr, channel, now,
               "read CAS to " + coordStr(c) + " only " +
                   std::to_string(now - rank.lastWriteBurstEnd) +
                   " cycles after a write burst ended (tWTR=" +
                   std::to_string(t_.tWTR) + ")");
    }
    if (isWrite && rank.lastReadBurstEnd != 0 &&
        now + t_.tWL < rank.lastReadBurstEnd + t_.tRTRS) {
        record(RuleId::Trtw, channel, now,
               "write CAS to " + coordStr(c) +
                   " would start its burst inside the preceding read "
                   "burst's turnaround window");
    }

    // Data-bus booking: a burst may not overlap the previous one, and
    // switching ranks costs an extra tRTRS gap.
    const DramCycle start = now + (isWrite ? t_.tWL : t_.tCL);
    if (ch.busEnd != 0) {
        const DramCycle free =
            ch.busEnd + (c.rank != ch.busRank ? t_.tRTRS : 0);
        if (start < free) {
            record(RuleId::DataBusConflict, channel, now,
                   std::string(what) + " to " + coordStr(c) +
                       " starts its data burst at " +
                       std::to_string(start) +
                       " but the bus is booked until " +
                       std::to_string(free));
        }
    }
    ch.busEnd = start + t_.dataCycles();
    ch.busRank = c.rank;

    if (isWrite) {
        rank.lastWriteCas = now;
        rank.lastWriteBurstEnd = now + t_.tWL + t_.dataCycles();
        bank.lastWriteEnd = rank.lastWriteBurstEnd;
        ++ch.counters.writes;
    } else {
        rank.lastReadCas = now;
        rank.lastReadBurstEnd = now + t_.tCL + t_.dataCycles();
        bank.lastRead = now;
        ++ch.counters.reads;
    }
}

void
ProtocolChecker::checkPre(ChannelShadow &ch, std::uint32_t channel,
                          const DramCoord &c, DramCycle now)
{
    BankShadow &bank = ch.ranks[c.rank].banks[c.bank];

    if (!bank.open) {
        record(RuleId::PreOnClosedBank, channel, now,
               "PRE to " + coordStr(c) + " but no row is open");
    }
    if (bank.lastAct != 0 && now < bank.lastAct + t_.tRAS) {
        record(RuleId::Tras, channel, now,
               "PRE to " + coordStr(c) + " only " +
                   std::to_string(now - bank.lastAct) +
                   " cycles after ACT (tRAS=" +
                   std::to_string(t_.tRAS) + ")");
    }
    if (bank.lastRead != 0 && now < bank.lastRead + t_.tRTP) {
        record(RuleId::Trtp, channel, now,
               "PRE to " + coordStr(c) + " only " +
                   std::to_string(now - bank.lastRead) +
                   " cycles after a read CAS (tRTP=" +
                   std::to_string(t_.tRTP) + ")");
    }
    if (bank.lastWriteEnd != 0 && now < bank.lastWriteEnd + t_.tWR) {
        record(RuleId::Twr, channel, now,
               "PRE to " + coordStr(c) + " inside the write recovery "
                   "window (tWR=" + std::to_string(t_.tWR) + ")");
    }

    bank.open = false;
    bank.lastPre = now;
    ++ch.counters.precharges;
}

void
ProtocolChecker::checkRef(ChannelShadow &ch, std::uint32_t channel,
                          std::uint32_t rankIdx, DramCycle now)
{
    RankShadow &rank = ch.ranks[rankIdx];

    for (std::uint32_t b = 0; b < rank.banks.size(); ++b) {
        BankShadow &bank = rank.banks[b];
        if (bank.open) {
            record(RuleId::RefIllegal, channel, now,
                   "REF to rank " + std::to_string(rankIdx) +
                       " while bank " + std::to_string(b) +
                       " still has row " + std::to_string(bank.row) +
                       " open");
        }
        if (bank.lastPre != 0 && now < bank.lastPre + t_.tRP) {
            record(RuleId::Trp, channel, now,
                   "REF to rank " + std::to_string(rankIdx) +
                       " before bank " + std::to_string(b) +
                       "'s precharge period elapsed");
        }
        if (bank.lastAct != 0 && now < bank.lastAct + t_.tRC) {
            record(RuleId::Trc, channel, now,
                   "REF to rank " + std::to_string(rankIdx) +
                       " before bank " + std::to_string(b) +
                       "'s tRC elapsed");
        }
    }
    if (rank.lastRef != 0 && now < rank.lastRef + t_.tRFC) {
        record(RuleId::Trfc, channel, now,
               "REF to rank " + std::to_string(rankIdx) + " only " +
                   std::to_string(now - rank.lastRef) +
                   " cycles after the previous REF (tRFC=" +
                   std::to_string(t_.tRFC) + ")");
    }

    // Refresh-interval deadline: each REF must land within
    // tREFI (+slack) of the previous one; the first one within the
    // staggered initial deadline, which is at most one full tREFI.
    const DramCycle bound = t_.tREFI + kRefreshSlack;
    const DramCycle since = now - rank.lastRef;
    if (since > bound) {
        record(RuleId::RefreshInterval, channel, now,
               "rank " + std::to_string(rankIdx) + " went " +
                   std::to_string(since) +
                   " cycles without a REF (tREFI=" +
                   std::to_string(t_.tREFI) + " + slack " +
                   std::to_string(kRefreshSlack) + ")");
    }

    rank.lastRef = now;
    ++ch.counters.refreshes;
}

void
ProtocolChecker::onCommand(std::uint32_t channel, DramCmd cmd,
                           const DramCoord &coord, DramCycle now)
{
    ChannelShadow &ch = channels_[channel];

    if (ch.lastCmdCycle == now) {
        record(RuleId::CmdBusConflict, channel, now,
               "second command on the command bus in one cycle");
    }
    ch.lastCmdCycle = now;
    lastSeenCycle_ = std::max(lastSeenCycle_, now);

    switch (cmd) {
      case DramCmd::Act:
        checkAct(ch, channel, coord, now);
        break;
      case DramCmd::Read:
        checkCas(ch, channel, false, coord, now);
        break;
      case DramCmd::Write:
        checkCas(ch, channel, true, coord, now);
        break;
      case DramCmd::Pre:
        checkPre(ch, channel, coord, now);
        break;
      case DramCmd::Ref:
        checkRef(ch, channel, coord.rank, now);
        break;
    }

    if (check_.starvationCycles &&
        now - lastStarvationScan_ >=
            std::max<std::uint64_t>(1, check_.starvationCycles / 4)) {
        lastStarvationScan_ = now;
        scanStarvation(now);
    }
}

void
ProtocolChecker::onAutoPrecharge(std::uint32_t channel,
                                 const DramCoord &coord, DramCycle now)
{
    ChannelShadow &ch = channels_[channel];
    BankShadow &bank = ch.ranks[coord.rank].banks[coord.bank];

    if (!bank.open) {
        record(RuleId::PreOnClosedBank, channel, now,
               "auto-precharge of " + coordStr(coord) +
                   " but no row is open");
    }
    // The bank closes once its restore window elapses; the effective
    // precharge anchor is the earliest legal PRE time, exactly what
    // the channel folds into readyPre.
    bank.open = false;
    bank.lastPre = maxKnown(
        {bank.lastAct != 0 ? bank.lastAct + t_.tRAS : 0,
         bank.lastRead != 0 ? bank.lastRead + t_.tRTP : 0,
         bank.lastWriteEnd != 0 ? bank.lastWriteEnd + t_.tWR : 0});
    ++ch.counters.autoPrecharges;
}

void
ProtocolChecker::onComplete(std::uint32_t channel, const MemRequest &req,
                            DramCycle now)
{
    auto it = outstanding_.find(req.id);
    if (it == outstanding_.end()) {
        record(RuleId::UnknownCompletion, channel, now,
               "completion for request id " + std::to_string(req.id) +
                   " (addr " + std::to_string(req.addr) +
                   ") that is not in flight");
        return;
    }
    outstanding_.erase(it);
}

void
ProtocolChecker::onPromote(std::uint32_t channel, Addr addr, CoreId core,
                           CritLevel previous, CritLevel requested,
                           CritLevel applied, DramCycle now)
{
    const CritLevel expected = std::max(previous, requested);
    if (applied < expected) {
        record(RuleId::CritDecrease, channel, now,
               "promotion of core " + std::to_string(core) +
                   " addr " + std::to_string(addr) + " applied level " +
                   std::to_string(applied) + " < max(previous " +
                   std::to_string(previous) + ", requested " +
                   std::to_string(requested) + ")");
    }
}

void
ProtocolChecker::onStall(const DramChannel &channel, DramCycle now)
{
    // A stalled channel would spin forever if we merely recorded the
    // event, so the watchdog always throws, failFast or not.
    const ChannelSnapshot snap = channel.snapshot(now);
    record(RuleId::Watchdog, snap.channel, now,
           "no forward progress; diagnostic snapshot:\n" +
               formatSnapshot(snap),
           /*forceThrow=*/true);
}

void
ProtocolChecker::scanStarvation(DramCycle now)
{
    for (auto &[id, pending] : outstanding_) {
        if (pending.starvationFlagged)
            continue;
        // DramSystem::enqueue stamps the next DRAM cycle, so a request
        // enqueued during tick `now` (a writeback evicted by a fill)
        // can carry `now + 1`: it has waited 0 cycles.
        const DramCycle waited =
            now > pending.enqueued ? now - pending.enqueued : 0;
        if (waited > check_.starvationCycles) {
            pending.starvationFlagged = true;
            record(RuleId::Starvation, pending.channel, now,
                   "request id " + std::to_string(id) + " from core " +
                       std::to_string(pending.core) + " (addr " +
                       std::to_string(pending.addr) +
                       ") outstanding for " + std::to_string(waited) +
                       " cycles (bound " +
                       std::to_string(check_.starvationCycles) + ")");
        }
    }
}

void
ProtocolChecker::finalize(bool requireDrained)
{
    if (requireDrained && !outstanding_.empty()) {
        const auto &[id, pending] = *outstanding_.begin();
        record(RuleId::LostRequest, pending.channel, lastSeenCycle_,
               std::to_string(outstanding_.size()) +
                   " request(s) never completed; oldest is id " +
                   std::to_string(id) + " from core " +
                   std::to_string(pending.core) +
                   " enqueued at cycle " +
                   std::to_string(pending.enqueued));
    }

    // Catch ranks whose refreshes stopped (or never started) even
    // when no further REF arrives to trigger the interval rule.
    const DramCycle bound = t_.tREFI + kRefreshSlack;
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        for (std::uint32_t r = 0; r < channels_[c].ranks.size(); ++r) {
            const DramCycle lastRef = channels_[c].ranks[r].lastRef;
            if (lastSeenCycle_ > lastRef + bound) {
                record(RuleId::RefreshInterval, c, lastSeenCycle_,
                       "rank " + std::to_string(r) +
                           " saw no REF for the last " +
                           std::to_string(lastSeenCycle_ - lastRef) +
                           " cycles of the run (tREFI=" +
                           std::to_string(t_.tREFI) + " + slack " +
                           std::to_string(kRefreshSlack) + ")");
            }
        }
    }
}

void
ProtocolChecker::checkScalar(const stats::Group &root,
                             const std::string &path,
                             std::uint64_t shadow, std::uint32_t channel)
{
    const stats::Scalar *stat = root.findScalar(path);
    if (stat == nullptr) {
        record(RuleId::StatsMismatch, channel, lastSeenCycle_,
               "stat '" + path + "' not found for cross-check");
        return;
    }
    if (stat->value() != shadow) {
        record(RuleId::StatsMismatch, channel, lastSeenCycle_,
               "stat '" + path + "' = " +
                   std::to_string(stat->value()) +
                   " but the checker observed " + std::to_string(shadow));
    }
}

void
ProtocolChecker::crossCheckStats(const stats::Group &root,
                                 const std::string &prefix)
{
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        const Counters &n = channels_[c].counters;
        const std::string base =
            prefix + "channel" + std::to_string(c) + ".";
        checkScalar(root, base + "activates", n.activates, c);
        checkScalar(root, base + "reads", n.reads, c);
        checkScalar(root, base + "writes", n.writes, c);
        checkScalar(root, base + "precharges", n.precharges, c);
        checkScalar(root, base + "refreshes", n.refreshes, c);
        checkScalar(root, base + "autoPrecharges", n.autoPrecharges, c);
        checkScalar(root, base + "enqueueRejects", n.rejects, c);
    }
}

void
ProtocolChecker::onStatsReset()
{
    for (auto &ch : channels_)
        ch.counters = Counters{};
}

std::string
ProtocolChecker::report() const
{
    std::ostringstream os;
    os << "protocol checker: " << total_ << " violation(s), "
       << outstanding_.size() << " request(s) in flight\n";
    for (const auto &[rule, count] : countsByRule_)
        os << "  " << toString(rule) << ": " << count << "\n";
    for (const auto &v : violations_) {
        os << "  [" << toString(v.rule) << "] channel " << v.channel
           << " cycle " << v.cycle << ": " << v.message << "\n";
    }
    return os.str();
}

} // namespace critmem

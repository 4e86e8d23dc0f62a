#include "check/diagnostics.hh"

#include <sstream>

namespace critmem
{

namespace
{

const char *
typeName(ReqType type)
{
    switch (type) {
      case ReqType::Read: return "R";
      case ReqType::Write: return "W";
      case ReqType::Prefetch: return "P";
    }
    return "?";
}

void
dumpQueue(std::ostringstream &os, const char *label,
          const std::vector<ChannelSnapshot::QueueEntry> &queue,
          DramCycle now, std::size_t cap)
{
    os << "  " << label << " (" << queue.size() << " entries)";
    if (queue.empty()) {
        os << ": empty\n";
        return;
    }
    os << ":\n";
    std::size_t shown = 0;
    for (const auto &e : queue) {
        if (cap && shown++ >= cap) {
            os << "    ... " << (queue.size() - cap) << " more\n";
            break;
        }
        os << "    id " << e.id << " " << typeName(e.type) << " addr 0x"
           << std::hex << e.addr << std::dec << " core " << e.core
           << " crit " << e.crit << " rank " << e.coord.rank << " bank "
           << e.coord.bank << " row " << e.coord.row << " age "
           << (now >= e.arrival ? now - e.arrival : 0) << "\n";
    }
}

} // namespace

std::string
formatSnapshot(const ChannelSnapshot &snap, std::size_t maxQueueEntries)
{
    std::ostringstream os;
    os << "channel " << snap.channel << " @ DRAM cycle " << snap.now
       << " (scheduler " << snap.scheduler << ")\n";
    os << "  data bus free at " << snap.busFreeAt << ", "
       << snap.completionsPending << " completions pending"
       << (snap.draining ? ", draining writes" : "") << "\n";

    dumpQueue(os, "read queue", snap.readQ, snap.now, maxQueueEntries);
    dumpQueue(os, "write queue", snap.writeQ, snap.now,
              maxQueueEntries);

    const std::size_t banksPerRank =
        snap.ranks.empty() ? snap.banks.size()
                           : snap.banks.size() / snap.ranks.size();
    for (std::size_t r = 0; r < snap.ranks.size(); ++r) {
        const auto &rank = snap.ranks[r];
        os << "  rank " << r << ": refresh due " << rank.refreshDue
           << (rank.refreshPending ? " (PENDING)" : "")
           << ", readyAct " << rank.readyAct << " readyRead "
           << rank.readyRead << " readyWrite " << rank.readyWrite
           << ", last ACTs";
        for (const DramCycle act : rank.lastActs)
            os << " " << act;
        if (snap.busFreeAt != 0 && r == snap.lastBusRank)
            os << ", last on data bus";
        os << "\n";
        for (std::size_t b = 0; b < banksPerRank; ++b) {
            const auto &bank = snap.banks[r * banksPerRank + b];
            os << "    bank " << b << ": ";
            if (bank.open)
                os << "open row " << bank.row;
            else
                os << "closed";
            os << ", readyAct " << bank.readyAct << " readyRead "
               << bank.readyRead << " readyWrite " << bank.readyWrite
               << " readyPre " << bank.readyPre << "\n";
        }
    }
    return os.str();
}

} // namespace critmem

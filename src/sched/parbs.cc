#include "sched/parbs.hh"

#include <algorithm>
#include <tuple>

namespace critmem
{

ParBsScheduler::ParBsScheduler(std::uint32_t channels,
                               std::uint32_t numCores,
                               std::uint32_t banksPerRank,
                               std::uint32_t markingCap)
    : mirror_(channels), numCores_(numCores), banksPerRank_(banksPerRank),
      markingCap_(markingCap),
      rank_(channels, std::vector<std::uint32_t>(numCores, 0)),
      marked_(channels)
{
}

void
ParBsScheduler::onEnqueue(std::uint32_t channel, const MemRequest &req,
                          const DramCoord &coord, DramCycle now)
{
    mirror_.onEnqueue(channel, req, coord, banksPerRank_, now);
}

void
ParBsScheduler::onIssue(std::uint32_t channel, const SchedCandidate &cand,
                        DramCycle)
{
    if (!cand.isCas())
        return;
    mirror_.onCas(channel, cand.seq);
    std::vector<std::uint64_t> &marked = marked_[channel];
    const auto it = std::lower_bound(marked.begin(), marked.end(), cand.seq);
    if (it != marked.end() && *it == cand.seq)
        marked.erase(it);
}

void
ParBsScheduler::formBatch(std::uint32_t channel)
{
    const auto &queue = mirror_.queue(channel);
    if (queue.empty())
        return;

    std::uint32_t banks = 0;
    for (const auto &entry : queue)
        banks = std::max(banks, entry.bank + 1);
    // Marked requests per (thread, bank), one row of banks per thread.
    std::vector<std::uint32_t> load(std::size_t{numCores_} * banks, 0);

    // Mark the markingCap oldest requests of every (thread, bank).
    // The mirror preserves arrival order, so a single in-order pass
    // suffices.
    std::vector<std::uint64_t> &marked = marked_[channel];
    marked.clear();
    for (const auto &entry : queue) {
        if (entry.core >= numCores_)
            continue; // writebacks carry no thread; they stay unmarked
        std::uint32_t &count = load[entry.core * banks + entry.bank];
        if (count < markingCap_) {
            ++count;
            marked.push_back(entry.id);
        }
    }
    std::sort(marked.begin(), marked.end());

    // Shortest-job-first thread ranking: primary key is the thread's
    // maximum marked load on any single bank (the "max rule"),
    // secondary its total marked requests.
    std::vector<std::uint32_t> maxLoad(numCores_, 0);
    std::vector<std::uint32_t> total(numCores_, 0);
    for (CoreId c = 0; c < numCores_; ++c) {
        for (std::uint32_t b = 0; b < banks; ++b) {
            const std::uint32_t count = load[c * banks + b];
            maxLoad[c] = std::max(maxLoad[c], count);
            total[c] += count;
        }
    }

    std::vector<CoreId> order(numCores_);
    for (CoreId c = 0; c < numCores_; ++c)
        order[c] = c;
    std::sort(order.begin(), order.end(), [&](CoreId a, CoreId b) {
        return std::tuple(maxLoad[a], total[a], a) <
            std::tuple(maxLoad[b], total[b], b);
    });
    for (std::uint32_t pos = 0; pos < numCores_; ++pos)
        rank_[channel][order[pos]] = pos;

    ++batchesFormed_;
}

int
ParBsScheduler::pick(std::uint32_t channel,
                     const std::vector<SchedCandidate> &cands, DramCycle)
{
    if (marked_[channel].empty())
        formBatch(channel);
    const std::vector<std::uint64_t> &marks = marked_[channel];

    // (unmarked, row-miss, thread rank, age).
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const bool marked =
            std::binary_search(marks.begin(), marks.end(), cand.seq);
        const std::uint32_t threadRank =
            cand.core < numCores_ ? rank_[channel][cand.core] : numCores_;
        return std::tuple(marked ? 0 : 1, cand.rowHit ? 0 : 1, threadRank,
                          cand.seq);
    });
}

} // namespace critmem

#include "sched/tcm.hh"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace critmem
{

TcmScheduler::TcmScheduler(std::uint32_t numCores, bool critTiebreak,
                           std::uint64_t seed, DramCycle quantum,
                           double clusterThresh)
    : numCores_(numCores), quantum_(quantum),
      clusterThresh_(clusterThresh), critTiebreak_(critTiebreak),
      rng_(seed ^ 0x7c3ull), served_(numCores, 0),
      latencyCluster_(numCores, false), rank_(numCores, 0),
      nextQuantum_(quantum),
      nextShuffle_(std::max<DramCycle>(quantum / 10, 1))
{
    std::iota(rank_.begin(), rank_.end(), 0u);
}

void
TcmScheduler::onIssue(std::uint32_t, const SchedCandidate &cand, DramCycle)
{
    if (cand.isCas() && cand.core < numCores_)
        ++served_[cand.core];
}

void
TcmScheduler::recluster()
{
    const std::uint64_t total =
        std::accumulate(served_.begin(), served_.end(), std::uint64_t{0});

    // Least intensive threads first.
    std::vector<CoreId> order(numCores_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](CoreId a, CoreId b) {
        return std::tuple(served_[a], a) < std::tuple(served_[b], b);
    });

    const std::uint64_t budget = static_cast<std::uint64_t>(
        clusterThresh_ * static_cast<double>(total));
    std::uint64_t used = 0;
    std::fill(latencyCluster_.begin(), latencyCluster_.end(), false);
    for (const CoreId core : order) {
        if (used + served_[core] <= budget) {
            latencyCluster_[core] = true;
            used += served_[core];
        } else {
            break;
        }
    }

    // Rank: latency cluster members keep intensity order at the top;
    // bandwidth members follow (the shuffle re-permutes them).
    std::uint32_t pos = 0;
    for (const CoreId core : order) {
        if (latencyCluster_[core])
            rank_[core] = pos++;
    }
    for (const CoreId core : order) {
        if (!latencyCluster_[core])
            rank_[core] = pos++;
    }

    std::fill(served_.begin(), served_.end(), 0);
}

void
TcmScheduler::shuffle()
{
    // Insertion-shuffle the bandwidth-sensitive cluster's ranks.
    std::vector<CoreId> band;
    for (CoreId c = 0; c < numCores_; ++c) {
        if (!latencyCluster_[c])
            band.push_back(c);
    }
    if (band.size() < 2)
        return;
    std::vector<std::uint32_t> ranks;
    ranks.reserve(band.size());
    for (const CoreId c : band)
        ranks.push_back(rank_[c]);
    // Fisher-Yates on the rank assignment.
    for (std::size_t i = band.size() - 1; i > 0; --i) {
        const std::size_t j = rng_.below(i + 1);
        std::swap(ranks[i], ranks[j]);
    }
    for (std::size_t i = 0; i < band.size(); ++i)
        rank_[band[i]] = ranks[i];
}

void
TcmScheduler::tick(DramCycle now)
{
    if (now >= nextQuantum_) {
        recluster();
        nextQuantum_ += quantum_;
    }
    if (now >= nextShuffle_) {
        shuffle();
        nextShuffle_ += std::max<DramCycle>(quantum_ / 10, 1);
    }
}

int
TcmScheduler::pick(std::uint32_t, const std::vector<SchedCandidate> &cands,
                   DramCycle)
{
    // (thread rank, row-miss, ~crit, age).
    return pickLowest(cands, [&](const SchedCandidate &cand) {
        const std::uint32_t threadRank =
            cand.core < numCores_ ? rank_[cand.core] : numCores_;
        const std::uint64_t critKey =
            critTiebreak_ ? ~static_cast<std::uint64_t>(cand.crit)
                          : ~std::uint64_t{0};
        return std::tuple(threadRank, cand.rowHit ? 0 : 1, critKey,
                          cand.seq);
    });
}

} // namespace critmem

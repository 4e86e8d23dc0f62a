#include "sched/morse.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace critmem
{

namespace
{

/** FNV-1a style mixing of (tiling, feature index, bucket). */
std::uint32_t
mix(std::uint32_t h, std::uint32_t v)
{
    h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2);
    return h;
}

} // namespace

void
Cmac::tiles(const float *features, std::uint32_t numFeatures,
            ActiveTiles &out) const
{
    out.count = 0;
    for (std::uint32_t t = 0; t < kTilings; ++t) {
        const float offset =
            static_cast<float>(t) / static_cast<float>(kTilings);
        // One joint tile over the whole vector per tiling (the
        // shifted grids provide the generalization across buckets)...
        std::uint32_t joint = 0x811c9dc5u + t;
        for (std::uint32_t f = 0; f < numFeatures; ++f) {
            const auto bucket = static_cast<std::uint32_t>(
                std::max(0.0f, features[f] + offset));
            joint = mix(joint, (f << 8) ^ bucket);
        }
        out.idx[out.count++] = t * kTableSize + (joint % kTableSize);
    }
}

float
Cmac::value(const ActiveTiles &tiles) const
{
    float q = 0.0f;
    for (std::uint32_t i = 0; i < tiles.count; ++i)
        q += weights_[tiles.idx[i]];
    return q;
}

void
Cmac::update(const ActiveTiles &tiles, float delta)
{
    if (tiles.count == 0)
        return;
    const float step = delta / static_cast<float>(tiles.count);
    for (std::uint32_t i = 0; i < tiles.count; ++i)
        weights_[tiles.idx[i]] += step;
}

MorseScheduler::MorseScheduler(std::uint32_t channels,
                               std::uint32_t banksPerRank,
                               std::uint32_t maxCommands,
                               bool useCriticality, std::uint64_t seed,
                               float alpha, float gamma, float epsilon)
    : mirror_(channels), banksPerRank_(banksPerRank),
      maxCommands_(maxCommands), useCriticality_(useCriticality),
      rng_(seed ^ 0x4d4f525345ull), learners_(channels),
      alpha_(alpha), gamma_(gamma), epsilon_(epsilon)
{
}

void
MorseScheduler::onEnqueue(std::uint32_t channel, const MemRequest &req,
                          const DramCoord &coord, DramCycle now)
{
    mirror_.onEnqueue(channel, req, coord, banksPerRank_, now);
}

void
MorseScheduler::onIssue(std::uint32_t channel, const SchedCandidate &cand,
                        DramCycle)
{
    if (cand.isCas()) {
        mirror_.onCas(channel, cand.seq);
        // Data moved: the utilization reward credited to the decision
        // that issued this command.
        learners_[channel].pendingReward = 1.0f;
    }
}

std::uint32_t
MorseScheduler::featurize(std::uint32_t channel, const SchedCandidate &cand,
                          DramCycle now, float *out) const
{
    const auto &queue = mirror_.queue(channel);

    std::uint32_t reads = 0;
    std::uint32_t writes = 0;
    std::uint32_t readsSameRank = 0;
    std::uint32_t olderSameCore = 0;
    for (const MirrorEntry &entry : queue) {
        if (entry.isWrite) {
            ++writes;
        } else {
            ++reads;
            if (entry.rank == cand.coord.rank)
                ++readsSameRank;
        }
        if (entry.core == cand.core && entry.id < cand.seq)
            ++olderSameCore;
    }

    std::uint32_t n = 0;
    out[n++] = static_cast<float>(cand.cmd); // command type
    out[n++] = cand.rowHit ? 1.0f : 0.0f;
    out[n++] = static_cast<float>(std::min(reads / 4u, 15u));
    out[n++] = static_cast<float>(std::min(readsSameRank, 15u));
    out[n++] = static_cast<float>(std::min(writes / 4u, 15u));
    // Relative (ROB-position-like) order among same-core requests.
    out[n++] = static_cast<float>(std::min(olderSameCore, 7u));
    // Age, log2-quantized.
    const std::uint64_t age = now - cand.arrival;
    out[n++] = static_cast<float>(std::bit_width(age));
    if (useCriticality_) {
        out[n++] = cand.crit > 0 ? 1.0f : 0.0f;
        out[n++] = static_cast<float>(
            std::bit_width(static_cast<std::uint64_t>(cand.crit)));
    }
    return n;
}

int
MorseScheduler::pick(std::uint32_t channel,
                     const std::vector<SchedCandidate> &cands,
                     DramCycle now)
{
    Learner &learner = learners_[channel];

    // The hardware restriction of Fig. 11: consider only the oldest
    // maxCommands ready commands.
    order_.clear();
    for (std::size_t i = 0; i < cands.size(); ++i)
        order_.push_back(static_cast<int>(i));
    if (order_.size() > maxCommands_) {
        // Keep the oldest maxCommands; within the cap the evaluation
        // (and therefore cold-start tie-breaking) follows the queue:
        // demand reads in arrival order, then writebacks.
        std::nth_element(order_.begin(),
                         order_.begin() + maxCommands_ - 1, order_.end(),
                         [&](int a, int b) {
                             return cands[a].seq < cands[b].seq;
                         });
        order_.resize(maxCommands_);
        std::sort(order_.begin(), order_.end());
    }

    // Evaluate Q for each considered command.
    int best = -1;
    float bestQ = 0.0f;
    Cmac::ActiveTiles bestTiles;
    float feats[Cmac::kMaxFeatures];
    Cmac::ActiveTiles tiles;
    const bool explore = rng_.chance(epsilon_);
    const std::size_t randomPick = explore ? rng_.below(order_.size()) : 0;
    for (std::size_t k = 0; k < order_.size(); ++k) {
        const int i = order_[k];
        const std::uint32_t n = featurize(channel, cands[i], now, feats);
        learner.cmac.tiles(feats, n, tiles);
        // An epsilon-scale prior breaks cold-start ties the FR-FCFS
        // way (CAS > ACT > PRE, then oldest); it is far below the
        // reward scale, so learned values dominate once trained.
        const float tiebreak = cands[i].isCas()
            ? 2e-3f
            : (cands[i].cmd == DramCmd::Act ? 1e-3f : 0.0f);
        const float q = learner.cmac.value(tiles) + tiebreak;
        const bool take = explore ? k == randomPick
                                  : (best < 0 || q > bestQ);
        if (take) {
            best = i;
            bestQ = q;
            bestTiles = tiles;
        }
    }

    // SARSA update for the previous decision on this channel:
    //   Q(s,a) += alpha * (r + gamma * Q(s',a') - Q(s,a))
    if (learner.hasPrev) {
        const float target =
            learner.pendingReward + gamma_ * bestQ - learner.prevQ;
        learner.cmac.update(learner.prevTiles, alpha_ * target);
    }
    learner.hasPrev = true;
    learner.prevQ = bestQ;
    learner.prevTiles = bestTiles;
    learner.pendingReward = 0.0f;

    return best;
}

} // namespace critmem

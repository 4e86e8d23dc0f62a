#include "trace/synthetic.hh"

#include <algorithm>

#include "sim/log.hh"

namespace critmem
{

const char *
toString(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::FpAlu:  return "FpAlu";
      case OpClass::FpMul:  return "FpMul";
      case OpClass::Load:   return "Load";
      case OpClass::Store:  return "Store";
      case OpClass::Branch: return "Branch";
    }
    return "?";
}

namespace
{

/** Round a byte count up to a 4 KB boundary. */
Addr
pageAlign(Addr bytes)
{
    return (bytes + 4095) & ~Addr{4095};
}

} // namespace

SyntheticApp::SyntheticApp(const AppParams &params, CoreId tid,
                           std::uint32_t numThreads, Addr addrBase,
                           std::uint64_t seed)
    : params_(params), tid_(tid), numThreads_(numThreads),
      rng_(seed * 0x517cc1b727220a95ull + tid * 0x2545f4914f6cdd1dull + 1)
{
    const Addr privSpan = pageAlign(params.localBytes) +
        pageAlign(params.randBytes) + pageAlign(params.privateBytes);
    privateBase_ = pageAlign(addrBase) + tid * privSpan;
    sharedBase_ = pageAlign(addrBase) + numThreads * privSpan;
    // All threads build the identical static program (SPMD loops).
    buildProgram(seed);
}

void
SyntheticApp::buildProgram(std::uint64_t seed)
{
    Rng prng(seed * 0x9e3779b97f4a7c15ull + 0xabcd);
    const std::uint32_t length = std::max(params_.loopLength, 16u);
    program_.resize(length);

    // Per-thread region layout: [local][random][sequential/chase].
    const Addr localBase = privateBase_;
    const Addr randBase = localBase + pageAlign(params_.localBytes);
    const Addr farBase = randBase + pageAlign(params_.randBytes);

    // Stream pool. Pointer-chase chains get one stream each so that a
    // chain's serial dependence matches a single random walk.
    const std::uint32_t numLocal = 4;
    const std::uint32_t numSeq = 8;
    const std::uint32_t numRand = 4;
    auto makeStream = [&](StreamKind kind, bool shared) {
        Stream stream;
        stream.kind = kind;
        switch (kind) {
          case StreamKind::Local:
            stream.base = localBase;
            stream.size = params_.localBytes;
            break;
          case StreamKind::RandomPrivate:
            stream.base = randBase;
            stream.size = params_.randBytes;
            break;
          case StreamKind::RandomShared:
            stream.base = sharedBase_;
            stream.size = params_.sharedBytes;
            break;
          default:
            stream.base = shared ? sharedBase_ : farBase;
            stream.size =
                shared ? params_.sharedBytes : params_.privateBytes;
            break;
        }
        stream.size = std::max<std::uint64_t>(stream.size, 4096);
        stream.pos = prng.below(stream.size) & ~Addr{63};
        stream.stride = params_.strideBytes;
        if (kind == StreamKind::Sequential &&
            prng.chance(params_.bigStrideFrac)) {
            // Strides past a DRAM row: every access opens a new row.
            stream.stride = 2048 << prng.below(3);
        }
        streams_.push_back(stream);
        return static_cast<std::int32_t>(streams_.size() - 1);
    };

    std::vector<std::int32_t> localStreams;
    std::vector<std::int32_t> seqStreams;
    std::vector<std::int32_t> randStreams;
    for (std::uint32_t i = 0; i < numLocal; ++i)
        localStreams.push_back(makeStream(StreamKind::Local, false));
    for (std::uint32_t i = 0; i < numSeq; ++i) {
        seqStreams.push_back(makeStream(
            StreamKind::Sequential, prng.chance(params_.sharedFrac)));
    }
    for (std::uint32_t i = 0; i < numRand; ++i) {
        const bool shared = prng.chance(params_.sharedFrac);
        randStreams.push_back(makeStream(shared
                                             ? StreamKind::RandomShared
                                             : StreamKind::RandomPrivate,
                                         shared));
    }

    // Classify each static slot. Far accesses cluster at the head of
    // the loop body ("memory phase") with probability `burstiness`,
    // and fall uniformly otherwise.
    const double farFrac = 1.0 - params_.localFrac;
    const auto isLocalSlot = [&](std::uint32_t i) {
        if (prng.chance(params_.burstiness))
            return static_cast<double>(i) >= farFrac * length;
        return prng.chance(params_.localFrac);
    };

    std::vector<std::uint32_t> chaseOps;
    for (std::uint32_t i = 0; i < length; ++i) {
        StaticOp &op = program_[i];
        const double draw = prng.uniform();
        if (draw < params_.loadFrac) {
            op.cls = OpClass::Load;
            ++staticLoads_;
            if (isLocalSlot(i)) {
                op.stream =
                    localStreams[prng.below(localStreams.size())];
            } else {
                const double kind = prng.uniform();
                if (kind < params_.chaseFrac) {
                    chaseOps.push_back(i);
                } else if (kind < params_.chaseFrac + params_.seqFrac) {
                    op.stream =
                        seqStreams[prng.below(seqStreams.size())];
                } else {
                    op.stream =
                        randStreams[prng.below(randStreams.size())];
                }
            }
        } else if (draw < params_.loadFrac + params_.storeFrac) {
            op.cls = OpClass::Store;
            op.latency = 1;
            // Stores follow the same local/seq/random split, no chase.
            if (isLocalSlot(i)) {
                op.stream =
                    localStreams[prng.below(localStreams.size())];
            } else if (prng.chance(
                           params_.seqFrac /
                           (params_.seqFrac + params_.randomFrac))) {
                op.stream = seqStreams[prng.below(seqStreams.size())];
            } else {
                op.stream = randStreams[prng.below(randStreams.size())];
            }
        } else if (draw <
                   params_.loadFrac + params_.storeFrac +
                       params_.branchFrac) {
            op.cls = OpClass::Branch;
            op.latency = 1;
            op.mispredictRate = static_cast<float>(
                params_.mispredictRate * (0.2 + 1.6 * prng.uniform()));
        } else if (prng.chance(params_.fpFrac)) {
            const bool mul = prng.chance(0.25);
            op.cls = mul ? OpClass::FpMul : OpClass::FpAlu;
            op.latency = mul ? 5 : 3;
        } else {
            const bool mul = prng.chance(0.1);
            op.cls = mul ? OpClass::IntMul : OpClass::IntAlu;
            op.latency = mul ? 3 : 1;
        }
    }

    // Pointer-chase chains: round-robin the chase loads over a small
    // number of chains; each load depends on the previous load of its
    // chain, which serializes the chain through the ROB.
    if (!chaseOps.empty()) {
        const std::uint32_t numChains = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(chaseOps.size() / 24));
        std::vector<std::int32_t> chainStream(numChains);
        for (std::uint32_t c = 0; c < numChains; ++c)
            chainStream[c] = makeStream(StreamKind::PointerChase, false);
        std::vector<std::int32_t> lastInChain(numChains, -1);
        for (std::size_t k = 0; k < chaseOps.size(); ++k) {
            const std::uint32_t chain =
                static_cast<std::uint32_t>(k % numChains);
            const std::uint32_t idx = chaseOps[k];
            program_[idx].stream = chainStream[chain];
            if (lastInChain[chain] >= 0) {
                const std::uint32_t dist =
                    idx - static_cast<std::uint32_t>(lastInChain[chain]);
                program_[idx].dep1 = static_cast<std::uint16_t>(
                    std::min<std::uint32_t>(dist, 0xffff));
            }
            lastInChain[chain] = static_cast<std::int32_t>(idx);
        }
        // Close each chain across the loop back-edge.
        for (std::uint32_t c = 0; c < numChains; ++c) {
            if (lastInChain[c] < 0)
                continue;
            const std::uint32_t first = [&] {
                for (std::size_t k = 0; k < chaseOps.size(); ++k) {
                    if (k % numChains == c)
                        return chaseOps[k];
                }
                return chaseOps[0];
            }();
            const std::uint32_t dist = first + length -
                static_cast<std::uint32_t>(lastInChain[c]);
            program_[first].dep1 = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(dist, 0xffff));
        }
    }

    // Generic short dependences for everything else.
    for (std::uint32_t i = 0; i < length; ++i) {
        StaticOp &op = program_[i];
        const bool isChaseLoad =
            op.cls == OpClass::Load && op.dep1 != 0;
        if (!isChaseLoad && prng.chance(0.8)) {
            op.dep1 = static_cast<std::uint16_t>(
                1 + prng.geometric(0.25, 30));
        }
        if (prng.chance(0.3)) {
            op.dep2 = static_cast<std::uint16_t>(
                1 + prng.geometric(0.25, 30));
        }
    }

    // High-fanout loads: a subset of non-chase loads feeds several
    // nearby ALU ops. These are the loads CLPT marks critical — and
    // they are mostly cache-resident address computations, which is
    // why consumer count correlates poorly with ROB blocking
    // (Section 5.3.3).
    for (std::uint32_t i = 0; i < length; ++i) {
        StaticOp &op = program_[i];
        if (op.cls != OpClass::Load || op.stream < 0)
            continue;
        if (streams_[op.stream].kind == StreamKind::PointerChase)
            continue;
        if (!prng.chance(params_.fanoutLoadFrac))
            continue;
        std::uint32_t consumers = 0;
        for (std::uint32_t d = 1; d <= 6 && consumers < 4; ++d) {
            StaticOp &target = program_[(i + d) % length];
            if (target.cls == OpClass::IntAlu ||
                target.cls == OpClass::FpAlu) {
                target.dep1 = static_cast<std::uint16_t>(d);
                ++consumers;
            }
        }
    }
}

std::vector<std::pair<Addr, std::uint64_t>>
SyntheticApp::farRegions() const
{
    std::vector<std::pair<Addr, std::uint64_t>> regions;
    for (const Stream &stream : streams_) {
        if (stream.kind != StreamKind::Local)
            regions.emplace_back(stream.base, stream.size);
    }
    return regions;
}

Addr
SyntheticApp::genAddress(Stream &stream)
{
    switch (stream.kind) {
      case StreamKind::Local: {
        // Hot, cache-resident scratch data (stack, loop temporaries).
        stream.pos = rng_.below(stream.size) & ~std::uint64_t{7};
        return stream.base + stream.pos;
      }
      case StreamKind::Sequential: {
        const Addr addr = stream.base + stream.pos;
        stream.pos += stream.stride;
        if (stream.pos >= stream.size) {
            // pos < size before the step, so one subtraction wraps it
            // unless the stride itself reaches past the stream.
            stream.pos = stream.stride < stream.size
                ? stream.pos - stream.size
                : stream.pos % stream.size;
        }
        return addr;
      }
      case StreamKind::RandomPrivate:
      case StreamKind::RandomShared: {
        if (rng_.chance(params_.rowLocality)) {
            // Stay within the current 1 KB row.
            stream.pos = (stream.pos & ~std::uint64_t{1023}) +
                (rng_.below(1024) & ~std::uint64_t{7});
        } else {
            stream.pos = rng_.below(stream.size) & ~std::uint64_t{7};
        }
        return stream.base + stream.pos;
      }
      case StreamKind::PointerChase: {
        // Each dereference lands on an unpredictable node, but heap
        // allocators cluster consecutive nodes into pages, so chains
        // exhibit partial row locality.
        if (rng_.chance(params_.rowLocality)) {
            stream.pos = (stream.pos & ~std::uint64_t{1023}) +
                (rng_.below(1024) & ~std::uint64_t{7});
        } else {
            stream.pos = rng_.below(stream.size) & ~std::uint64_t{7};
        }
        return stream.base + stream.pos;
      }
    }
    return stream.base;
}

void
SyntheticApp::next(MicroOp &op)
{
    const StaticOp &s = program_[loopPos_];
    op.cls = s.cls;
    op.pc = pcBase_ + loopPos_ * 4;
    op.latency = s.latency;
    op.dep1 = s.dep1;
    op.dep2 = s.dep2;
    op.mispredict = s.cls == OpClass::Branch &&
        rng_.chance(s.mispredictRate);
    op.addr = s.stream >= 0 ? genAddress(streams_[s.stream]) : 0;
    if (++loopPos_ == program_.size())
        loopPos_ = 0;
}

} // namespace critmem

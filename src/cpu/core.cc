#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace critmem
{

namespace
{

/** 8-byte granularity used for store-to-load forwarding matches. */
Addr
wordAlign(Addr addr)
{
    return addr & ~Addr{7};
}

} // namespace

Core::Stats::Stats(stats::Group &parent, CoreId id)
    : group("core" + std::to_string(id), &parent),
      cycles(group, "cycles", "CPU cycles simulated"),
      committedOps(group, "committedOps", "micro-ops committed"),
      committedLoads(group, "committedLoads", "loads committed"),
      committedStores(group, "committedStores", "stores committed"),
      committedBranches(group, "committedBranches", "branches committed"),
      mispredicts(group, "mispredicts", "branches mispredicted"),
      blockingLoads(group, "blockingLoads",
                    "committed loads that blocked the ROB head"),
      robHeadBlockedCycles(group, "robHeadBlockedCycles",
                           "cycles a load blocked the ROB head"),
      robFullCycles(group, "robFullCycles",
                    "dispatch stalls: ROB full"),
      lqFullCycles(group, "lqFullCycles",
                   "dispatch stalls: load queue full"),
      sqFullCycles(group, "sqFullCycles",
                   "dispatch stalls: store queue full"),
      iqFullCycles(group, "iqFullCycles",
                   "dispatch stalls: issue queue full"),
      branchLimitCycles(group, "branchLimitCycles",
                        "dispatch stalls: unresolved-branch limit"),
      loadsIssued(group, "loadsIssued", "loads sent to the hierarchy"),
      loadsForwarded(group, "loadsForwarded",
                     "loads satisfied by store forwarding"),
      critLoadsIssued(group, "critLoadsIssued",
                      "loads issued with a critical prediction"),
      loadRetries(group, "loadRetries",
                  "load issue attempts rejected by the hierarchy"),
      headStallLength(group, "headStallLength",
                      "per-blocking-load ROB-head stall, cycles")
{
}

Core::Core(const SystemConfig &cfg, CoreId id, TraceGenerator &gen,
           MemHierarchy &mem, stats::Group &parent)
    : cfg_(cfg), id_(id), gen_(gen), mem_(mem),
      rob_(std::bit_ceil(cfg.core.robEntries)), robMask_(rob_.size() - 1),
      pendingStoreAddrs_(cfg.core.sqEntries, "store queue"),
      readyBits_((rob_.size() + 63) / 64),
      // In OpClass order.
      portBudget_{cfg.core.intAlus, cfg.core.intMuls, cfg.core.fpAlus,
                  cfg.core.fpMuls, cfg.core.loadPorts, cfg.core.storePorts,
                  cfg.core.branchUnits},
      stats_(parent, id)
{
    mem.attach(id, *this);
    const CritConfig &crit = cfg.crit;
    if (isCbp(crit.predictor)) {
        cbp_ = std::make_unique<CommitBlockPredictor>(
            crit.predictor, crit.tableEntries, crit.resetInterval,
            crit.counterWidth, crit.probShift);
    } else if (crit.predictor == CritPredictor::ClptBinary ||
               crit.predictor == CritPredictor::ClptConsumers) {
        clpt_ = std::make_unique<Clpt>(
            std::max(crit.tableEntries, 2u), crit.clptThreshold,
            crit.predictor == CritPredictor::ClptConsumers);
    }
}

CritLevel
Core::criticalityOf(const MicroOp &op) const
{
    if (cbp_)
        return cbp_->predict(op.pc);
    if (clpt_)
        return clpt_->predict(op.pc);
    return 0;
}

void
Core::markReady(std::uint32_t idx)
{
    rob_[idx].state = EntryState::Ready;
    readyBits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++readyCount_;
}

void
Core::markComplete(RobEntry &entry)
{
    entry.state = EntryState::Complete;
    for (std::uint32_t link = entry.firstWaiter; link != kNoLink;) {
        const std::uint32_t idx = link >> 1;
        RobEntry &waiter = rob_[idx];
        link = waiter.nextWaiter[link & 1];
        if (--waiter.srcsPending == 0)
            markReady(idx);
    }
    entry.firstWaiter = kNoLink;
}

inline void
Core::complete(MemToken token, Cycle now)
{
    switch (token.kind) {
      case MemToken::Kind::Load: {
        const SeqNum seq = token.value;
        RobEntry &entry = entryOf(seq);
        if (entry.op.cls == OpClass::Branch) {
            --unresolvedBranches_;
            if (seq == redirectBranch_) {
                redirectBranch_ = ~SeqNum{0};
                fetchResumeAt_ = now + cfg_.core.mispredictPenalty;
            }
        }
        markComplete(entry);
        break;
      }
      case MemToken::Kind::Store:
        --sqCount_;
        if (std::uint32_t *stores =
                pendingStoreAddrs_.find(wordAlign(token.value));
            stores && --*stores == 0)
            pendingStoreAddrs_.erase(stores);
        break;
      case MemToken::Kind::Fetch:
        fetchBlockedOnIcache_ = false;
        fetchedBlock_ = token.value;
        break;
    }
}

void
Core::completeStage(Cycle now)
{
    // Order within the drain does not matter: a wakeup only sets a
    // ready bit, which issueStage() walks in age order anyway, and a
    // freed SQ slot is first looked at by dispatchStage().
    fuCompletions_.drain(
        now, [this, now](Cycle, MemToken token) { complete(token, now); });
}

void
Core::commitStage(Cycle now)
{
    for (std::uint32_t n = 0; n < cfg_.core.commitWidth; ++n) {
        if (robCount_ == 0)
            return;
        RobEntry &head = entryOf(headSeq_);
        if (head.state != EntryState::Complete) {
            // A completed-but-stalled head never happens; only an
            // incomplete issued load is "blocking" in the paper's
            // sense (its miss is what commit waits on).
            if (head.op.cls == OpClass::Load &&
                head.state == EntryState::Issued) {
                if (!head.blocked) {
                    head.blocked = true;
                    if (cfg_.crit.predictor ==
                        CritPredictor::NaiveForward) {
                        // Section 5.1: tell the controller only now.
                        mem_.promote(head.op.addr, 1);
                    }
                }
                ++head.stallCycles;
            }
            return;
        }

        // Commit.
        switch (head.op.cls) {
          case OpClass::Load:
            ++stats_.committedLoads;
            --lqCount_;
            if (head.blocked) {
                stats_.headStallLength.sample(head.stallCycles);
                // Figure 1 counts *long-latency* blocking loads: a
                // stall that outlasts the uncontended L2 round trip
                // means commit waited on DRAM.
                if (head.stallCycles >= cfg_.l2.latency) {
                    ++stats_.blockingLoads;
                    stats_.robHeadBlockedCycles += head.stallCycles;
                }
                if (cbp_)
                    cbp_->update(head.op.pc, head.stallCycles);
            }
            if (clpt_)
                clpt_->recordConsumers(head.op.pc, head.consumers);
            break;
          case OpClass::Store:
            ++stats_.committedStores;
            storeDrain_.push(head.op.addr);
            break;
          case OpClass::Branch:
            ++stats_.committedBranches;
            if (head.op.mispredict)
                ++stats_.mispredicts;
            break;
          default:
            break;
        }
        ++stats_.committedOps;
        ++headSeq_;
        --robCount_;
        if (finishCycle_ == kNoCycle && quota_ != 0 &&
            stats_.committedOps.value() >= quota_) {
            finishCycle_ = now;
        }
    }
}

bool
Core::issueLoad(const RobEntry &entry, SeqNum seq, Cycle now)
{
    // Perfect disambiguation with store-to-load forwarding: a load
    // whose word matches an in-flight older store gets its value from
    // the SQ without touching the cache.
    if (pendingStoreAddrs_.contains(wordAlign(entry.op.addr))) {
        ++stats_.loadsForwarded;
        completeAt(now + 1, seq);
        return true;
    }

    const CritLevel crit = criticalityOf(entry.op);
    switch (mem_.load(id_, entry.op.addr, crit,
                      MemToken{MemToken::Kind::Load, seq})) {
      case MemResult::Rejected:
        ++stats_.loadRetries;
        return false;
      case MemResult::Hit:
        completeAt(now + cfg_.dl1.latency, seq);
        break;
      case MemResult::Miss:
        break;
    }
    ++stats_.loadsIssued;
    if (crit > 0)
        ++stats_.critLoadsIssued;
    return true;
}

bool
Core::tryIssue(std::uint32_t idx, SeqNum seq, PortBudget &ports, Cycle now)
{
    RobEntry &entry = rob_[idx];
    std::uint32_t &port = ports[static_cast<std::size_t>(entry.op.cls)];
    if (port == 0)
        return false;
    --port; // a rejected load still consumes its port
    if (entry.op.cls == OpClass::Load) {
        if (!issueLoad(entry, seq, now))
            return false;
    } else {
        completeAt(now + entry.op.latency, seq);
    }
    entry.state = EntryState::Issued;
    readyBits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    --readyCount_;
    --(entry.isFp ? fpIqCount_ : intIqCount_);
    return true;
}

void
Core::issueStage(Cycle now)
{
    if (readyCount_ == 0)
        return;
    // Oldest-first issue: ring order from the head slot is age order,
    // so walk the ready bits from there, wrapping once. The head's
    // word is visited twice, its bits at and above the head first and
    // its bits below the head last.
    const std::uint32_t head = robIndex(headSeq_);
    const std::size_t words = readyBits_.size(); // a power of two
    PortBudget ports = portBudget_;
    std::uint32_t unvisited = readyCount_;
    std::uint32_t issued = 0;
    for (std::size_t n = 0; n <= words; ++n) {
        const std::size_t w = (head / 64 + n) & (words - 1);
        std::uint64_t bits = readyBits_[w];
        if (n == 0)
            bits &= ~std::uint64_t{0} << (head % 64);
        else if (n == words)
            bits &= (std::uint64_t{1} << (head % 64)) - 1;
        for (; bits != 0; bits &= bits - 1) {
            const auto idx = static_cast<std::uint32_t>(
                w * 64 + std::countr_zero(bits));
            const SeqNum seq = headSeq_ + ((idx - head) & robMask_);
            if (tryIssue(idx, seq, ports, now) &&
                ++issued == cfg_.core.issueWidth)
                return;
            if (--unvisited == 0)
                return;
        }
    }
}

void
Core::drainStores(Cycle now)
{
    std::uint32_t drained = 0;
    while (!storeDrain_.empty() && drained < cfg_.core.storePorts) {
        const Addr addr = storeDrain_.front();
        const MemToken token{MemToken::Kind::Store, addr};
        const MemResult result = mem_.store(id_, addr, token);
        if (result == MemResult::Rejected)
            return;
        if (result == MemResult::Hit)
            fuCompletions_.push(now + cfg_.dl1.latency, token);
        storeDrain_.pop();
        ++drained;
    }
}

void
Core::dispatchStage(Cycle now)
{
    const CoreConfig &c = cfg_.core;
    if (stopAtQuota_ && quota_ != 0 && fetched_ >= quota_ &&
        !hasPendingOp_) {
        return; // quota reached and no buffered op left to dispatch
    }
    if (now < fetchResumeAt_ || fetchBlockedOnIcache_)
        return;
    if (redirectBranch_ != ~SeqNum{0})
        return; // waiting on an unresolved mispredicted branch

    for (std::uint32_t n = 0; n < c.fetchWidth; ++n) {
        if (robCount_ >= c.robEntries) {
            ++stats_.robFullCycles;
            return;
        }
        if (!hasPendingOp_) {
            if (stopAtQuota_ && quota_ != 0 && fetched_ >= quota_)
                return; // quota reached: no new fetches
            gen_.next(pendingOp_);
            hasPendingOp_ = true;
            ++fetched_;
        }
        const MicroOp &op = pendingOp_;

        // Front end: make sure the instruction's block is in the iL1.
        // Sequential hits are pipelined (free); only misses stall.
        const Addr block = op.pc & ~Addr{cfg_.il1.blockBytes - 1};
        if (block != fetchedBlock_) {
            const MemResult fetched = mem_.fetch(
                id_, op.pc, MemToken{MemToken::Kind::Fetch, block});
            if (fetched != MemResult::Hit) {
                if (fetched == MemResult::Miss)
                    fetchBlockedOnIcache_ = true;
                return; // miss (or iL1 MSHRs full): retry later
            }
            fetchedBlock_ = block;
        }

        // Structural resources.
        const bool isFp =
            op.cls == OpClass::FpAlu || op.cls == OpClass::FpMul;
        if (isFp ? fpIqCount_ >= c.fpIqEntries
                 : intIqCount_ >= c.intIqEntries) {
            ++stats_.iqFullCycles;
            return;
        }
        if (op.cls == OpClass::Load && lqCount_ >= c.lqEntries) {
            ++stats_.lqFullCycles;
            return;
        }
        if (op.cls == OpClass::Store && sqCount_ >= c.sqEntries) {
            ++stats_.sqFullCycles;
            return;
        }
        if (op.cls == OpClass::Branch &&
            unresolvedBranches_ >= c.maxUnresolvedBranches) {
            ++stats_.branchLimitCycles;
            return;
        }

        // Allocate the ROB entry.
        const SeqNum seq = nextSeq_++;
        RobEntry &entry = entryOf(seq);
        const std::uint32_t idx = robIndex(seq);
        entry.op = op;
        entry.state = EntryState::Waiting;
        entry.srcsPending = 0;
        entry.isFp = isFp;
        entry.blocked = false;
        entry.stallCycles = 0;
        entry.consumers = 0;
        entry.firstWaiter = kNoLink;
        ++robCount_;
        hasPendingOp_ = false;

        // Resolve dependences against the ROB.
        const auto addDep = [&](std::uint16_t dist, std::uint32_t slot) {
            if (dist == 0 || dist > seq)
                return;
            const SeqNum producerSeq = seq - dist;
            if (producerSeq < headSeq_)
                return; // producer already committed
            RobEntry &producer = entryOf(producerSeq);
            if (producer.op.cls == OpClass::Load)
                ++producer.consumers;
            if (producer.state != EntryState::Complete) {
                ++entry.srcsPending;
                entry.nextWaiter[slot] = producer.firstWaiter;
                producer.firstWaiter = (idx << 1) | slot;
            }
        };
        addDep(op.dep1, 0);
        addDep(op.dep2, 1);

        if (isFp)
            ++fpIqCount_;
        else
            ++intIqCount_;
        switch (op.cls) {
          case OpClass::Load:
            ++lqCount_;
            break;
          case OpClass::Store:
            ++sqCount_;
            ++pendingStoreAddrs_[wordAlign(op.addr)];
            break;
          case OpClass::Branch:
            ++unresolvedBranches_;
            break;
          default:
            break;
        }

        if (entry.srcsPending == 0)
            markReady(idx);

        if (op.cls == OpClass::Branch && op.mispredict) {
            // Stop dispatching until the branch resolves; the redirect
            // penalty is charged at resolution (completeStage).
            redirectBranch_ = seq;
            return;
        }
    }
}

void
Core::tick(Cycle now)
{
    if (!active_)
        return;
    now_ = now;
    ++stats_.cycles;
    if (cbp_)
        cbp_->maybeReset(now);

    completeStage(now);
    commitStage(now);
    issueStage(now);
    drainStores(now);
    dispatchStage(now);
}

Core::DispatchState
Core::dispatchState() const
{
    // Mirrors dispatchStage()'s decision order exactly, minus the
    // fetchResumeAt_ time gate (the caller handles time) and with no
    // side effects. Every input is frozen between events: the counts
    // only change on commits, issues, drains, or memory completions.
    if (stopAtQuota_ && quota_ != 0 && fetched_ >= quota_ &&
        !hasPendingOp_)
        return DispatchState::Idle;
    if (fetchBlockedOnIcache_)
        return DispatchState::Idle; // woken by the iL1 fill's token
    if (redirectBranch_ != ~SeqNum{0})
        return DispatchState::Idle; // woken by the branch completing
    if (robCount_ >= cfg_.core.robEntries)
        return DispatchState::RobFull;
    if (!hasPendingOp_)
        return DispatchState::Busy; // would fetch a new micro-op
    const Addr block = pendingOp_.pc & ~Addr{cfg_.il1.blockBytes - 1};
    if (block != fetchedBlock_)
        return DispatchState::Busy; // would probe the iL1
    const CoreConfig &c = cfg_.core;
    const bool isFp = pendingOp_.cls == OpClass::FpAlu ||
        pendingOp_.cls == OpClass::FpMul;
    if (isFp ? fpIqCount_ >= c.fpIqEntries
             : intIqCount_ >= c.intIqEntries)
        return DispatchState::IqFull;
    if (pendingOp_.cls == OpClass::Load && lqCount_ >= c.lqEntries)
        return DispatchState::LqFull;
    if (pendingOp_.cls == OpClass::Store && sqCount_ >= c.sqEntries)
        return DispatchState::SqFull;
    if (pendingOp_.cls == OpClass::Branch &&
        unresolvedBranches_ >= c.maxUnresolvedBranches)
        return DispatchState::BranchLimit;
    return DispatchState::Busy; // would allocate a ROB entry
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    if (!active_)
        return kNoCycle;
    if (readyCount_ != 0 || !storeDrain_.empty())
        return now + 1;
    if (robCount_ > 0) {
        const RobEntry &head = entryOf(headSeq_);
        if (head.state == EntryState::Complete)
            return now + 1; // commit proceeds next tick
        if (head.op.cls == OpClass::Load &&
            head.state == EntryState::Issued && !head.blocked) {
            // The blocking onset (and the naive-forward promote it
            // triggers) must land on a real tick at its exact cycle.
            return now + 1;
        }
    }

    Cycle next = kNoCycle;
    if (cbp_)
        next = std::min(next, cbp_->nextResetAt());
    next = std::min(next, fuCompletions_.next(now));

    const DispatchState d = dispatchState();
    if (d != DispatchState::Idle) {
        if (fetchResumeAt_ > now + 1)
            next = std::min(next, fetchResumeAt_);
        else if (d == DispatchState::Busy)
            return now + 1;
        // else: a deterministic structural stall whose counter
        // skipTo() bumps in bulk until an event frees the resource.
    }

    if (next == kNoCycle)
        return kNoCycle;
    return std::max(next, now + 1);
}

void
Core::skipTo(Cycle to)
{
    if (!active_ || to <= now_)
        return;
    const Cycle from = now_;
    const std::uint64_t k = to - from;
    now_ = to;
    stats_.cycles += k;

    if (robCount_ > 0) {
        RobEntry &head = entryOf(headSeq_);
        if (head.op.cls == OpClass::Load &&
            head.state == EntryState::Issued && head.blocked)
            head.stallCycles += k;
    }

    const DispatchState d = dispatchState();
    if (d == DispatchState::Idle || d == DispatchState::Busy)
        return;
    if (fetchResumeAt_ > from + 1)
        return; // certified window ends before the fetch resumes
    switch (d) {
      case DispatchState::RobFull:
        stats_.robFullCycles += k;
        break;
      case DispatchState::IqFull:
        stats_.iqFullCycles += k;
        break;
      case DispatchState::LqFull:
        stats_.lqFullCycles += k;
        break;
      case DispatchState::SqFull:
        stats_.sqFullCycles += k;
        break;
      case DispatchState::BranchLimit:
        stats_.branchLimitCycles += k;
        break;
      default:
        break;
    }
}

void
Core::memDone(MemToken token)
{
    // The hierarchy's clock is the cycle being ticked right now; the
    // skipped window's accounting must be replayed against the state
    // this completion is about to mutate.
    skipTo(mem_.now() - 1);
    poked_ = true;
    complete(token, mem_.now());
}

} // namespace critmem

/**
 * @file
 * DRAM protocol invariant checker.
 *
 * A ProtocolChecker attaches to every channel of a DramSystem as a
 * passive ChannelObserver and re-derives the full DDR3 constraint set
 * from the observed command stream alone — it never reads the
 * channel's own readyX bookkeeping, so a bug in the channel's timing
 * arithmetic cannot hide from it. On top of the timing rules it
 * enforces conservation (every enqueued request completes exactly
 * once, promotions never lower criticality, no request starves) and
 * liveness (the forward-progress watchdog), and at finalize() it
 * cross-checks its shadow event counts against the channel statistics.
 */

#ifndef CRITMEM_CHECK_PROTOCOL_CHECKER_HH
#define CRITMEM_CHECK_PROTOCOL_CHECKER_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/check.hh"
#include "dram/observer.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace critmem
{

class DramSystem;

/** Shadow model + rule engine; see file comment. */
class ProtocolChecker : public ChannelObserver
{
  public:
    /**
     * @param check Harness policy (fail-fast, bounds).
     * @param dram The checked subsystem's geometry and timing; the
     *             checker keeps its own copy.
     */
    ProtocolChecker(const CheckConfig &check, const DramConfig &dram);

    /**
     * Attach to every channel of @p dram, arming each channel's
     * watchdog with CheckConfig::watchdogCycles.
     */
    void attach(DramSystem &dram);

    // ChannelObserver interface.
    void onEnqueue(std::uint32_t channel, const MemRequest &req,
                   const DramCoord &coord, DramCycle now) override;
    void onReject(std::uint32_t channel, const MemRequest &req,
                  DramCycle now) override;
    void onCommand(std::uint32_t channel, DramCmd cmd,
                   const DramCoord &coord, DramCycle now) override;
    void onAutoPrecharge(std::uint32_t channel, const DramCoord &coord,
                         DramCycle now) override;
    void onComplete(std::uint32_t channel, const MemRequest &req,
                    DramCycle now) override;
    void onPromote(std::uint32_t channel, Addr addr, CoreId core,
                   CritLevel previous, CritLevel requested,
                   CritLevel applied, DramCycle now) override;
    void onStall(const DramChannel &channel, DramCycle now) override;

    /**
     * End-of-run checks: outstanding requests (LostRequest, unless
     * @p requireDrained is false) and overdue refreshes.
     */
    void finalize(bool requireDrained = true);

    /**
     * Compare shadow per-channel event counts against the published
     * statistics. @p prefix locates the channel groups below @p root
     * ("dram." when root is the System's stats root; "" when root is
     * the channels' direct parent).
     */
    void crossCheckStats(const stats::Group &root,
                         const std::string &prefix = "dram.");

    /** Zero the shadow event counters (mirrors Group::resetAll). */
    void onStatsReset();

    /** Total violations detected (including ones past the store cap). */
    std::uint64_t totalViolations() const { return total_; }

    /** Allowed refresh-interval overshoot past tREFI, DRAM cycles. */
    static constexpr DramCycle kRefreshSlack = 2000;
    /** Cap on stored violation records (counting continues past it). */
    static constexpr std::size_t kMaxViolations = 64;

    /** Stored violation records (capped at kMaxViolations). */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /** @return true when at least one violation of @p rule was seen. */
    bool hasRule(RuleId rule) const;

    /** Requests enqueued but not yet completed. */
    std::size_t outstanding() const { return outstanding_.size(); }

    /** Human-readable multi-line summary of everything detected. */
    std::string report() const;

  private:
    struct BankShadow
    {
        bool open = false;
        std::uint64_t row = 0;
        DramCycle lastAct = 0;      ///< ACT command cycle
        DramCycle lastRead = 0;     ///< read CAS command cycle
        DramCycle lastWriteEnd = 0; ///< write data-burst end cycle
        DramCycle lastPre = 0;      ///< precharge completion anchor
    };

    struct RankShadow
    {
        std::vector<BankShadow> banks;
        DramCycle lastReadCas = 0;
        DramCycle lastWriteCas = 0;
        DramCycle lastReadBurstEnd = 0;
        DramCycle lastWriteBurstEnd = 0;
        DramCycle lastActAny = 0;
        std::array<DramCycle, 4> actTimes{};
        std::uint32_t actHead = 0;
        DramCycle lastRef = 0;
    };

    struct Counters
    {
        std::uint64_t activates = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t precharges = 0;
        std::uint64_t refreshes = 0;
        std::uint64_t autoPrecharges = 0;
        std::uint64_t rejects = 0;
    };

    struct ChannelShadow
    {
        std::vector<RankShadow> ranks;
        DramCycle lastCmdCycle = 0;
        DramCycle busEnd = 0;       ///< exclusive end of latest burst
        std::uint32_t busRank = 0;
        Counters counters;
    };

    struct Pending
    {
        std::uint32_t channel = 0;
        Addr addr = 0;
        CoreId core = 0;
        DramCycle enqueued = 0;
        bool starvationFlagged = false;
    };

    void record(RuleId rule, std::uint32_t channel, DramCycle now,
                std::string message, bool forceThrow = false);
    void checkAct(ChannelShadow &ch, std::uint32_t channel,
                  const DramCoord &c, DramCycle now);
    void checkCas(ChannelShadow &ch, std::uint32_t channel, bool isWrite,
                  const DramCoord &c, DramCycle now);
    void checkPre(ChannelShadow &ch, std::uint32_t channel,
                  const DramCoord &c, DramCycle now);
    void checkRef(ChannelShadow &ch, std::uint32_t channel,
                  std::uint32_t rank, DramCycle now);
    void scanStarvation(DramCycle now);
    void checkScalar(const stats::Group &root, const std::string &path,
                     std::uint64_t shadow, std::uint32_t channel);

    CheckConfig check_;
    DramTiming t_;
    std::vector<ChannelShadow> channels_;
    std::map<std::uint64_t, Pending> outstanding_;
    DramCycle lastSeenCycle_ = 0;
    DramCycle lastStarvationScan_ = 0;

    std::vector<Violation> violations_;
    std::map<RuleId, std::uint64_t> countsByRule_;
    std::uint64_t total_ = 0;
};

} // namespace critmem

#endif // CRITMEM_CHECK_PROTOCOL_CHECKER_HH

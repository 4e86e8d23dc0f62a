/**
 * @file
 * Configurable fault injector: deliberately corrupts one aspect of
 * channel behaviour (per CheckConfig::fault) so tests can prove the
 * matching ProtocolChecker rule fires. Stochastic faults draw from a
 * private seeded Rng, so every run is reproducible.
 */

#ifndef CRITMEM_CHECK_FAULT_INJECTOR_HH
#define CRITMEM_CHECK_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/observer.hh"
#include "sim/config.hh"
#include "sim/random.hh"

namespace critmem
{

/** FaultInjector driven by a CheckConfig fault description. */
class ScriptedFaultInjector : public FaultInjector
{
  public:
    explicit ScriptedFaultInjector(const CheckConfig &cfg);
    ~ScriptedFaultInjector() override;

    bool dropCompletion(const MemRequest &req, DramCycle now) override;
    std::uint32_t casSlack(DramCycle now) override;
    bool skipRefresh(std::uint32_t rank, DramCycle now) override;
    bool starveCore(CoreId core) override;
    bool corruptPromotion(DramCycle now) override;

    /** Number of faults actually injected so far. */
    std::uint64_t injections() const { return injections_; }

  private:
    /** One Bernoulli(1/faultPeriod) draw; period <= 1 always fires. */
    bool roll();

    /**
     * Process-level faults (CrashWorker / HogMemory) trigger exactly
     * once, on the faultPeriod-th opportunity — a deterministic
     * countdown rather than a Bernoulli draw, so the crash point (and
     * hence the journal/record bytes of an isolated campaign) is
     * reproducible run to run. Called from the casSlack hook, the
     * most frequently consulted injection point.
     */
    void processFault();

    /** Seed of the private Rng: every run draws the same faults. */
    static constexpr std::uint64_t kSeed = 12345;
    /** Size of one HogMemory mmap region (1 MiB). */
    static constexpr std::size_t kHogChunkBytes = std::size_t{1} << 20;

    FaultKind kind_;
    std::uint64_t period_;
    CoreId victim_;
    Rng rng_;
    std::uint64_t injections_ = 0;
    std::uint64_t opportunities_ = 0;
    /** HogMemory ballast: anonymous mmap regions (see processFault). */
    std::vector<void *> hog_;
};

} // namespace critmem

#endif // CRITMEM_CHECK_FAULT_INJECTOR_HH

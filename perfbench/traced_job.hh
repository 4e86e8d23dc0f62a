/**
 * @file
 * Traced re-execution of one campaign job, timed layer by layer from
 * outside the simulator.
 *
 * runTraced() rebuilds what exec::executeJob() + runSystem() +
 * System::run() do, using only the components' public interfaces:
 * it constructs the scheduler, DRAM system, cache hierarchy, trace
 * generators and cores itself, wraps the scheduler and the generators
 * in timing decorators, and drives the same tick / lazy-core /
 * fast-forward loop. Every call into a layer's public entry point is
 * one span; a layer's time is its self time (span duration minus the
 * nested spans of other layers). The stats tree it returns must be
 * byte-identical to the untraced run's, which the benchmark checks.
 */

#ifndef CRITMEM_PERFBENCH_TRACED_JOB_HH
#define CRITMEM_PERFBENCH_TRACED_JOB_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/job.hh"

namespace critmem::perfbench
{

/** The layers a traced run attributes host time to. */
enum class Layer : std::uint8_t
{
    Cpu,         ///< Core::tick/skipTo/nextEventCycle
    Mem,         ///< MemHierarchy::tick/skipTo/nextEventCycle
    Dram,        ///< DramSystem::tick/skipTo/nextEventCycle
    Sched,       ///< every Scheduler call (decorator)
    Trace,       ///< TraceGenerator::next (decorator)
    Build,       ///< construction + cache prewarm
    FastForward, ///< the skip probe and bulk advance
};

inline constexpr std::size_t kLayers = 7;

/**
 * Host self time per layer over nested spans, plus the deterministic
 * work counters gathered at the same boundaries. Summed over jobs.
 */
struct LayerProfile
{
    std::array<double, kLayers> selfS{};
    /** Host seconds of the whole traced job (build + run). */
    double jobS = 0.0;

    std::uint64_t cpuTicks = 0;
    std::uint64_t opsCommitted = 0;
    std::uint64_t critLookups = 0;
    std::uint64_t critFlagged = 0;
    std::uint64_t memTicks = 0;
    std::uint64_t dramRejects = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t casServed = 0;
    std::uint64_t dramTicks = 0;
    std::uint64_t dramCmds = 0;
    std::uint64_t enqueueRejects = 0;
    std::uint64_t schedPicks = 0;
    std::uint64_t schedCandidates = 0;
    std::uint64_t schedIssues = 0;
    std::uint64_t traceUops = 0;
    std::uint64_t cpuCycles = 0;
    std::uint64_t cpuCyclesSkipped = 0;

    double self(Layer layer) const
    {
        return selfS[static_cast<std::size_t>(layer)];
    }

    LayerProfile &operator+=(const LayerProfile &other);
};

/**
 * Nested span bookkeeping: each span charges its duration minus its
 * children's to its own layer.
 */
class SpanClock
{
  public:
    explicit SpanClock(LayerProfile &profile) : profile_(profile) {}

    void enter(Layer layer)
    {
        stack_.push_back({layer, Clock::now(), 0.0});
    }

    void leave();

  private:
    using Clock = std::chrono::steady_clock;

    struct Frame
    {
        Layer layer;
        Clock::time_point start;
        double childS;
    };

    LayerProfile &profile_;
    std::vector<Frame> stack_;
};

/** RAII span: enter on construction, leave on destruction. */
class Span
{
  public:
    Span(SpanClock &clock, Layer layer) : clock_(clock)
    {
        clock_.enter(layer);
    }
    ~Span() { clock_.leave(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanClock &clock_;
};

/**
 * Run @p spec traced, adding its layer profile to @p profile.
 * Supports the Parallel, Alone and Bundle kinds without the protocol
 * checker or fault injection (the benchmark's jobs use neither).
 * @return the finished run's stats tree as JSON (Group::printJson).
 * @throws std::runtime_error on an unsupported or invalid job.
 */
std::string runTraced(const exec::JobSpec &spec, LayerProfile &profile);

} // namespace critmem::perfbench

#endif // CRITMEM_PERFBENCH_TRACED_JOB_HH

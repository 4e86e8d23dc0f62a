/**
 * @file
 * Declarative sweep specifications: a workload × variant cross-product
 * (with exclusion filters) that expands into the job list a campaign
 * executes. Specs can be built programmatically (perfbench's
 * workloads) or parsed from the line-based ".sweep" format
 * (critmem-sweep).
 *
 * Seeding discipline: with seedMode=fixed every job runs at the
 * campaign seed (what every figure spec does); with
 * seedMode=derived each job's seed is deriveSeed(campaignSeed, name),
 * decorrelating jobs while keeping the whole campaign reproducible
 * from the single campaign seed.
 */

#ifndef CRITMEM_EXEC_SWEEP_HH
#define CRITMEM_EXEC_SWEEP_HH

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/job.hh"

namespace critmem::exec
{

/**
 * A malformed .sweep spec. Carries the 1-based line number and the
 * byte offset of the offending line so drivers and fuzz harnesses can
 * point at the exact location (the analogue of TraceError for spec
 * files). Line 0 marks a spec that parses but does not expand; its
 * message then carries no offset.
 */
class SweepError : public std::runtime_error
{
  public:
    SweepError(const std::string &message, std::size_t lineNo,
               std::uint64_t byteOffset);

    /** 1-based line number of the offending line. */
    std::size_t lineNo() const { return lineNo_; }

    /** Offset into the stream where that line starts. */
    std::uint64_t byteOffset() const { return byteOffset_; }

  private:
    std::size_t lineNo_;
    std::uint64_t byteOffset_;
};

/** One configuration column: a name plus key=value settings. */
struct SweepVariant
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> settings;
};

/**
 * One external trace source declared by a spec. expand() scans and
 * validates the file before workload names resolve, and hands the
 * scan to every job that replays it.
 */
struct TraceDecl
{
    std::string name;
    std::string path;
};

/** A declarative experiment campaign. */
struct SweepSpec
{
    enum class Mode { Parallel, Multiprog };
    enum class SeedMode { Fixed, Derived };

    Mode mode = Mode::Parallel;
    /**
     * App names (Parallel) or bundle names (Multiprog); empty or the
     * single entry "*" selects every workload of the mode (plus, in
     * Parallel mode, every trace declared by this spec). Parallel
     * workload names may also name a trace this spec declares.
     */
    std::vector<std::string> workloads;
    /** External trace sources, scanned by each expansion. */
    std::vector<TraceDecl> traces;
    /** Configuration columns; at least one is required to expand. */
    std::vector<SweepVariant> variants;
    std::uint64_t quota = 24000;
    std::uint64_t warmup = kDefaultWarmup;
    std::uint64_t campaignSeed = 1;
    SeedMode seedMode = SeedMode::Fixed;
    /** Attach the protocol checker to every job. */
    bool check = false;
    /** Capture every job's stats tree as JSON into the records. */
    bool captureStats = false;
    /**
     * Multiprog only: add one alone-run baseline job per distinct app
     * appearing in the selected bundles (named "alone/<app>"), for
     * weighted-speedup post-processing.
     */
    bool alone = false;
    /**
     * With alone: the variant whose settings the baselines run at;
     * empty runs them at the base (variant-free) configuration.
     */
    std::string aloneVariant;
    /** Glob patterns ('*' wildcard) against "workload/variant". */
    std::vector<std::string> exclude;

    /**
     * Expand into the ordered job list. Validates workload names,
     * variant settings and the resulting configs, and rejects an
     * exclude pattern that drops no job (alone jobs included) and a
     * campaign of zero jobs. Throws SweepError (line 0) describing
     * the first problem, or the TraceError of a declared trace.
     * Workload names resolve only against this spec's own trace
     * lines, and nothing outlives the call: expanding one spec never
     * changes what another expands to.
     */
    std::vector<JobSpec> expand() const;
};

/** '*'-wildcard match (the filter language of SweepSpec::exclude). */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * Parse the .sweep text format:
 *
 *   # comment
 *   mode = parallel | multiprog
 *   workloads = art, swim        (or *)
 *   quota = 24000
 *   seed = 1
 *   seed-mode = fixed | derived
 *   check = 0 | 1
 *   alone = 0 | 1 | VARIANT      (VARIANT: baselines at its settings)
 *   stats = 0 | 1
 *   exclude = art/morse, swim/morse   ('*' wildcards allowed)
 *   scheds = frfcfs, tcm         (shorthand: one variant per entry)
 *   variant NAME : key=value key=value ...
 *   trace NAME : path=FILE       (format detected from the file;
 *                                 any decode error fails the spec)
 *
 * Throws SweepError carrying the line number and byte offset on
 * syntax errors.
 */
SweepSpec parseSweepSpec(std::istream &in);

/**
 * parseSweepSpec() over a file; throws when unreadable. Relative
 * trace paths are resolved against the spec file's directory.
 */
SweepSpec parseSweepFile(const std::string &path);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_SWEEP_HH

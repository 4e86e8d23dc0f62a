/**
 * @file
 * Structured result sinks for the experiment-execution engine.
 *
 * The JobRunner's single aggregation thread feeds every registered
 * sink with JobRecords in submission (index) order, so sink
 * implementations need no locking and campaign outputs are
 * byte-identical regardless of worker-thread count. Serialized
 * records deliberately exclude wall-clock timings.
 */

#ifndef CRITMEM_EXEC_RESULT_SINK_HH
#define CRITMEM_EXEC_RESULT_SINK_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "exec/job.hh"

namespace critmem::exec
{

/**
 * Aggregate IPC of a finished job: parallel runs report
 * quota * cores / cycles; bundle runs the sum of per-core IPCs;
 * alone runs core 0's IPC.
 */
double aggregateIpc(const JobRecord &rec);

/** A named RunResult field: its JSONL key and stat:EXPR name. */
template <typename T>
struct ResultField
{
    const char *name;
    T RunResult::*member;
};

/**
 * The named RunResult scalars, in the order JsonlSink and the
 * campaign journal write them: the counters, then the means.
 */
inline constexpr ResultField<std::uint64_t> kResultCounters[] = {
    {"dynamicLoads", &RunResult::dynamicLoads},
    {"blockingLoads", &RunResult::blockingLoads},
    {"robBlockedCycles", &RunResult::robBlockedCycles},
    {"coreCycles", &RunResult::coreCycles},
    {"loadsIssued", &RunResult::loadsIssued},
    {"critLoadsIssued", &RunResult::critLoadsIssued},
    {"lqFullCycles", &RunResult::lqFullCycles},
    {"demandMisses", &RunResult::demandMisses},
    {"critMissCount", &RunResult::critMissCount},
    {"nonCritMissCount", &RunResult::nonCritMissCount},
    {"rowHits", &RunResult::rowHits},
    {"rowMisses", &RunResult::rowMisses},
    {"dramReads", &RunResult::dramReads},
    {"maxCbpValue", &RunResult::maxCbpValue},
    {"cbpPopulated", &RunResult::cbpPopulated},
};
inline constexpr ResultField<double> kResultMeans[] = {
    {"l2MissLatCrit", &RunResult::l2MissLatCrit},
    {"l2MissLatNonCrit", &RunResult::l2MissLatNonCrit},
};

/**
 * Visit every named RunResult scalar in table order: visit(name,
 * value), value a std::uint64_t counter or a double mean.
 */
template <typename Visit>
void
forEachScalar(const RunResult &r, Visit &&visit)
{
    for (const auto &field : kResultCounters)
        visit(field.name, r.*field.member);
    for (const auto &field : kResultMeans)
        visit(field.name, r.*field.member);
}

/** The forEachScalar() value named @p name; nullopt when none is. */
std::optional<double> findScalar(const RunResult &r,
                                 const std::string &name);

/** Consumer of finished-job records. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Called once before any record, with the campaign size. */
    virtual void begin(std::size_t totalJobs) { (void)totalJobs; }

    /** Called once per job, in submission order. */
    virtual void consume(const JobRecord &rec) = 0;

    /** Called once after the last record. */
    virtual void end() {}
};

/** One self-contained JSON object per job, one job per line. */
class JsonlSink : public ResultSink
{
  public:
    explicit JsonlSink(std::ostream &os) : os_(os) {}

    void consume(const JobRecord &rec) override;

  private:
    std::ostream &os_;
};

/** Flat spreadsheet-friendly table with a fixed column set. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os) : os_(os) {}

    void begin(std::size_t totalJobs) override;
    void consume(const JobRecord &rec) override;

  private:
    std::ostream &os_;
};

/** Buffers every record for programmatic queries and --report. */
class MemorySink : public ResultSink
{
  public:
    void
    consume(const JobRecord &rec) override
    {
        records_.push_back(rec);
    }

    const std::vector<JobRecord> &records() const { return records_; }

    /** Record of the job named @p name; nullptr when absent. */
    const JobRecord *find(const std::string &name) const;

    /**
     * The job's RunResult, insisting it succeeded (throws
     * std::runtime_error naming the job and its error otherwise).
     */
    const RunResult &result(const std::string &name) const;

  private:
    std::vector<JobRecord> records_;
};

} // namespace critmem::exec

#endif // CRITMEM_EXEC_RESULT_SINK_HH

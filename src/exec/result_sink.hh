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
#include <utility>
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

/**
 * Visit every named RunResult scalar in the order JsonlSink writes
 * them: visit(name, value), value a std::uint64_t counter or a double
 * mean. The names are the JSONL keys and the stat:EXPR names of
 * critmem-sweep --report.
 */
template <typename Visit>
void
forEachScalar(const RunResult &r, Visit &&visit)
{
    const std::pair<const char *, std::uint64_t> counters[] = {
        {"dynamicLoads", r.dynamicLoads},
        {"blockingLoads", r.blockingLoads},
        {"robBlockedCycles", r.robBlockedCycles},
        {"coreCycles", r.coreCycles},
        {"loadsIssued", r.loadsIssued},
        {"critLoadsIssued", r.critLoadsIssued},
        {"lqFullCycles", r.lqFullCycles},
        {"demandMisses", r.demandMisses},
        {"critMissCount", r.critMissCount},
        {"nonCritMissCount", r.nonCritMissCount},
        {"rowHits", r.rowHits},
        {"rowMisses", r.rowMisses},
        {"dramReads", r.dramReads},
        {"maxCbpValue", r.maxCbpValue},
        {"cbpPopulated", r.cbpPopulated},
    };
    for (const auto &[name, value] : counters)
        visit(name, value);
    visit("l2MissLatCrit", r.l2MissLatCrit);
    visit("l2MissLatNonCrit", r.l2MissLatNonCrit);
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

/**
 * Writes each record's captured stats tree (stats::Group JSON) as one
 * JSON document per line — the sink behind critmem-sim --stats-json.
 */
class StatsJsonSink : public ResultSink
{
  public:
    explicit StatsJsonSink(std::ostream &os) : os_(os) {}

    void consume(const JobRecord &rec) override;

  private:
    std::ostream &os_;
};

} // namespace critmem::exec

#endif // CRITMEM_EXEC_RESULT_SINK_HH

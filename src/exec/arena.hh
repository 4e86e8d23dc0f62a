/**
 * @file
 * The scheduler arena's fairness annotation on top of the campaign
 * engine (its leaderboard is --report arena, exec/report.hh).
 *
 * A FairnessAnnotator plugs into RunnerOptions::annotate. Sweep
 * expansion emits every alone-run baseline before the bundle jobs
 * that need it, and the aggregation thread delivers records in
 * submission order, so the annotator simply banks each Alone record's
 * IPC under its app name and decorates every later Bundle record with
 * fair::FairnessMetrics — deterministically, for any --jobs count, on
 * fresh and journal-replayed records alike. A campaign has one alone
 * job per app (at the base config or the spec's `alone` variant), so
 * the app name is the whole key.
 */

#ifndef CRITMEM_EXEC_ARENA_HH
#define CRITMEM_EXEC_ARENA_HH

#include <cstdint>
#include <map>
#include <string>

#include "exec/result_sink.hh"
#include "fair/metrics.hh"

namespace critmem::exec
{

/**
 * Decorates Bundle records with fairness metrics computed against the
 * campaign's own alone-run baselines. Invoked only from the
 * aggregation thread (submission order); not thread-safe.
 */
class FairnessAnnotator
{
  public:
    /** The RunnerOptions::annotate entry point. */
    void operator()(JobRecord &rec);

    /** Alone IPC per app banked so far (for tests). */
    const std::map<std::string, double> &baselines() const
    {
        return baselines_;
    }

  private:
    std::map<std::string, double> baselines_;
};

/**
 * Splice a "fair" stats group into a captured stats-tree JSON object
 * so fairness metrics ride the --stats / stats-JSON channel too.
 * Returns @p statsJson unchanged when it is empty.
 */
std::string spliceFairStats(const std::string &statsJson,
                            const fair::FairnessMetrics &m,
                            std::uint32_t numCores);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_ARENA_HH

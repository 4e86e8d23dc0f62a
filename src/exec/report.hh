/**
 * @file
 * The post-campaign tables behind critmem-sweep --report, printed
 * from a finished campaign's in-memory records: speedup:BASE,
 * stat:EXPR[,EXPR...] (forEachScalar() names or NUM/DEN ratios, one
 * column per variant and EXPR, with Average and Max rows),
 * fairness:BASE (each variant's weighted speedup and max slowdown
 * over BASE's, on bundles with alone baselines), arena and failures.
 * Rows follow submission order and skip a workload whose jobs did not
 * all succeed, so the bytes never depend on --jobs.
 */

#ifndef CRITMEM_EXEC_REPORT_HH
#define CRITMEM_EXEC_REPORT_HH

#include <cstdio>
#include <string>

#include "exec/result_sink.hh"
#include "exec/sweep.hh"

namespace critmem::exec
{

/**
 * Empty when @p layout names a report @p spec can print, else the
 * usage error. critmem-sweep checks every layout before any job
 * runs, so a typo fails fast instead of printing an empty table after
 * the whole campaign.
 */
std::string reportError(const std::string &layout, const SweepSpec &spec);

/** Print @p layout, which reportError() accepted, to @p out. */
void printReport(std::FILE *out, const std::string &layout,
                 const SweepSpec &spec, const MemorySink &memory);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_REPORT_HH

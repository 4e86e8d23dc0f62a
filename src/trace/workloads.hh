/**
 * @file
 * Registry of workload models: the nine parallel applications of
 * Table 2, the single-threaded applications composing Table 4's
 * multiprogrammed bundles, the bundle definitions themselves, and
 * the scan that turns an external trace file (src/trace/ingest) into
 * a trace-backed workload.
 */

#ifndef CRITMEM_TRACE_WORKLOADS_HH
#define CRITMEM_TRACE_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/ingest/ingest.hh"
#include "trace/synthetic.hh"

namespace critmem
{

/** The nine parallel applications (Table 2), in the paper's order. */
const std::vector<AppParams> &parallelApps();

/**
 * The single-threaded applications that compose the Table 4 bundles,
 * in the paper's order.
 */
const std::vector<AppParams> &singleApps();

/** Look up any registered application model by name. */
const AppParams &appParams(const std::string &name);

/** @return whether @p name is a registered application model. */
bool haveApp(const std::string &name);

/** A four-application multiprogrammed bundle (Table 4). */
struct Bundle
{
    std::string name;
    std::array<std::string, 4> apps;
};

/** The eight multiprogrammed bundles (Table 4). */
const std::vector<Bundle> &multiprogBundles();

/** Look up a bundle by name; nullptr when unknown. */
const Bundle *findBundle(const std::string &name);

/**
 * One trace-backed workload: an external trace file that passed a
 * full validating scan, plus the scan's summary (identity hash,
 * per-core footprints) that the execution engine folds into campaign
 * hashes and cache prewarming.
 */
struct TraceWorkload
{
    std::string name;
    std::string path;
    std::uint32_t numCores = 0;
    std::uint64_t records = 0; ///< decoded by the scan
    std::uint64_t contentHash = 0; ///< FNV-1a of the raw file bytes
    /** Per-core (base, size) prewarm regions; size 0 = no mem ops. */
    std::vector<std::pair<Addr, std::uint64_t>> coreRegions;
};

/**
 * Scan and validate @p path as trace workload @p name. The whole
 * file is decoded up front, so the workload is known to stream
 * cleanly and to feed every declared core, which the loop-at-EOF
 * replay requires. Keeps no state: every call rescans the file.
 *
 * @throws TraceError when the file cannot be decoded or leaves a
 *         core without records.
 * @throws std::runtime_error when @p name is empty, holds '/' or
 *         whitespace, or names a built-in application or bundle.
 */
TraceWorkload scanTraceWorkload(const std::string &name,
                                const std::string &path);

} // namespace critmem

#endif // CRITMEM_TRACE_WORKLOADS_HH

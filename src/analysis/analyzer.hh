/**
 * @file
 * The critmem-lint driver: walks the checkout, runs every registered
 * source rule over src/, tools/, bench/ and examples/ one file at a
 * time (honoring inline lint:allow suppressions) and flags stale
 * suppressions.
 */

#ifndef CRITMEM_ANALYSIS_ANALYZER_HH
#define CRITMEM_ANALYSIS_ANALYZER_HH

#include <set>
#include <string>
#include <vector>

#include "analysis/rule.hh"

namespace critmem::analysis
{

/** What to analyze and how. */
struct AnalyzerOptions
{
    /** Absolute path of the repository root. */
    std::string root;
    /** When nonempty, only run rules whose id is listed. */
    std::set<std::string> ruleFilter;
};

/** Outcome of one analysis run. */
struct Report
{
    /** Unsuppressed findings, in stable (path, line, rule) order. */
    std::vector<Finding> findings;
    std::size_t filesScanned = 0;

    /** True when no finding has Severity::Error. */
    bool clean() const;
};

/**
 * The directories (relative to the root) whose C++ sources the
 * source rules scan. tests/ is excluded by design: tests may
 * legitimately poke at forbidden constructs, and the rule fixtures
 * under tests/analysis/fixtures/ violate rules on purpose.
 */
const std::vector<std::string> &scannedDirs();

/** Run every (filtered) rule over the checkout at @p opts.root. */
Report runAnalysis(const AnalyzerOptions &opts);

/**
 * Run every source rule and the stale-suppression check over one
 * in-memory file, honoring its suppressions — the entry point
 * fixture tests use. Findings appear in rule-registration order
 * (source, then stale-suppression), unsorted.
 */
std::vector<Finding> analyzeFile(const SourceFile &file);

} // namespace critmem::analysis

#endif // CRITMEM_ANALYSIS_ANALYZER_HH

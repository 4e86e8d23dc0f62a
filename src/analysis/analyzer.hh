/**
 * @file
 * The critmem-lint driver: walks the checkout, runs every registered
 * source rule over src/, tools/, bench/ and examples/ one file at a
 * time (honoring inline lint:allow suppressions), flags stale
 * suppressions, and filters the result through a checked-in baseline
 * file.
 *
 * The baseline exists so the lint target can be adopted on a tree
 * with known findings and still fail on NEW ones; this repository
 * ships an empty baseline (every surfaced violation was fixed).
 */

#ifndef CRITMEM_ANALYSIS_ANALYZER_HH
#define CRITMEM_ANALYSIS_ANALYZER_HH

#include <set>
#include <string>
#include <vector>

#include "analysis/rule.hh"

namespace critmem::analysis
{

/** Known-finding keys loaded from a baseline file. */
struct Baseline
{
    std::set<std::string> keys;

    /** True when @p finding is covered (and records the use). */
    bool covers(const Finding &finding) const;
};

/**
 * Parse a baseline file: '#' comments and blank lines ignored, every
 * other line is one Finding::baselineKey() (rule TAB path TAB
 * message). Throws std::runtime_error when @p path is unreadable.
 */
Baseline loadBaseline(const std::string &path);

/** Serialize @p findings as baseline lines (sorted, commented). */
std::string formatBaseline(const std::vector<Finding> &findings);

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
    /** Active findings, in stable (path, line, rule) order. */
    std::vector<Finding> findings;
    /** Findings matched and silenced by the baseline. */
    std::vector<Finding> baselined;
    std::size_t filesScanned = 0;

    /** True when no active finding has Severity::Error. */
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
Report runAnalysis(const AnalyzerOptions &opts,
                   const Baseline &baseline);

/**
 * Run every source rule and the stale-suppression check over one
 * in-memory file, honoring its suppressions — the entry point
 * fixture tests use. Findings appear in rule-registration order
 * (source, then stale-suppression), unsorted.
 */
std::vector<Finding> analyzeFile(const SourceFile &file);

/**
 * Serialize @p report as deterministic JSON (stable key order,
 * sorted findings, '\n' line ends): filesScanned, clean, findings[]
 * and baselined[], each finding carrying rule/severity/path/line/
 * message.
 */
std::string formatJson(const Report &report);

} // namespace critmem::analysis

#endif // CRITMEM_ANALYSIS_ANALYZER_HH

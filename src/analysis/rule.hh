/**
 * @file
 * Rule interfaces and the pluggable rule registry of critmem-lint.
 *
 * Two rule families exist. SourceRules pattern-match one SourceFile
 * at a time (determinism, clock-domain, protocol-bypass and hygiene
 * invariants over the C++ tree). DataRules validate checked-in data
 * against the simulator's own registries: every DDR3 timing preset
 * and every sweep campaign under specs/ is checked at build time,
 * before any workload runs — the static twin of the runtime protocol
 * checker (DESIGN.md section 8).
 */

#ifndef CRITMEM_ANALYSIS_RULE_HH
#define CRITMEM_ANALYSIS_RULE_HH

#include <string>
#include <vector>

#include "analysis/finding.hh"
#include "analysis/source_file.hh"

namespace critmem::analysis
{

/** A per-file lexical rule. */
class SourceRule
{
  public:
    virtual ~SourceRule() = default;

    virtual const RuleMeta &meta() const = 0;

    /**
     * Append findings for @p file. Suppressions and baseline are
     * applied by the caller, not the rule.
     */
    virtual void check(const SourceFile &file,
                       std::vector<Finding> &out) const = 0;
};

/** What a data rule may inspect: the repository checkout. */
struct RepoContext
{
    /** Absolute path of the repository root. */
    std::string root;
};

/** A repo-level rule over checked-in data (presets, sweep specs). */
class DataRule
{
  public:
    virtual ~DataRule() = default;

    virtual const RuleMeta &meta() const = 0;

    virtual void check(const RepoContext &repo,
                       std::vector<Finding> &out) const = 0;
};

/** Every source rule, in stable registration order. */
const std::vector<const SourceRule *> &sourceRules();

/** Every data rule, in stable registration order. */
const std::vector<const DataRule *> &dataRules();

/**
 * Meta of the analyzer-implemented stale-suppression finding (a
 * lint:allow that no longer suppresses anything is itself an error).
 */
const RuleMeta &staleSuppressionMeta();

/**
 * Metadata of every registered rule (source, then stale-suppression,
 * then data).
 */
std::vector<RuleMeta> allRuleMetas();

/** @return whether @p id names a registered rule. */
bool haveRule(const std::string &id);

} // namespace critmem::analysis

#endif // CRITMEM_ANALYSIS_RULE_HH

/**
 * @file
 * Rule interfaces and the rule registry of critmem-lint. Every rule
 * is a SourceRule that pattern-matches one SourceFile at a time
 * (determinism, clock-domain, protocol-bypass and hygiene invariants
 * over the C++ tree; DESIGN.md section 8). Checked-in data (timing
 * presets, sweep specs, traces) is validated by the code that loads
 * it, not here.
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

/** Every source rule, in stable registration order. */
const std::vector<const SourceRule *> &sourceRules();

/**
 * Meta of the analyzer-implemented stale-suppression finding (a
 * lint:allow that no longer suppresses anything is itself an error).
 */
const RuleMeta &staleSuppressionMeta();

/** Metadata of every registered rule (source, then stale-suppression). */
std::vector<RuleMeta> allRuleMetas();

/** @return whether @p id names a registered rule. */
bool haveRule(const std::string &id);

} // namespace critmem::analysis

#endif // CRITMEM_ANALYSIS_RULE_HH

#include "analysis/rule.hh"

namespace critmem::analysis
{

const RuleMeta &
staleSuppressionMeta()
{
    static const RuleMeta kMeta{
        "stale-suppression", Severity::Error,
        "a lint:allow that suppresses nothing must be removed"};
    return kMeta;
}

std::vector<RuleMeta>
allRuleMetas()
{
    std::vector<RuleMeta> metas;
    for (const SourceRule *rule : sourceRules())
        metas.push_back(rule->meta());
    metas.push_back(staleSuppressionMeta());
    return metas;
}

bool
haveRule(const std::string &id)
{
    for (const RuleMeta &meta : allRuleMetas()) {
        if (id == meta.id)
            return true;
    }
    return false;
}

} // namespace critmem::analysis

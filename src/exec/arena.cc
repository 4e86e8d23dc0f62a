#include "exec/arena.hh"

#include <algorithm>
#include <vector>

#include "fair/fairness_stats.hh"
#include "fair/metrics.hh"
#include "trace/workloads.hh"

namespace critmem::exec
{

void
FairnessAnnotator::operator()(JobRecord &rec)
{
    if (!rec.ok())
        return;

    if (rec.spec.kind == RunKind::Alone) {
        baselines_.insert_or_assign(rec.spec.workload,
                                    rec.result.ipc(0, rec.spec.quota));
        return;
    }
    if (rec.spec.kind != RunKind::Bundle)
        return;

    const Bundle *bundle = findBundle(rec.spec.workload);
    if (bundle == nullptr)
        return;
    const std::uint32_t cores =
        std::min<std::uint32_t>(rec.spec.cfg.numCores,
                                bundle->apps.size());

    std::vector<double> alone;
    alone.reserve(cores);
    for (std::uint32_t core = 0; core < cores; ++core) {
        const auto it = baselines_.find(bundle->apps[core]);
        if (it == baselines_.end())
            return; // no baseline: fairness stays invalid
        alone.push_back(it->second);
    }

    rec.fairness = fair::computeFairness(
        fair::sharedIpcs(rec.result, rec.spec.quota, cores), alone);
    rec.statsJson =
        spliceFairStats(rec.statsJson, rec.fairness, cores);
}

std::string
spliceFairStats(const std::string &statsJson,
                const fair::FairnessMetrics &m, std::uint32_t numCores)
{
    const std::size_t close = statsJson.rfind('}');
    if (statsJson.empty() || close == std::string::npos)
        return statsJson;

    fair::FairnessStats stats(nullptr, numCores);
    stats.set(m);

    // Insert before the object's closing brace; an empty "{}" tree
    // gets no leading comma.
    const bool bare = statsJson.find_first_not_of(
        " \t", statsJson.find('{') + 1) == close;
    std::string out = statsJson.substr(0, close);
    out += bare ? "\"fair\":" : ",\"fair\":";
    out += stats.json();
    out += statsJson.substr(close);
    return out;
}

} // namespace critmem::exec

#include "fair/baseline_cache.hh"

#include <cstdio>

#include "sim/fnv.hh"

namespace critmem::fair
{

namespace
{

void
hashCache(Fnv1a &fnv, const CacheConfig &c)
{
    fnv.u64(c.sizeBytes);
    fnv.u64(c.blockBytes);
    fnv.u64(c.ways);
    fnv.u64(c.latency);
    fnv.u64(c.mshrs);
    fnv.u64(c.ports);
}

} // namespace

std::uint64_t
configHash(const SystemConfig &cfg)
{
    Fnv1a fnv;
    fnv.u64(cfg.numCores);
    fnv.u64(cfg.seed);
    fnv.f64(cfg.prewarmDirtyFrac);
    fnv.u64(cfg.burstiness.has_value());
    fnv.f64(cfg.burstiness.value_or(0.0));

    const CoreConfig &core = cfg.core;
    fnv.u64(core.freqMHz);
    fnv.u64(core.fetchWidth);
    fnv.u64(core.issueWidth);
    fnv.u64(core.commitWidth);
    fnv.u64(core.robEntries);
    fnv.u64(core.intIqEntries);
    fnv.u64(core.fpIqEntries);
    fnv.u64(core.lqEntries);
    fnv.u64(core.sqEntries);
    fnv.u64(core.intAlus);
    fnv.u64(core.fpAlus);
    fnv.u64(core.loadPorts);
    fnv.u64(core.storePorts);
    fnv.u64(core.branchUnits);
    fnv.u64(core.intMuls);
    fnv.u64(core.fpMuls);
    fnv.u64(core.maxUnresolvedBranches);
    fnv.u64(core.mispredictPenalty);

    hashCache(fnv, cfg.il1);
    hashCache(fnv, cfg.dl1);
    hashCache(fnv, cfg.l2);

    const PrefetchConfig &pf = cfg.prefetch;
    fnv.u64(pf.enabled);
    fnv.u64(pf.streams);
    fnv.u64(pf.distance);
    fnv.u64(pf.degree);

    const DramConfig &dram = cfg.dram;
    fnv.u64(static_cast<std::uint64_t>(dram.speed));
    fnv.u64(dram.busMHz);
    fnv.u64(dram.channels);
    fnv.u64(dram.ranksPerChannel);
    fnv.u64(dram.banksPerRank);
    fnv.u64(dram.rowBytes);
    fnv.u64(dram.queueEntries);
    fnv.u64(dram.closedPage);
    fnv.u64(static_cast<std::uint64_t>(dram.mapKind));
    fnv.u64(dram.unifiedQueue);
    const DramTiming &t = dram.t;
    fnv.u64(t.tRCD); fnv.u64(t.tCL); fnv.u64(t.tWL); fnv.u64(t.tCCD);
    fnv.u64(t.tWTR); fnv.u64(t.tWR); fnv.u64(t.tRTP); fnv.u64(t.tRP);
    fnv.u64(t.tRRD); fnv.u64(t.tFAW); fnv.u64(t.tRTRS); fnv.u64(t.tRAS);
    fnv.u64(t.tRC); fnv.u64(t.tRFC); fnv.u64(t.tREFI);
    fnv.u64(t.burstLength);

    const SchedConfig &sched = cfg.sched;
    fnv.u64(static_cast<std::uint64_t>(sched.algo));
    fnv.u64(sched.morseMaxCommands);

    const CritConfig &crit = cfg.crit;
    fnv.u64(static_cast<std::uint64_t>(crit.predictor));
    fnv.u64(crit.tableEntries);
    fnv.u64(crit.resetInterval);
    fnv.u64(crit.clptThreshold);
    fnv.u64(crit.counterWidth);
    fnv.u64(crit.probShift);

    return fnv.hash;
}

std::string
AloneBaselineCache::key(const std::string &app, const SystemConfig &cfg,
                        std::uint64_t quota)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "\x1f%016llx\x1f%llu",
                  static_cast<unsigned long long>(configHash(cfg)),
                  static_cast<unsigned long long>(quota));
    return app + buf;
}

double
AloneBaselineCache::getOrCompute(const std::string &app,
                                 const SystemConfig &cfg,
                                 std::uint64_t quota,
                                 const std::function<double()> &compute)
{
    const std::string k = key(app, cfg, quota);
    const auto it = cache_.find(k);
    if (it != cache_.end())
        return it->second;
    ++runs_;
    const double ipc = compute();
    cache_.emplace(k, ipc);
    return ipc;
}

const double *
AloneBaselineCache::find(const std::string &app, const SystemConfig &cfg,
                         std::uint64_t quota) const
{
    const auto it = cache_.find(key(app, cfg, quota));
    return it == cache_.end() ? nullptr : &it->second;
}

void
AloneBaselineCache::insert(const std::string &app,
                           const SystemConfig &cfg, std::uint64_t quota,
                           double aloneIpc)
{
    cache_.insert_or_assign(key(app, cfg, quota), aloneIpc);
}

} // namespace critmem::fair

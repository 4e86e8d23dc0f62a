#include <cstdio>
#include <cstdlib>
#include "exec/job.hh"
#include "sim/log.hh"
using namespace critmem;

static exec::JobSpec job(const SystemConfig& cfg, const AppParams& app, std::uint64_t quota) {
    return exec::makeJob(app.name, exec::RunKind::Parallel, app.name, cfg, quota);
}

static RunResult run(const SystemConfig& cfg, const AppParams& app, std::uint64_t quota) {
    return exec::executeJob(job(cfg, app, quota));
}

// Queue occupancy of a cold run (no prewarm or warmup window).
static double occ(const SystemConfig& cfg, const AppParams& app, std::uint64_t quota, double* util, double* lat) {
    const std::unique_ptr<System> built = exec::buildSystem(job(cfg, app, quota));
    System& sys = *built;
    sys.run(quota, true);
    double o = 0, l = 0; std::uint64_t cyc = 0, busy = 0, n = 0;
    for (std::uint32_t c = 0; c < sys.dram().numChannels(); ++c) {
        const auto& ds = sys.dram().channel(c).channelStats();
        o += ds.readQueueOcc.mean();
        busy += ds.busyDataCycles.value();
        cyc = ds.readQueueOcc.count();
        l += ds.readLatency.mean(); n++;
    }
    *util = 100.0 * busy / (double)(cyc * sys.dram().numChannels());
    *lat = l / n;
    return o / n;
}

int main(int argc, char** argv) {
    setQuiet(true);
    const std::uint64_t quota = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
    std::printf("%-10s %6s %7s %7s %7s %6s %6s %7s %7s %7s %7s %8s %8s %8s\n",
                "app", "IPC", "%ldBlk", "%tBlk", "L2mpki", "qOcc", "util%", "rdLat", "spBin", "spMax", "spCrit1", "latCrit", "latNon", "%crMiss");
    for (const AppParams& app : parallelApps()) {
        SystemConfig base = SystemConfig::parallelDefault();
        base.sched.algo = SchedAlgo::FrFcfs;
        RunResult b = run(base, app, quota);
        double util=0, lat=0;
        double qocc = occ(base, app, quota, &util, &lat);

        SystemConfig cbin = base;
        cbin.sched.algo = SchedAlgo::CasRasCrit;
        cbin.crit.predictor = CritPredictor::CbpBinary;
        RunResult rbin = run(cbin, app, quota);

        SystemConfig cmax = cbin;
        cmax.crit.predictor = CritPredictor::CbpMaxStall;
        RunResult rmax = run(cmax, app, quota);

        SystemConfig c1 = cmax;
        c1.sched.algo = SchedAlgo::CritCasRas;
        RunResult r1 = run(c1, app, quota);

        const double ipc = (double)(quota * base.numCores) / b.cycles;
        std::printf("%-10s %6.3f %7.2f %7.2f %7.2f %6.2f %6.1f %7.1f %7.3f %7.3f %7.3f %8.1f %8.1f %8.2f\n",
            app.name.c_str(), ipc,
            100.0 * b.blockingLoads / (double)b.dynamicLoads,
            100.0 * b.robBlockedCycles / (double)b.coreCycles,
            1000.0 * b.demandMisses / (double)(quota * base.numCores),
            qocc, util, lat,
            speedup(b, rbin), speedup(b, rmax), speedup(b, r1),
            rmax.l2MissLatCrit, rmax.l2MissLatNonCrit,
            100.0 * rmax.critMissCount / (double)(rmax.critMissCount + rmax.nonCritMissCount));
    }
    return 0;
}

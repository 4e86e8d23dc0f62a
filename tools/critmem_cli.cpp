/**
 * @file
 * critmem-sim: command-line front end for single simulations.
 *
 * Runs one workload / configuration and prints either a summary line
 * or the full statistics tree — the "drive anything without writing
 * C++" entry point for downstream users. The command line is one
 * exec::JobSpec (exec::parseSimCommand, the inverse of the repro lines
 * campaign failure records carry), built and run by the same
 * buildSystem()/runSystem() path as every campaign job.
 *
 *   critmem-sim --app art --sched casras-crit --predictor maxstall \
 *               --instrs 50000 --stats
 *   critmem-sim --bundle RFGI --sched parbs --instrs 20000
 *   critmem-sim --app swim --ranks 1 --speed ddr3-1600 --prefetch
 *   critmem-sim --app mg --alone --stats-json mg.json
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "exec/job.hh"
#include "fair/fairness_stats.hh"
#include "sched/registry.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/workloads.hh"

using namespace critmem;

namespace
{

void
usage()
{
    std::printf(
        "usage: critmem-sim [options]\n"
        "One simulation job; failure records of critmem-sweep carry\n"
        "the critmem-sim line that reproduces them.\n"
        "  --app NAME         parallel application (see"
        " --list-workloads)\n"
        "  --bundle NAME      Table 4 bundle instead (AELV CMLI GAMV"
        " GDPC GSMV RFEV RFGI RGTM)\n"
        "  --trace [NAME=]PATH\n"
        "                     register an external trace file as a\n"
        "                     workload (repeatable; default name is\n"
        "                     the file stem); with no --app it is also\n"
        "                     the workload to run; the format comes\n"
        "                     from the file's magic and any decode\n"
        "                     error is fatal\n"
        "  --alone            run --app on core 0 with the other cores"
        " idle\n"
        "  --fairness         (with --bundle) also run each bundle app\n"
        "                     alone, derive weighted/harmonic speedup,\n"
        "                     max slowdown and unfairness, and attach\n"
        "                     them as the 'fair' stats group\n"
        "  --preset NAME      base config: parallel (default) |"
        " multiprog\n"
        "  --sched NAME       scheduling algorithm (default frfcfs;"
        " see --list-schedulers)\n"
        "  --predictor NAME   criticality predictor (default none;"
        " see --list-schedulers)\n"
        "  --entries N        CBP/CLPT entries, 0 = unlimited"
        " (default 64)\n"
        "  --reset N          CBP reset interval, CPU cycles"
        " (default 0)\n"
        "  --counter-width N  saturating CBP counter bits"
        " (default 0 = unbounded)\n"
        "  --prob-shift N     probabilistic CBP updates at 2^-N"
        " (default 0 = exact)\n"
        "  --instrs N         commit quota per core (default 24000)\n"
        "  --warmup N         warmup instructions (default half the"
        " quota)\n"
        "  --seed N           simulation seed (default 1)\n"
        "  --ranks N          ranks per channel (default 4)\n"
        "  --channels N       DRAM channels (default 4; bundles 2)\n"
        "  --speed NAME       ddr3-1066 | ddr3-1600 | ddr3-2133\n"
        "  --map KIND         address interleaving: page (default)"
        " | block\n"
        "  --lq N             load queue entries (default 32)\n"
        "  --dirty F          dirty fraction of the prewarmed L2"
        " (default 0.12)\n"
        "  --burstiness F     override every app's burstiness"
        " (0..1)\n"
        "  --morse-cmds N     MORSE commands evaluated per pick\n"
        "  --cores N          cores (default: the preset's, the\n"
        "                     bundle's apps or the trace's cores)\n"
        "  --prefetch         enable the L2 stream prefetcher\n"
        "  --closed-page      closed-page row policy\n"
        "  --split-wq         modern split write buffer\n"
        "                     (every config flag --KEY VALUE above is\n"
        "                     the .sweep variant setting KEY=VALUE;\n"
        "                     the last three are KEY=1)\n"
        "  --stats            dump the full statistics tree\n"
        "  --stats-json FILE  write the stats tree as JSON;"
        " '-' = stdout\n"
        "  --no-cycle-skip    force the tick-every-cycle loop (results\n"
        "                     are identical either way; this only\n"
        "                     changes simulator speed)\n"
        "  --cycle-skip       re-enable event-driven cycle skipping\n"
        "  --list-workloads   print every registered workload and"
        " exit\n"
        "  --list-schedulers  print schedulers and predictors and"
        " exit\n"
        "  --quiet            suppress informational logging\n"
        "  --check            enable the DRAM protocol invariant\n"
        "                     checker and forward-progress watchdog\n"
        "                     (exit 2 on violation)\n"
        "  --inject KIND      inject faults (implies --check):\n"
        "                     drop-completion | early-cas |"
        " skip-refresh |\n"
        "                     starve-core | flip-crit |"
        " crash-worker |\n"
        "                     hog-memory (the last two fault the"
        " process\n"
        "                     itself — for critmem-sweep --isolate"
        " drills)\n"
        "  --inject-period N  mean opportunities between faults"
        " (default 64)\n"
        "  --help             print this text and exit\n"
        "exit status: 0 done, 1 bad invocation, 2 checker violation,\n"
        "3 the run stopped at its safety cycle limit (truncated)\n");
}

void
listWorkloads()
{
    std::printf("parallel applications (--app):\n");
    for (const AppParams &app : parallelApps())
        std::printf("  %s\n", app.name.c_str());
    std::printf("single-threaded applications (--app, bundles):\n");
    for (const AppParams &app : singleApps())
        std::printf("  %s\n", app.name.c_str());
    std::printf("multiprogrammed bundles (--bundle):\n");
    for (const Bundle &bundle : multiprogBundles()) {
        std::printf("  %-5s = %s + %s + %s + %s\n",
                    bundle.name.c_str(), bundle.apps[0].c_str(),
                    bundle.apps[1].c_str(), bundle.apps[2].c_str(),
                    bundle.apps[3].c_str());
    }
    if (!traceWorkloads().empty()) {
        std::printf("trace-backed workloads (--trace / --app):\n");
        for (const TraceWorkload &wl : traceWorkloads()) {
            std::printf("  %-12s %s  (%u cores, %llu records)\n",
                        wl.name.c_str(), wl.path.c_str(), wl.numCores,
                        static_cast<unsigned long long>(wl.records));
        }
    }
}

void
listSchedulers()
{
    // Column widths track the registry so long scheduler names
    // (dyn-thresh-crit, ...) never squeeze the description off-grid.
    int cliWidth = 0;
    int displayWidth = 0;
    for (const SchedInfo &info : schedulerRegistry()) {
        cliWidth = std::max(cliWidth,
                            static_cast<int>(std::strlen(info.cliName)));
        displayWidth = std::max(
            displayWidth,
            static_cast<int>(std::strlen(info.displayName)));
    }
    std::printf("schedulers (--sched):\n");
    for (const SchedInfo &info : schedulerRegistry()) {
        std::printf("  %-*s %-*s %s\n", cliWidth, info.cliName,
                    displayWidth, info.displayName, info.desc);
    }
    std::printf("criticality predictors (--predictor):\n");
    for (const PredictorInfo &info : predictorRegistry())
        std::printf("  %-14s %s\n", info.cliName, info.desc);
}

} // namespace

int
main(int argc, char **argv)
{
    exec::SimCommand cmd;
    try {
        cmd = exec::parseSimCommand({argv + 1, argv + argc});
    } catch (const std::exception &err) {
        fatal(err.what());
    }
    if (cmd.quiet)
        setQuiet(true);
    if (cmd.help) {
        usage();
        return 0;
    }
    if (cmd.listWorkloads || cmd.listSchedulers) {
        if (cmd.listWorkloads)
            listWorkloads();
        if (cmd.listSchedulers)
            listSchedulers();
        return 0;
    }

    const exec::JobSpec &spec = cmd.spec;
    const SystemConfig &cfg = spec.cfg;
    std::unique_ptr<System> sys;
    try {
        sys = exec::buildSystem(spec);
    } catch (const std::exception &err) {
        fatal(err.what());
    }

    RunResult r;
    try {
        r = runSystem(*sys, spec.quota, spec.warmup, spec.stopAtQuota());
    } catch (const CheckViolation &err) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", err.what());
        if (sys->checker())
            std::fputs(sys->checker()->report().c_str(), stderr);
        return 2;
    } catch (const CycleLimitError &err) {
        std::fprintf(stderr, "CYCLE LIMIT: %s\n", err.what());
        return 3;
    }
    if (sys->checker()) {
        if (sys->checker()->totalViolations() != 0) {
            std::fputs(sys->checker()->report().c_str(), stderr);
            return 2;
        }
        std::fprintf(stderr, "checker: 0 violations%s\n",
                     cfg.check.fault != FaultKind::None
                         ? " (fault injection armed but never fired)"
                         : "");
    }

    // An alone run only commits on core 0; everything else reports
    // whole-machine throughput.
    const double ipc = spec.kind == exec::RunKind::Alone
        ? static_cast<double>(spec.quota) /
              static_cast<double>(r.finishCycles[0])
        : static_cast<double>(spec.quota) * cfg.numCores /
              static_cast<double>(r.cycles);
    std::printf("workload=%s sched=%s predictor=%s cycles=%llu "
                "ipc=%.4f\n",
                spec.workload.c_str(), toString(cfg.sched.algo),
                toString(cfg.crit.predictor),
                static_cast<unsigned long long>(r.cycles), ipc);
    std::printf("loads=%llu blocking=%llu (%.2f%%) robBlocked=%.2f%% "
                "l2missLat crit/non = %.1f / %.1f\n",
                static_cast<unsigned long long>(r.dynamicLoads),
                static_cast<unsigned long long>(r.blockingLoads),
                100.0 * static_cast<double>(r.blockingLoads) /
                    static_cast<double>(std::max<std::uint64_t>(
                        r.dynamicLoads, 1)),
                100.0 * static_cast<double>(r.robBlockedCycles) /
                    static_cast<double>(
                        std::max<std::uint64_t>(r.coreCycles, 1)),
                r.l2MissLatCrit, r.l2MissLatNonCrit);

    // --fairness: run each bundle app alone (once per distinct app,
    // so a bundle with repeated apps runs each baseline once), derive
    // the fairness metrics against the shared run, and attach them to
    // the stats tree before either dump.
    std::optional<fair::FairnessStats> fairStats;
    if (cmd.fairness) {
        std::map<std::string, double> baselines;
        std::vector<double> aloneIpc;
        for (const std::string &name : findBundle(spec.workload)->apps) {
            const auto [it, fresh] = baselines.try_emplace(name, 0.0);
            if (fresh) {
                exec::JobSpec alone = spec;
                alone.name = "alone/" + name;
                alone.kind = exec::RunKind::Alone;
                alone.workload = name;
                it->second = exec::executeJob(alone).ipc(0, spec.quota);
            }
            aloneIpc.push_back(it->second);
        }
        const fair::FairnessMetrics m = fair::computeFairness(
            fair::sharedIpcs(r, spec.quota, cfg.numCores), aloneIpc);
        fairStats.emplace(&sys->statsRoot(), cfg.numCores);
        fairStats->set(m);
        if (m.valid) {
            std::printf("fair: ws=%.4f hs=%.4f maxslow=%.4f "
                        "unfair=%.4f (%llu alone runs)\n",
                        m.weightedSpeedup, m.harmonicSpeedup,
                        m.maxSlowdown, m.unfairness,
                        static_cast<unsigned long long>(
                            baselines.size()));
        } else {
            std::printf(
                "fair: invalid (a core never reached its quota)\n");
        }
    }

    if (cmd.dumpStats)
        sys->statsRoot().print(std::cout);
    if (!cmd.statsJsonPath.empty()) {
        if (cmd.statsJsonPath == "-") {
            sys->statsRoot().printJson(std::cout);
            std::cout << '\n';
        } else {
            // Atomic temp+fsync+rename write: a crash mid-dump never
            // leaves a truncated JSON file at the target path.
            try {
                stats::writeJsonFile(cmd.statsJsonPath,
                                     sys->statsRoot());
            } catch (const std::exception &err) {
                fatal("cannot write --stats-json file '",
                      cmd.statsJsonPath, "': ", err.what());
            }
        }
    }
    return 0;
}

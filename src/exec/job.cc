#include "exec/job.hh"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/check.hh"
#include "sched/registry.hh"
#include "sim/fnv.hh"
#include "system/system.hh"
#include "trace/ingest/ingest.hh"
#include "trace/workloads.hh"

namespace critmem::exec
{

namespace
{

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error(what);
}

std::uint32_t
parseU32(const std::string &key, const std::string &value)
{
    const std::uint64_t parsed = parseUint(key, value);
    if (parsed > 0xffffffffull)
        bad("out-of-range number for " + key + ": '" + value + "'");
    return static_cast<std::uint32_t>(parsed);
}

/** A plain decimal such as 0.35 or 1e-3; no sign, inf or nan. */
double
parseReal(const std::string &key, const std::string &value)
{
    double parsed = 0.0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    // from_chars alone would take a leading '-', inf and nan.
    if (ec != std::errc() || ptr != end ||
        (value[0] != '.' && (value[0] < '0' || value[0] > '9')))
        bad("unparsable number for " + key + ": '" + value + "'");
    return parsed;
}

/** The shortest text parseReal() reads back as exactly @p value. */
std::string
realText(double value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

using Setter = void (*)(SystemConfig &cfg, const std::string &key,
                        const std::string &value);

/** One applySetting() key; also critmem-sim's --KEY flag. */
struct Setting
{
    const char *key;
    Setter apply;
};

const Setting kSettings[] = {
    {"sched",
     [](SystemConfig &cfg, const std::string &, const std::string &v) {
         const auto algo = findSchedAlgo(v);
         if (!algo)
             bad("unknown scheduler '" + v + "'");
         cfg.sched.algo = *algo;
     }},
    {"predictor",
     [](SystemConfig &cfg, const std::string &, const std::string &v) {
         const auto pred = findCritPredictor(v);
         if (!pred)
             bad("unknown predictor '" + v + "'");
         cfg.crit.predictor = *pred;
     }},
    {"entries",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.crit.tableEntries = parseU32(k, v);
     }},
    {"reset",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.crit.resetInterval = parseUint(k, v);
     }},
    {"ranks",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.dram.ranksPerChannel = parseU32(k, v);
     }},
    {"channels",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.dram.channels = parseU32(k, v);
     }},
    {"speed",
     [](SystemConfig &cfg, const std::string &, const std::string &v) {
         const auto speed = findDramSpeed(v);
         if (!speed)
             bad("unknown speed grade '" + v + "'");
         const DramConfig fresh = DramConfig::preset(*speed);
         cfg.dram.t = fresh.t;
         cfg.dram.busMHz = fresh.busMHz;
         cfg.dram.speed = *speed;
     }},
    {"counter-width",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.crit.counterWidth = parseU32(k, v);
     }},
    {"prob-shift",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.crit.probShift = parseU32(k, v);
     }},
    {"map",
     [](SystemConfig &cfg, const std::string &, const std::string &v) {
         if (v == "page")
             cfg.dram.mapKind = AddressMapKind::PageInterleave;
         else if (v == "block")
             cfg.dram.mapKind = AddressMapKind::BlockInterleave;
         else
             bad("unknown address map '" + v + "' (page or block)");
     }},
    {"lq",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.core.lqEntries = parseU32(k, v);
     }},
    {"dirty",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.prewarmDirtyFrac = parseReal(k, v);
     }},
    {"burstiness",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.burstiness = parseReal(k, v);
     }},
    {"prefetch",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.prefetch.enabled = parseBool(k, v);
     }},
    {"closed-page",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.dram.closedPage = parseBool(k, v);
     }},
    {"split-wq",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.dram.unifiedQueue = !parseBool(k, v);
     }},
    {"morse-cmds",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.sched.morseMaxCommands = parseU32(k, v);
     }},
    {"cores",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.numCores = parseU32(k, v);
     }},
    {"seed",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.seed = parseUint(k, v);
     }},
    {"inject",
     [](SystemConfig &cfg, const std::string &, const std::string &v) {
         const auto fault = findFaultKind(v);
         if (!fault)
             bad("unknown fault kind '" + v + "'");
         cfg.check.fault = *fault;
         // A fault only shows through the checker.
         cfg.check.enabled = true;
     }},
    {"inject-period",
     [](SystemConfig &cfg, const std::string &k, const std::string &v) {
         cfg.check.faultPeriod = parseUint(k, v);
     }},
};

const Setting *
findSetting(const std::string &key)
{
    for (const Setting &setting : kSettings) {
        if (key == setting.key)
            return &setting;
    }
    return nullptr;
}

/** "[NAME=]PATH" -> (name, path); the name defaults to the file stem. */
std::pair<std::string, std::string>
splitTraceArg(const std::string &arg)
{
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos)
        return {arg.substr(0, eq), arg.substr(eq + 1)};
    const std::size_t slash = arg.find_last_of('/');
    std::string name =
        slash == std::string::npos ? arg : arg.substr(slash + 1);
    return {name.substr(0, name.find('.')), arg};
}

/** The core count parseSimCommand() gives @p spec without --cores. */
std::uint32_t
defaultCores(const JobSpec &spec, const SystemConfig &base)
{
    if (spec.kind == RunKind::Bundle) {
        if (const Bundle *bundle = findBundle(spec.workload))
            return static_cast<std::uint32_t>(bundle->apps.size());
    } else if (spec.kind == RunKind::Trace) {
        if (const TraceWorkload *wl = findTraceWorkload(spec.workload))
            return wl->numCores;
    }
    return base.numCores;
}

} // namespace

const char *
toString(RunKind kind)
{
    switch (kind) {
      case RunKind::Parallel: return "parallel";
      case RunKind::Bundle:   return "bundle";
      case RunKind::Alone:    return "alone";
      case RunKind::Trace:    return "trace";
    }
    return "?";
}

const char *
toString(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:             return "ok";
      case JobStatus::CheckViolation: return "check_violation";
      case JobStatus::TraceError:     return "trace_error";
      case JobStatus::Error:          return "error";
      case JobStatus::Timeout:        return "timeout";
      case JobStatus::Crashed:        return "crashed";
      case JobStatus::Oom:            return "oom";
      case JobStatus::Exit:           return "exit";
      case JobStatus::CycleLimit:     return "cycle_limit";
    }
    return "?";
}

bool
parseJobStatus(const std::string &name, JobStatus &out)
{
    for (const JobStatus status :
         {JobStatus::Ok, JobStatus::CheckViolation,
          JobStatus::TraceError, JobStatus::Error, JobStatus::Timeout,
          JobStatus::Crashed, JobStatus::Oom, JobStatus::Exit,
          JobStatus::CycleLimit}) {
        if (name == toString(status)) {
            out = status;
            return true;
        }
    }
    return false;
}

JobSpec
makeJob(std::string name, RunKind kind, std::string workload,
        SystemConfig cfg, std::uint64_t quota)
{
    JobSpec spec;
    spec.name = std::move(name);
    spec.kind = kind;
    spec.workload = std::move(workload);
    spec.cfg = std::move(cfg);
    spec.quota = quota;
    return spec;
}

std::uint64_t
parseUint(const std::string &key, const std::string &value)
{
    // std::stoull alone would take leading blanks and wrap a '-'.
    if (value.empty() || value[0] < '0' || value[0] > '9')
        bad("unparsable number for " + key + ": '" + value + "'");
    try {
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(value, &used, 10);
        if (used != value.size())
            bad("trailing junk in " + key + " = '" + value + "'");
        return parsed;
    } catch (const std::out_of_range &) {
        bad("out-of-range number for " + key + ": '" + value + "'");
    }
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    bad("expected boolean for " + key + ", got '" + value + "'");
}

void
applySetting(SystemConfig &cfg, const std::string &key,
             const std::string &value)
{
    const Setting *setting = findSetting(key);
    if (!setting)
        bad("unknown setting '" + key + "'");
    setting->apply(cfg, key, value);
}

SimCommand
parseSimCommand(const std::vector<std::string> &args)
{
    SimCommand cmd;
    JobSpec &spec = cmd.spec;
    // The preset decides the base config every other flag overrides,
    // so resolve it before the main flag pass.
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "--preset")
            spec.multiprogPreset = args[i + 1] == "multiprog";
    }
    const SystemConfig base = spec.multiprogPreset
        ? SystemConfig::multiprogDefault()
        : SystemConfig::parallelDefault();
    spec.cfg = base;

    std::string app;
    std::string bundle;
    bool alone = false;
    bool coresSet = false;
    std::vector<std::pair<std::string, std::string>> traces;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        const auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                bad("missing value");
            return args[++i];
        };
        try {
            if (flag == "--app") {
                app = value();
            } else if (flag == "--bundle") {
                bundle = value();
            } else if (flag == "--trace") {
                const std::string &arg = value();
                traces.push_back(splitTraceArg(arg));
                if (traces.back().first.empty() ||
                    traces.back().second.empty())
                    bad("needs [NAME=]PATH, got '" + arg + "'");
            } else if (flag == "--alone") {
                alone = true;
            } else if (flag == "--fairness") {
                cmd.fairness = true;
            } else if (flag == "--preset") {
                const std::string &preset = value();
                if (preset != "parallel" && preset != "multiprog")
                    bad("unknown preset '" + preset + "'");
            } else if (flag == "--instrs") {
                spec.quota = parseUint("instrs", value());
            } else if (flag == "--warmup") {
                spec.warmup = parseUint("warmup", value());
            } else if (flag == "--prefetch" || flag == "--closed-page" ||
                       flag == "--split-wq") {
                applySetting(spec.cfg, flag.substr(2), "1");
            } else if (flag == "--check") {
                spec.cfg.check.enabled = true;
            } else if (flag == "--no-cycle-skip") {
                spec.cfg.fastForward = false;
            } else if (flag == "--cycle-skip") {
                spec.cfg.fastForward = true;
            } else if (flag == "--stats") {
                cmd.dumpStats = true;
            } else if (flag == "--stats-json") {
                cmd.statsJsonPath = value();
            } else if (flag == "--list-workloads") {
                cmd.listWorkloads = true;
            } else if (flag == "--list-schedulers") {
                cmd.listSchedulers = true;
            } else if (flag == "--quiet") {
                cmd.quiet = true;
            } else if (flag == "--help" || flag == "-h") {
                cmd.help = true;
            } else if (flag.rfind("--", 0) == 0 &&
                       findSetting(flag.substr(2))) {
                applySetting(spec.cfg, flag.substr(2), value());
                coresSet = coresSet || flag == "--cores";
            } else {
                bad("unknown option (see --help)");
            }
        } catch (const std::runtime_error &err) {
            bad(flag + ": " + err.what());
        }
    }

    for (const auto &[name, path] : traces) {
        try {
            registerTraceWorkload(name, path);
        } catch (const std::exception &err) {
            bad("--trace " + name + ": " + err.what());
        }
    }
    if (cmd.help || cmd.listWorkloads || cmd.listSchedulers)
        return cmd;

    if (app.empty() && bundle.empty() && traces.size() == 1)
        app = traces[0].first;
    if (app.empty() == bundle.empty())
        bad("give exactly one of --app, --bundle or a lone --trace");
    if (alone && app.empty())
        bad("--alone requires --app");
    if (cmd.fairness && bundle.empty())
        bad("--fairness requires --bundle");

    spec.workload = app.empty() ? bundle : app;
    spec.name = spec.workload;
    if (!bundle.empty()) {
        spec.kind = RunKind::Bundle;
    } else if (findTraceWorkload(app)) {
        if (alone)
            bad("--alone does not apply to trace workloads");
        spec.kind = RunKind::Trace;
    } else {
        spec.kind = alone ? RunKind::Alone : RunKind::Parallel;
    }
    if (!coresSet)
        spec.cfg.numCores = defaultCores(spec, base);
    return cmd;
}

std::string
reproCommand(const JobSpec &spec)
{
    const SystemConfig base = spec.multiprogPreset
        ? SystemConfig::multiprogDefault()
        : SystemConfig::parallelDefault();
    const SystemConfig &cfg = spec.cfg;

    std::ostringstream cmd;
    cmd << "critmem-sim";
    if (spec.multiprogPreset)
        cmd << " --preset multiprog";
    if (spec.kind == RunKind::Bundle) {
        cmd << " --bundle " << spec.workload;
    } else if (spec.kind == RunKind::Trace) {
        // Re-register the trace source, then select it by name.
        if (const TraceWorkload *wl =
                findTraceWorkload(spec.workload)) {
            cmd << " --trace " << wl->name << '=' << wl->path;
        } else {
            cmd << " --trace " << spec.workload << "=<path>";
        }
    } else {
        cmd << " --app " << spec.workload;
    }
    if (spec.kind == RunKind::Alone)
        cmd << " --alone";
    if (cfg.numCores != defaultCores(spec, base))
        cmd << " --cores " << cfg.numCores;
    cmd << " --sched " << cliName(cfg.sched.algo);
    if (cfg.sched.morseMaxCommands != base.sched.morseMaxCommands)
        cmd << " --morse-cmds " << cfg.sched.morseMaxCommands;
    if (cfg.crit.predictor != CritPredictor::None)
        cmd << " --predictor " << cliName(cfg.crit.predictor);
    if (cfg.crit.predictor != CritPredictor::None ||
        cfg.crit.tableEntries != base.crit.tableEntries)
        cmd << " --entries " << cfg.crit.tableEntries;
    if (cfg.crit.resetInterval != 0)
        cmd << " --reset " << cfg.crit.resetInterval;
    if (cfg.crit.counterWidth != base.crit.counterWidth)
        cmd << " --counter-width " << cfg.crit.counterWidth;
    if (cfg.crit.probShift != base.crit.probShift)
        cmd << " --prob-shift " << cfg.crit.probShift;
    cmd << " --instrs " << spec.quota;
    if (spec.warmup != kDefaultWarmup)
        cmd << " --warmup " << spec.warmup;
    cmd << " --seed " << cfg.seed;
    if (cfg.dram.ranksPerChannel != base.dram.ranksPerChannel)
        cmd << " --ranks " << cfg.dram.ranksPerChannel;
    if (cfg.dram.channels != base.dram.channels)
        cmd << " --channels " << cfg.dram.channels;
    if (cfg.dram.speed != base.dram.speed)
        cmd << " --speed " << cliName(cfg.dram.speed);
    if (cfg.dram.mapKind != base.dram.mapKind)
        cmd << " --map "
            << (cfg.dram.mapKind == AddressMapKind::BlockInterleave
                    ? "block"
                    : "page");
    if (cfg.core.lqEntries != base.core.lqEntries)
        cmd << " --lq " << cfg.core.lqEntries;
    if (cfg.prewarmDirtyFrac != base.prewarmDirtyFrac)
        cmd << " --dirty " << realText(cfg.prewarmDirtyFrac);
    if (cfg.burstiness)
        cmd << " --burstiness " << realText(*cfg.burstiness);
    if (cfg.prefetch.enabled)
        cmd << " --prefetch";
    if (cfg.dram.closedPage)
        cmd << " --closed-page";
    if (!cfg.dram.unifiedQueue)
        cmd << " --split-wq";
    if (cfg.check.fault != FaultKind::None) {
        cmd << " --inject " << toString(cfg.check.fault)
            << " --inject-period " << cfg.check.faultPeriod;
    } else {
        if (cfg.check.faultPeriod != base.check.faultPeriod)
            cmd << " --inject-period " << cfg.check.faultPeriod;
        if (cfg.check.enabled)
            cmd << " --check";
    }
    return cmd.str();
}

std::unique_ptr<System>
buildSystem(const JobSpec &spec)
{
    // Validate up front and throw instead of letting System's
    // constructor fatal(): a malformed job must not take the
    // campaign down.
    const ConfigErrors errors = spec.cfg.validate();
    if (!errors.empty()) {
        std::ostringstream msg;
        msg << "invalid config for job '" << spec.name << "':";
        for (const ConfigError &err : errors)
            msg << ' ' << err.field << ": " << err.message << ';';
        bad(msg.str());
    }

    // Synthetic apps, with the burstiness override applied.
    const auto app = [&](const std::string &name) {
        AppParams params = appParams(name);
        if (spec.cfg.burstiness)
            params.burstiness = *spec.cfg.burstiness;
        return params;
    };
    switch (spec.kind) {
      case RunKind::Parallel:
      case RunKind::Alone: {
        if (!haveApp(spec.workload))
            bad("unknown application '" + spec.workload + "'");
        if (spec.kind == RunKind::Parallel)
            return std::make_unique<System>(spec.cfg, app(spec.workload));
        // The other cores stay idle: default AppParams, empty name.
        std::vector<AppParams> perCore(spec.cfg.numCores);
        perCore[0] = app(spec.workload);
        return std::make_unique<System>(spec.cfg, perCore);
      }
      case RunKind::Bundle: {
        const Bundle *bundle = findBundle(spec.workload);
        if (!bundle)
            bad("unknown bundle '" + spec.workload + "'");
        if (spec.cfg.numCores != bundle->apps.size()) {
            bad("bundle job '" + spec.name + "' needs " +
                std::to_string(bundle->apps.size()) + " cores");
        }
        std::vector<AppParams> perCore;
        for (const std::string &name : bundle->apps)
            perCore.push_back(app(name));
        return std::make_unique<System>(spec.cfg, perCore);
      }
      case RunKind::Trace: {
        const TraceWorkload *wl = findTraceWorkload(spec.workload);
        if (!wl)
            bad("unknown trace workload '" + spec.workload + "'");
        if (spec.cfg.burstiness)
            bad("trace job '" + spec.name +
                "': burstiness applies to synthetic apps only");
        if (spec.cfg.numCores != wl->numCores) {
            bad("trace job '" + spec.name + "' needs " +
                std::to_string(wl->numCores) + " cores (config has " +
                std::to_string(spec.cfg.numCores) + ")");
        }
        return std::make_unique<System>(spec.cfg, *wl);
      }
    }
    bad("unknown run kind");
}

RunResult
executeJob(const JobSpec &spec, std::string *statsJson,
           const std::atomic<bool> *cancel)
{
    const std::unique_ptr<System> sys = buildSystem(spec);
    sys->setAbortFlag(cancel);
    const RunResult result =
        runSystem(*sys, spec.quota, spec.warmup, spec.stopAtQuota());
    if (statsJson && spec.captureStats) {
        std::ostringstream os;
        sys->statsRoot().printJson(os);
        *statsJson = os.str();
    }
    return result;
}

JobRecord
newRecord(const JobSpec &spec, std::size_t index)
{
    JobRecord rec;
    rec.index = index;
    rec.spec = spec;
    rec.warmupUsed = spec.warmup == kDefaultWarmup
        ? defaultWarmup(spec.quota)
        : spec.warmup;
    return rec;
}

// Runs on a pool thread or in a forked worker.
JobRecord
runJob(const JobSpec &spec, std::size_t index,
       const std::atomic<bool> *cancel, std::uint64_t memBudgetMb)
{
    JobRecord rec = newRecord(spec, index);
    try {
        rec.result = executeJob(spec, &rec.statsJson, cancel);
        rec.status = JobStatus::Ok;
    } catch (const CheckViolation &err) {
        rec.status = JobStatus::CheckViolation;
        rec.error = err.what();
    } catch (const TraceError &err) {
        rec.status = JobStatus::TraceError;
        rec.error = err.what();
    } catch (const CycleLimitError &err) {
        rec.status = JobStatus::CycleLimit;
        rec.error = err.what();
    } catch (const std::bad_alloc &) {
        // Under a budget, RLIMIT_AS refusing the allocator more
        // address space surfaces here. (The System and any
        // fault-injector ballast were freed during unwinding, so
        // building the record has headroom again.)
        rec.status = JobStatus::Oom;
        rec.error = memBudgetMb != 0
            ? "std::bad_alloc: per-job memory budget exhausted "
              "(RLIMIT_AS, --job-mem-mb " +
                  std::to_string(memBudgetMb) + ")"
            : "std::bad_alloc (no --job-mem-mb budget set)";
    } catch (const std::exception &err) {
        rec.status = JobStatus::Error;
        rec.error = err.what();
    }
    return rec;
}

std::uint64_t
deriveSeed(std::uint64_t campaignSeed, const std::string &jobName)
{
    // FNV-1a over the job name, then one splitmix64 step over the
    // combination.
    std::uint64_t z = campaignSeed ^ fnv1a(jobName);
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace critmem::exec

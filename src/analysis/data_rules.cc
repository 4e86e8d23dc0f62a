/**
 * @file
 * The data-rule family of critmem-lint: checked-in data (DDR3 timing
 * presets, sweep campaign specs) validated at build time against the
 * simulator's own registries. PR 1's runtime protocol checker caught
 * an inconsistent DDR3-1600 tRC preset only when a simulation
 * happened to exercise it; these rules catch that whole bug class
 * before any workload runs.
 */

#include "analysis/data_rules.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "analysis/rule.hh"
#include "exec/sweep.hh"
#include "sched/registry.hh"
#include "trace/workloads.hh"

namespace critmem::analysis
{

void
checkDramTiming(const DramTiming &t, std::uint32_t busMHz,
                const std::string &label, std::vector<Finding> &out)
{
    const RuleMeta &meta = [] {
        static const RuleMeta kMeta{
            "preset-timing", Severity::Error,
            "DDR3 timing presets must satisfy the protocol's "
            "arithmetic invariants"};
        return kMeta;
    }();
    auto fail = [&](const std::string &message) {
        out.push_back({meta.id, meta.severity, "src/sim/config.cc", 0,
                       label + ": " + message});
    };

    if (t.tRC < t.tRAS + t.tRP) {
        fail("tRC (" + std::to_string(t.tRC) +
             ") < tRAS + tRP (" + std::to_string(t.tRAS + t.tRP) +
             "): an ACT-to-ACT interval cannot beat row restore "
             "plus precharge");
    }
    if (t.tFAW < 4 * t.tRRD) {
        fail("tFAW (" + std::to_string(t.tFAW) + ") < 4*tRRD (" +
             std::to_string(4 * t.tRRD) +
             "): the four-activate window would never bind");
    }
    if (t.tCCD < t.dataCycles()) {
        fail("tCCD (" + std::to_string(t.tCCD) +
             ") shorter than the data burst (" +
             std::to_string(t.dataCycles()) +
             " cycles): back-to-back CAS would overlap on the bus");
    }
    if (t.tRAS < t.tRCD + t.tCCD) {
        fail("tRAS (" + std::to_string(t.tRAS) +
             ") < tRCD + tCCD (" + std::to_string(t.tRCD + t.tCCD) +
             "): a row could close before serving a single CAS");
    }
    if (t.tRFC >= t.tREFI) {
        fail("tRFC (" + std::to_string(t.tRFC) + ") >= tREFI (" +
             std::to_string(t.tREFI) +
             "): refresh would consume the whole interval");
    }
    if (busMHz != 0 && t.tREFI != 0) {
        // 8192 refresh intervals must retire one full 64 ms window.
        const double windowMs = static_cast<double>(t.tREFI) * 8192.0 /
            (static_cast<double>(busMHz) * 1000.0);
        if (std::abs(windowMs - 64.0) > 0.64) {
            fail("8192 * tREFI spans " + std::to_string(windowMs) +
                 " ms at " + std::to_string(busMHz) +
                 " MHz; DDR3 requires 64 ms (+/- 1%)");
        }
    }
}

namespace
{

/**
 * preset-timing: run the independent timing checks over the default
 * DramTiming (Table 3) and every DramConfig::preset() speed grade.
 */
class PresetTimingRule : public DataRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "preset-timing", Severity::Error,
            "DDR3 timing presets must satisfy the protocol's "
            "arithmetic invariants"};
        return kMeta;
    }

    void
    check(const RepoContext &, std::vector<Finding> &out)
        const override
    {
        for (const DramSpeed speed :
             {DramSpeed::DDR3_1066, DramSpeed::DDR3_1600,
              DramSpeed::DDR3_2133}) {
            const DramConfig cfg = DramConfig::preset(speed);
            checkDramTiming(cfg.t, cfg.busMHz, toString(speed), out);
        }
    }
};

/**
 * preset-config: the shipped SystemConfig factories must pass their
 * own validate() — at build time, not on first use. Covers both base
 * presets and every speed-grade substitution a sweep can select.
 */
class PresetConfigRule : public DataRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "preset-config", Severity::Error,
            "shipped SystemConfig presets must pass validate()"};
        return kMeta;
    }

    void
    check(const RepoContext &, std::vector<Finding> &out)
        const override
    {
        auto audit = [&](const SystemConfig &cfg,
                         const std::string &label) {
            for (const ConfigError &error : cfg.validate()) {
                out.push_back({meta().id, meta().severity,
                               "src/sim/config.cc", 0,
                               label + ": " + error.field + ": " +
                                   error.message});
            }
        };
        audit(SystemConfig::parallelDefault(), "parallelDefault");
        audit(SystemConfig::multiprogDefault(), "multiprogDefault");
        for (const DramSpeed speed :
             {DramSpeed::DDR3_1066, DramSpeed::DDR3_1600}) {
            SystemConfig cfg = SystemConfig::parallelDefault();
            const std::uint32_t channels = cfg.dram.channels;
            cfg.dram = DramConfig::preset(speed);
            cfg.dram.channels = channels;
            audit(cfg, std::string("parallelDefault/") +
                      cliName(speed));
        }
    }
};

/**
 * trace-fixture: every checked-in trace under tests/trace/fixtures/
 * must decode cleanly — the goldens the tests and the fuzz corpus
 * mutate from must themselves be valid under the ingest scanner.
 * Gzip fixtures are skipped when zlib is unavailable.
 */
class TraceFixtureRule : public DataRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "trace-fixture", Severity::Error,
            "checked-in trace fixtures must decode cleanly"};
        return kMeta;
    }

    void
    check(const RepoContext &repo, std::vector<Finding> &out)
        const override
    {
        namespace fs = std::filesystem;
        const fs::path dir =
            fs::path(repo.root) / "tests" / "trace" / "fixtures";
        if (!fs::is_directory(dir))
            return;
        std::vector<fs::path> files;
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.is_regular_file())
                files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        for (const fs::path &file : files) {
            const std::string rel =
                "tests/trace/fixtures/" + file.filename().string();
            if (file.extension() == ".gz" && !ingest::haveGzip())
                continue;
            try {
                ingest::scanTrace(file.string());
            } catch (const std::exception &err) {
                out.push_back({meta().id, meta().severity, rel, 0,
                               err.what()});
            }
        }
    }
};

/** sweep-spec over every .sweep campaign under specs/. */
class SweepSpecRule : public DataRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "sweep-spec", Severity::Error,
            "specs/*.sweep must parse, expand and name only "
            "registered workloads/variants"};
        return kMeta;
    }

    void
    check(const RepoContext &repo, std::vector<Finding> &out)
        const override
    {
        namespace fs = std::filesystem;
        const fs::path specs = fs::path(repo.root) / "specs";
        if (!fs::is_directory(specs))
            return;
        std::vector<fs::path> files;
        for (const auto &entry : fs::directory_iterator(specs)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".sweep")
                files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        for (const fs::path &file : files) {
            checkSweepFile(file.string(),
                           "specs/" + file.filename().string(), out);
        }
    }
};

/**
 * arena-coverage: the arena tournament (specs/arena.sweep) must field
 * every registered scheduler. Registering a new algorithm without
 * entering it in the arena silently keeps it off every leaderboard.
 */
class ArenaCoverageRule : public DataRule
{
  public:
    const RuleMeta &
    meta() const override
    {
        static const RuleMeta kMeta{
            "arena-coverage", Severity::Error,
            "every registered scheduler must have a variant in "
            "specs/arena.sweep"};
        return kMeta;
    }

    void
    check(const RepoContext &repo, std::vector<Finding> &out)
        const override
    {
        namespace fs = std::filesystem;
        const fs::path file =
            fs::path(repo.root) / "specs" / "arena.sweep";
        if (!fs::is_regular_file(file)) {
            out.push_back({meta().id, meta().severity,
                           "specs/arena.sweep", 0,
                           "arena campaign spec is missing; every "
                           "registered scheduler needs a variant "
                           "there"});
            return;
        }
        checkArenaCoverage(file.string(), "specs/arena.sweep", out);
    }
};

} // namespace

void
checkArenaCoverage(const std::string &absPath,
                   const std::string &relPath,
                   std::vector<Finding> &out)
{
    const RuleMeta meta{"arena-coverage", Severity::Error, ""};
    auto fail = [&](const std::string &message) {
        out.push_back({meta.id, meta.severity, relPath, 0, message});
    };

    exec::SweepSpec spec;
    try {
        spec = exec::parseSweepFile(absPath);
    } catch (const std::exception &err) {
        fail(std::string("parse error: ") + err.what());
        return;
    }

    // Collect every scheduler any variant selects. Variants without a
    // sched= setting run the preset default, which the explicit
    // default variant already covers, so they add nothing here.
    std::set<std::string> covered;
    for (const exec::SweepVariant &variant : spec.variants) {
        for (const auto &[key, value] : variant.settings) {
            if (key == "sched")
                covered.insert(value);
        }
    }

    for (const SchedInfo &info : schedulerRegistry()) {
        if (covered.count(info.cliName))
            continue;
        fail(std::string("registered scheduler '") + info.cliName +
             "' (" + info.displayName +
             ") has no variant in the arena campaign");
    }
}

void
checkSweepFile(const std::string &absPath, const std::string &relPath,
               std::vector<Finding> &out)
{
    const RuleMeta meta{"sweep-spec", Severity::Error, ""};
    auto fail = [&](const std::string &message) {
        out.push_back(
            {meta.id, meta.severity, relPath, 0, message});
    };

    exec::SweepSpec spec;
    try {
        spec = exec::parseSweepFile(absPath);
    } catch (const std::exception &err) {
        fail(std::string("parse error: ") + err.what());
        return;
    }

    // Every declared trace source must exist and decode cleanly. Scan
    // each one explicitly so a broken trace yields one targeted finding
    // per declaration (TraceError messages carry the byte offset of the
    // corruption) instead of a single opaque expansion failure.
    bool tracesOk = true;
    for (const exec::TraceDecl &decl : spec.traces) {
        try {
            ingest::scanTrace(decl.path);
        } catch (const std::exception &err) {
            fail("trace '" + decl.name + "' (" + decl.path + "): " +
                 err.what());
            tracesOk = false;
        }
    }
    if (!tracesOk)
        return;

    // expand() validates workload names, variant settings and every
    // resulting SystemConfig against the live registries.
    std::size_t jobs = 0;
    try {
        jobs = spec.expand().size();
    } catch (const std::exception &err) {
        fail(std::string("does not expand: ") + err.what());
        return;
    }
    if (jobs == 0)
        fail("expands to zero jobs (everything excluded?)");

    // Exclusion globs must each match at least one workload/variant
    // name; a pattern that matches nothing is a typo waiting to
    // silently stop excluding.
    std::vector<std::string> workloads = spec.workloads;
    if (workloads.empty() ||
        (workloads.size() == 1 && workloads[0] == "*")) {
        workloads.clear();
        if (spec.mode == exec::SweepSpec::Mode::Parallel) {
            for (const AppParams &app : parallelApps())
                workloads.push_back(app.name);
            for (const exec::TraceDecl &decl : spec.traces)
                workloads.push_back(decl.name);
        } else {
            for (const Bundle &bundle : multiprogBundles())
                workloads.push_back(bundle.name);
        }
    }
    for (const std::string &pattern : spec.exclude) {
        bool matched = false;
        for (const std::string &workload : workloads) {
            for (const exec::SweepVariant &variant : spec.variants) {
                if (exec::globMatch(pattern,
                                    workload + "/" + variant.name)) {
                    matched = true;
                    break;
                }
            }
            if (matched)
                break;
        }
        if (!matched) {
            fail("exclude pattern '" + pattern +
                 "' matches no workload/variant combination");
        }
    }
}

const std::vector<const DataRule *> &
dataRules()
{
    static const PresetTimingRule presetTiming;
    static const PresetConfigRule presetConfig;
    static const SweepSpecRule sweepSpec;
    static const ArenaCoverageRule arenaCoverage;
    static const TraceFixtureRule traceFixture;
    static const std::vector<const DataRule *> kRules{
        &presetTiming, &presetConfig, &sweepSpec, &arenaCoverage,
        &traceFixture};
    return kRules;
}

} // namespace critmem::analysis

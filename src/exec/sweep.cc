#include "exec/sweep.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "trace/workloads.hh"

namespace critmem::exec
{

SweepError::SweepError(const std::string &message, std::size_t lineNo,
                       std::uint64_t byteOffset)
    : std::runtime_error(lineNo == 0
                             ? message
                             : message + " (byte offset " +
                                 std::to_string(byteOffset) + ")"),
      lineNo_(lineNo), byteOffset_(byteOffset)
{
}

namespace
{

/** A spec that parses but does not expand: no line to point at. */
[[noreturn]] void
bad(const std::string &what)
{
    throw SweepError(what, 0, 0);
}

std::string
trim(const std::string &text)
{
    const std::size_t from = text.find_first_not_of(" \t");
    if (from == std::string::npos)
        return "";
    const std::size_t to = text.find_last_not_of(" \t");
    return text.substr(from, to - from + 1);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (!item.empty())
            items.push_back(item);
    }
    return items;
}

} // namespace

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative '*' matcher with single-point backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t] || pattern[p] == '?')) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::vector<JobSpec>
SweepSpec::expand() const
{
    if (variants.empty())
        bad("sweep spec has no variants (add 'scheds = ...' or "
            "'variant NAME : ...' lines)");

    // Scan this spec's trace sources first, so workload names can
    // resolve to them. Each scan validates its file; TraceError (with
    // its byte offset) propagates untouched.
    std::map<std::string, std::shared_ptr<const TraceWorkload>> scanned;
    for (const TraceDecl &decl : traces) {
        if (scanned.count(decl.name))
            bad("duplicate trace '" + decl.name + "'");
        try {
            scanned[decl.name] = std::make_shared<const TraceWorkload>(
                scanTraceWorkload(decl.name, decl.path));
        } catch (const TraceError &) {
            throw;
        } catch (const std::exception &err) {
            bad("trace '" + decl.name + "': " + err.what());
        }
    }

    // Resolve the workload list.
    std::vector<std::string> names = workloads;
    if (names.empty() || (names.size() == 1 && names[0] == "*")) {
        names.clear();
        if (mode == Mode::Parallel) {
            for (const AppParams &app : parallelApps())
                names.push_back(app.name);
            for (const TraceDecl &decl : traces)
                names.push_back(decl.name);
        } else {
            for (const Bundle &bundle : multiprogBundles())
                names.push_back(bundle.name);
        }
    }
    for (const std::string &name : names) {
        if (mode == Mode::Parallel
                ? !haveApp(name) && scanned.count(name) == 0
                : findBundle(name) == nullptr)
            bad("unknown workload '" + name + "' for this mode");
    }

    const SystemConfig base = mode == Mode::Parallel
        ? SystemConfig::parallelDefault()
        : SystemConfig::multiprogDefault();

    const auto applyVariant = [&](SystemConfig &cfg,
                                  const SweepVariant &variant) {
        for (const auto &[key, value] : variant.settings) {
            try {
                applySetting(cfg, key, value);
            } catch (const std::exception &err) {
                bad("variant '" + variant.name + "': " + err.what());
            }
        }
    };
    const SweepVariant *aloneAt = nullptr;
    if (!aloneVariant.empty()) {
        const auto it = std::find_if(
            variants.begin(), variants.end(),
            [&](const SweepVariant &v) { return v.name == aloneVariant; });
        if (it == variants.end())
            bad("alone = " + aloneVariant + " names no variant");
        aloneAt = &*it;
    }

    // Jobs each exclude pattern dropped: a pattern that drops none is
    // a typo that would silently run the jobs it meant to skip.
    std::vector<std::size_t> dropped(exclude.size(), 0);
    const auto excluded = [&](const std::string &jobName) {
        bool hit = false;
        for (std::size_t i = 0; i < exclude.size(); ++i) {
            if (globMatch(exclude[i], jobName)) {
                ++dropped[i];
                hit = true;
            }
        }
        return hit;
    };

    std::vector<JobSpec> jobs;
    // Seeds are assigned before variant settings are applied, so an
    // explicit 'seed=' variant setting overrides the campaign seed.
    const auto seedFor = [&](const std::string &jobName) {
        return seedMode == SeedMode::Derived
            ? deriveSeed(campaignSeed, jobName)
            : campaignSeed;
    };
    const auto finishJob = [&](JobSpec &job) {
        job.cfg.check.enabled = job.cfg.check.enabled || check;
        job.quota = quota;
        job.warmup = warmup;
        job.captureStats = captureStats;
        job.multiprogPreset = mode == Mode::Multiprog;
        const ConfigErrors errors = job.cfg.validate();
        if (!errors.empty()) {
            bad("job '" + job.name + "' expands to an invalid config: " +
                errors.front().field + ": " + errors.front().message);
        }
        jobs.push_back(std::move(job));
    };

    // Alone-run baselines first: one per distinct app, at the base
    // configuration (or aloneVariant's), shared by every bundle.
    if (mode == Mode::Multiprog && alone) {
        std::set<std::string> seen;
        for (const std::string &bundleName : names) {
            for (const std::string &app :
                 findBundle(bundleName)->apps) {
                if (!seen.insert(app).second)
                    continue;
                JobSpec job;
                job.name = "alone/" + app;
                if (excluded(job.name))
                    continue;
                job.kind = RunKind::Alone;
                job.workload = app;
                job.cfg = base;
                job.cfg.seed = seedFor(job.name);
                if (aloneAt)
                    applyVariant(job.cfg, *aloneAt);
                finishJob(job);
            }
        }
    }

    for (const std::string &workload : names) {
        const auto found = scanned.find(workload);
        const std::shared_ptr<const TraceWorkload> trace =
            mode == Mode::Parallel && found != scanned.end()
            ? found->second
            : nullptr;
        for (const SweepVariant &variant : variants) {
            JobSpec job;
            job.name = workload + "/" + variant.name;
            if (excluded(job.name))
                continue;
            job.kind = mode == Mode::Parallel
                ? (trace ? RunKind::Trace : RunKind::Parallel)
                : RunKind::Bundle;
            job.workload = workload;
            job.trace = trace;
            job.cfg = base;
            job.cfg.seed = seedFor(job.name);
            job.tags["workload"] = workload;
            job.tags["variant"] = variant.name;
            applyVariant(job.cfg, variant);
            // The trace file dictates the core count, overriding any
            // 'cores=' variant setting.
            if (trace)
                job.cfg.numCores = trace->numCores;
            finishJob(job);
        }
    }
    for (std::size_t i = 0; i < exclude.size(); ++i) {
        if (dropped[i] == 0)
            bad("exclude pattern '" + exclude[i] + "' excluded no job");
    }
    if (jobs.empty())
        bad("sweep spec expands to zero jobs");
    return jobs;
}

SweepSpec
parseSweepSpec(std::istream &in)
{
    SweepSpec spec;
    std::string line;
    std::size_t lineNo = 0;
    std::uint64_t lineStart = 0;
    std::uint64_t nextStart = 0;

    const auto fail = [&](const std::string &what) {
        throw SweepError("sweep spec line " + std::to_string(lineNo) +
                             ": " + what,
                         lineNo, lineStart);
    };

    while (std::getline(in, line)) {
        ++lineNo;
        lineStart = nextStart;
        nextStart += line.size() + 1; // getline consumed the newline
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;

        if (line.rfind("variant", 0) == 0 &&
            line.size() > 7 && (line[7] == ' ' || line[7] == '\t')) {
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                fail("variant line needs ':'");
            SweepVariant variant;
            variant.name = trim(line.substr(7, colon - 7));
            if (variant.name.empty())
                fail("variant needs a name");
            std::istringstream settings(line.substr(colon + 1));
            std::string token;
            while (settings >> token) {
                const std::size_t eq = token.find('=');
                if (eq == std::string::npos)
                    fail("variant setting '" + token +
                         "' is not key=value");
                variant.settings.emplace_back(
                    token.substr(0, eq), token.substr(eq + 1));
            }
            spec.variants.push_back(std::move(variant));
            continue;
        }

        if (line.rfind("trace", 0) == 0 && line.size() > 5 &&
            (line[5] == ' ' || line[5] == '\t')) {
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                fail("trace line needs ':'");
            TraceDecl decl;
            decl.name = trim(line.substr(5, colon - 5));
            if (decl.name.empty())
                fail("trace needs a name");
            for (const TraceDecl &other : spec.traces) {
                if (other.name == decl.name)
                    fail("duplicate trace '" + decl.name + "'");
            }
            std::istringstream settings(line.substr(colon + 1));
            std::string token;
            while (settings >> token) {
                const std::size_t eq = token.find('=');
                if (eq == std::string::npos) {
                    fail("trace setting '" + token +
                         "' is not key=value");
                }
                const std::string key = token.substr(0, eq);
                if (key != "path")
                    fail("unknown trace setting '" + key + "'");
                decl.path = token.substr(eq + 1);
            }
            if (decl.path.empty())
                fail("trace '" + decl.name + "' needs path=FILE");
            spec.traces.push_back(std::move(decl));
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fail("expected 'key = value' or 'variant NAME : ...'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        try {
            if (key == "mode") {
                if (value == "parallel")
                    spec.mode = SweepSpec::Mode::Parallel;
                else if (value == "multiprog")
                    spec.mode = SweepSpec::Mode::Multiprog;
                else
                    fail("unknown mode '" + value + "'");
            } else if (key == "workloads") {
                spec.workloads = splitList(value);
            } else if (key == "quota") {
                spec.quota = parseUint(key, value);
            } else if (key == "warmup") {
                spec.warmup = parseUint(key, value);
            } else if (key == "seed") {
                spec.campaignSeed = parseUint(key, value);
            } else if (key == "seed-mode") {
                if (value == "fixed")
                    spec.seedMode = SweepSpec::SeedMode::Fixed;
                else if (value == "derived")
                    spec.seedMode = SweepSpec::SeedMode::Derived;
                else
                    fail("unknown seed-mode '" + value + "'");
            } else if (key == "check") {
                spec.check = parseBool(key, value);
            } else if (key == "stats") {
                spec.captureStats = parseBool(key, value);
            } else if (key == "alone") {
                // A boolean, else a variant name that expand()
                // checks once every variant line has been read.
                try {
                    spec.alone = parseBool(key, value);
                    spec.aloneVariant.clear();
                } catch (const std::runtime_error &) {
                    spec.alone = true;
                    spec.aloneVariant = value;
                }
            } else if (key == "exclude") {
                spec.exclude = splitList(value);
            } else if (key == "scheds") {
                for (const std::string &sched : splitList(value)) {
                    SweepVariant variant;
                    variant.name = sched;
                    variant.settings.emplace_back("sched", sched);
                    spec.variants.push_back(std::move(variant));
                }
            } else {
                fail("unknown key '" + key + "'");
            }
        } catch (const std::runtime_error &err) {
            // Re-tag value parse errors with the line number.
            const std::string what = err.what();
            if (what.rfind("sweep spec line", 0) == 0)
                throw;
            fail(what);
        }
    }
    return spec;
}

SweepSpec
parseSweepFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        bad("cannot open sweep spec '" + path + "'");
    SweepSpec spec = parseSweepSpec(in);
    // Relative trace paths are relative to the spec file, so a spec
    // and its fixtures move together.
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
        const std::string dir = path.substr(0, slash + 1);
        for (TraceDecl &decl : spec.traces) {
            if (!decl.path.empty() && decl.path[0] != '/')
                decl.path = dir + decl.path;
        }
    }
    return spec;
}

} // namespace critmem::exec

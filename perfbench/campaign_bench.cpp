/**
 * @file
 * critmem-campaign-bench: one benchmark workload as one campaign.
 *
 * Expands the workload's job list through exec::SweepSpec, runs it on
 * exec::JobRunner with the fairness annotator, the fsync'd campaign
 * journal and a JSONL sink wired as critmem-sweep wires them, and
 * prints one JSON object describing the run: setup and campaign wall
 * time, peak RSS, and per job its status, output digest, simulated
 * cycles, host seconds and the host-speed probe around it.
 * perfbench/run.py turns that into metrics.
 *
 *   critmem-campaign-bench --workload arena --work-dir DIR [--trace]
 *
 * With --trace the campaign additionally captures every job's stats
 * tree, times the sinks, journal and annotator through decorators, and
 * then re-runs every job through runTraced() (traced_job.hh), checking
 * that its stats tree is byte-identical to the campaign's.
 */

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/arena.hh"
#include "exec/campaign.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "exec/sweep.hh"
#include "sim/atomic_file.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "traced_job.hh"

using namespace critmem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options
{
    std::string workload;
    std::string workDir;
    std::uint64_t inputSeed = 1;
    bool tiny = false;
    bool trace = false;
    bool setupOnly = false;
    /** Instructions per core; 0 keeps the workload's own quota. */
    std::uint64_t quota = 0;
    /** CLOCK_MONOTONIC ns at which the caller spawned this process. */
    std::int64_t t0Ns = -1;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: critmem-campaign-bench --workload NAME --work-dir DIR\n"
        "         [--input-seed N] [--scale full|tiny] [--trace]\n"
        "         [--setup-only] [--t0-ns NS] [--quota INSTRS]\n"
        "  workloads: dram-saturated, core-bound, arena\n");
    std::exit(1);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--work-dir") {
            opt.workDir = value();
        } else if (arg == "--input-seed") {
            opt.inputSeed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--scale") {
            const std::string scale = value();
            if (scale != "full" && scale != "tiny")
                usage();
            opt.tiny = scale == "tiny";
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (arg == "--quota") {
            opt.quota = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--t0-ns") {
            opt.t0Ns = std::strtoll(value().c_str(), nullptr, 10);
        } else {
            usage();
        }
    }
    if (opt.workload.empty() || opt.workDir.empty())
        usage();
    return opt;
}

exec::SweepVariant
variant(const std::string &name, const std::string &settings)
{
    exec::SweepVariant v;
    v.name = name;
    std::istringstream in(settings);
    std::string pair;
    while (in >> pair) {
        const std::size_t eq = pair.find('=');
        v.settings.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    return v;
}

/** The scheduler columns every workload draws from. */
const exec::SweepVariant kFrfcfs = variant("frfcfs", "sched=frfcfs");
const exec::SweepVariant kCasrasCrit = variant(
    "casras-crit", "sched=casras-crit predictor=maxstall entries=64");

/** Every registered scheduler, configured as in specs/arena.sweep. */
std::vector<exec::SweepVariant>
arenaVariants()
{
    return {
        variant("fcfs", "sched=fcfs"),
        kFrfcfs,
        variant("crit-casras",
                "sched=crit-casras predictor=maxstall entries=64"),
        kCasrasCrit,
        variant("parbs", "sched=parbs"),
        variant("tcm", "sched=tcm"),
        variant("tcm-crit", "sched=tcm-crit predictor=maxstall entries=64"),
        variant("ahb", "sched=ahb"),
        variant("morse", "sched=morse morse-cmds=24"),
        variant("crit-rl",
                "sched=crit-rl predictor=binary entries=64 morse-cmds=24"),
        variant("atlas", "sched=atlas"),
        variant("minimalist", "sched=minimalist"),
        variant("bliss", "sched=bliss"),
        variant("batch-cap-rr", "sched=batch-cap-rr"),
        variant("dyn-thresh-crit",
                "sched=dyn-thresh-crit predictor=maxstall entries=64"),
    };
}

/** One workload's campaign definition and its worker count. */
exec::SweepSpec
workloadSpec(const Options &opt, unsigned &workers)
{
    exec::SweepSpec spec;
    spec.campaignSeed = opt.inputSeed;
    spec.seedMode = exec::SweepSpec::SeedMode::Fixed;
    workers = 1;
    if (opt.workload == "dram-saturated") {
        spec.workloads = {"art", "fft", "ocean", "radix"};
        spec.variants = {kFrfcfs, kCasrasCrit,
                         variant("parbs", "sched=parbs")};
        spec.quota = opt.tiny ? 4000 : 60000;
    } else if (opt.workload == "core-bound") {
        spec.workloads = {"mg", "swim"};
        spec.variants = {kFrfcfs, kCasrasCrit};
        spec.quota = opt.tiny ? 4000 : 200000;
    } else if (opt.workload == "arena") {
        spec.mode = exec::SweepSpec::Mode::Multiprog;
        spec.workloads = {"*"};
        spec.variants = arenaVariants();
        spec.alone = true;
        spec.quota = opt.tiny ? 2000 : 8000;
        workers = 2;
    } else {
        throw std::runtime_error("unknown workload '" + opt.workload + "'");
    }
    if (opt.quota != 0)
        spec.quota = opt.quota;
    return spec;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Digest of each record's JSONL line without the stats tree, so the
 * digest does not depend on whether the run captured stats.
 */
class DigestSink : public exec::ResultSink
{
  public:
    void
    consume(const exec::JobRecord &rec) override
    {
        exec::JobRecord bare = rec;
        bare.statsJson.clear();
        std::ostringstream line;
        exec::JsonlSink(line).consume(bare);
        digests_.push_back(exec::hashHex(fnv1a(line.str())));
    }

    const std::vector<std::string> &digests() const { return digests_; }

  private:
    std::vector<std::string> digests_;
};

/** Host seconds spent in a wrapped sink (aggregation thread only). */
class TimedSink : public exec::ResultSink
{
  public:
    TimedSink(exec::ResultSink &inner, double &seconds)
        : inner_(inner), seconds_(seconds)
    {
    }

    void
    begin(std::size_t totalJobs) override
    {
        const auto start = Clock::now();
        inner_.begin(totalJobs);
        seconds_ += secondsSince(start);
    }

    void
    consume(const exec::JobRecord &rec) override
    {
        const auto start = Clock::now();
        inner_.consume(rec);
        seconds_ += secondsSince(start);
    }

    void
    end() override
    {
        const auto start = Clock::now();
        inner_.end();
        seconds_ += secondsSince(start);
    }

  private:
    exec::ResultSink &inner_;
    double &seconds_;
};

/** Host seconds spent appending to the journal (worker threads). */
class TimedLog : public exec::CampaignLog
{
  public:
    explicit TimedLog(exec::CampaignLog &inner) : inner_(inner) {}

    const exec::JobRecord *
    replay(std::size_t index) const override
    {
        return inner_.replay(index);
    }

    void
    record(const exec::JobRecord &rec) override
    {
        const auto start = Clock::now();
        inner_.record(rec);
        const double spent = secondsSince(start);
        std::lock_guard<std::mutex> lock(mutex_);
        seconds_ += spent;
    }

    double
    seconds() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return seconds_;
    }

  private:
    exec::CampaignLog &inner_;
    mutable std::mutex mutex_;
    double seconds_ = 0.0;
};

/** The campaign's fresh work directory, removed on every exit path. */
class WorkDir
{
  public:
    explicit WorkDir(std::string path) : path_(std::move(path))
    {
        if (!std::filesystem::create_directories(path_))
            throw std::runtime_error("work directory '" + path_ +
                                     "' already exists");
    }
    ~WorkDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Iterations of probeS(): about 5 ms on an idle 3 GHz core. */
constexpr std::uint64_t kProbeIters = 4000000;

/**
 * Host-speed probe: a fixed run of independent integer operations.
 * On a shared VM each vCPU runs up to 1.6x slower or faster for
 * seconds at a time, independently of the other vCPUs. This probe
 * slows down with the simulator when both run on the same CPU
 * (r = 0.83 over 0.25 s jobs); pointer chases and dependent ALU
 * chains do not. run.py divides each job's host seconds by the probe
 * time around it.
 */
double
probeS()
{
    const auto start = Clock::now();
    std::uint64_t a0 = 1, a1 = 2, a2 = 3, a3 = 4;
    std::uint64_t a4 = 5, a5 = 6, a6 = 7, a7 = 8;
    for (std::uint64_t k = 0; k < kProbeIters; ++k) {
        a0 += k;
        a1 ^= a0;
        a2 += a1 >> 3;
        a3 ^= k;
        a4 += a3;
        a5 ^= a4 << 1;
        a6 += a5;
        a7 ^= a6 >> 2;
        // Keeps the compiler from folding the loop away.
        asm volatile("" : "+r"(a0), "+r"(a1), "+r"(a2), "+r"(a3),
                     "+r"(a4), "+r"(a5), "+r"(a6), "+r"(a7));
    }
    return secondsSince(start);
}

/** Pins the calling thread to one CPU. */
void
pinThread(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
        throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
}

/**
 * Probes host speed on the CPU each job ran on, right after the job,
 * on the worker thread that ran it. Each worker pins itself to one of
 * the campaign's CPUs at its first record, so the probe after one job
 * is also the probe before that worker's next job.
 */
class ProbingLog : public exec::CampaignLog
{
  public:
    /** cpus: the campaign's CPUs; preProbe: a probe on each. */
    ProbingLog(exec::CampaignLog &inner, std::vector<int> cpus,
               std::map<int, double> preProbe, std::size_t jobs)
        : inner_(inner), cpus_(std::move(cpus)),
          preProbe_(std::move(preProbe)), probe_(jobs, 0.0)
    {
        for (const auto &[cpu, seconds] : preProbe_)
            total_ += seconds;
    }

    const exec::JobRecord *
    replay(std::size_t index) const override
    {
        return inner_.replay(index);
    }

    void
    record(const exec::JobRecord &rec) override
    {
        const double before = workerBefore();
        const double after = probeS();
        inner_.record(rec);
        std::lock_guard<std::mutex> lock(mutex_);
        probe_[rec.index] = (before + after) / 2.0;
        last_[std::this_thread::get_id()] = after;
        total_ += after;
    }

    /** Mean probe seconds before and after each job. */
    const std::vector<double> &probes() const { return probe_; }

    /** Probe seconds spent in all, the pre-campaign probes included. */
    double total() const { return total_; }

  private:
    /** The probe before this worker's job, pinning it on first use. */
    double
    workerBefore()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto last = last_.find(std::this_thread::get_id());
        if (last != last_.end())
            return last->second;
        // First job of this worker: stay on the CPU it ran on unless
        // another worker holds it.
        int cpu = sched_getcpu();
        if (taken_.count(cpu) != 0 || preProbe_.count(cpu) == 0) {
            for (const int free : cpus_) {
                if (taken_.count(free) == 0) {
                    cpu = free;
                    break;
                }
            }
        }
        taken_[cpu] = true;
        pinThread(cpu);
        return preProbe_.at(cpu);
    }

    exec::CampaignLog &inner_;
    const std::vector<int> cpus_;
    const std::map<int, double> preProbe_;
    std::mutex mutex_;
    std::vector<double> probe_;
    std::map<std::thread::id, double> last_;
    std::map<int, bool> taken_;
    double total_ = 0.0;
};

/**
 * Restricts this thread, and so the workers it starts, to `count` CPUs
 * starting at the one it runs on, and probes each of them once.
 */
std::map<int, double>
pinCampaign(unsigned count, std::vector<int> &cpus)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("cannot read the CPU affinity");
    const int first = sched_getcpu();
    for (int i = 0; i < CPU_SETSIZE && cpus.size() < count; ++i) {
        const int cpu = (first + i) % CPU_SETSIZE;
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    }
    std::map<int, double> preProbe;
    for (const int cpu : cpus) {
        pinThread(cpu);
        preProbe[cpu] = probeS();
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        throw std::runtime_error("cannot set the CPU affinity");
    return preProbe;
}

/** Every active core committed its quota inside the cycle limit. */
bool
quotaReached(const exec::JobRecord &rec)
{
    const RunResult &r = rec.result;
    const std::size_t active =
        rec.spec.kind == exec::RunKind::Alone ? 1 : r.finishCycles.size();
    if (active == 0 || r.committed.size() < active)
        return false;
    for (std::size_t i = 0; i < active; ++i) {
        if (r.finishCycles[i] == kNoCycle || r.committed[i] < rec.spec.quota)
            return false;
    }
    return true;
}

void
key(std::ostream &os, const char *name)
{
    stats::jsonEscape(os, name);
    os << ':';
}

void
printJob(std::ostream &os, const exec::JobRecord &rec,
         const std::string &digest, double probe)
{
    const auto tag = rec.spec.tags.find("variant");
    os << '{';
    key(os, "name");
    stats::jsonEscape(os, rec.spec.name);
    os << ',';
    key(os, "kind");
    stats::jsonEscape(os, exec::toString(rec.spec.kind));
    os << ',';
    key(os, "workload");
    stats::jsonEscape(os, rec.spec.workload);
    os << ',';
    key(os, "variant");
    stats::jsonEscape(os,
                      tag != rec.spec.tags.end() ? tag->second : "alone");
    os << ',';
    key(os, "status");
    stats::jsonEscape(os, exec::toString(rec.status));
    os << ',';
    key(os, "digest");
    stats::jsonEscape(os, digest);
    os << ',';
    key(os, "cycles");
    os << rec.result.cycles << ',';
    key(os, "host_s");
    stats::jsonDouble(os, rec.wallMs / 1000.0);
    os << ',';
    key(os, "probe_s");
    stats::jsonDouble(os, probe);
    os << ',';
    key(os, "quota_reached");
    os << (rec.ok() && quotaReached(rec) ? "true" : "false") << ',';
    key(os, "weighted_speedup");
    if (rec.fairness.valid)
        stats::jsonDouble(os, rec.fairness.weightedSpeedup);
    else
        os << "null";
    os << '}';
}

void
printLayers(std::ostream &os, const perfbench::LayerProfile &p)
{
    using perfbench::Layer;
    const std::pair<const char *, double> times[] = {
        {"cpu_s", p.self(Layer::Cpu)},
        {"mem_s", p.self(Layer::Mem)},
        {"dram_s", p.self(Layer::Dram)},
        {"sched_s", p.self(Layer::Sched)},
        {"trace_s", p.self(Layer::Trace)},
        {"build_s", p.self(Layer::Build)},
        {"ff_s", p.self(Layer::FastForward)},
        {"job_s", p.jobS},
    };
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"cpu_ticks", p.cpuTicks},
        {"ops_committed", p.opsCommitted},
        {"crit_lookups", p.critLookups},
        {"crit_flagged", p.critFlagged},
        {"mem_ticks", p.memTicks},
        {"dram_rejects", p.dramRejects},
        {"l2_demand_misses", p.l2DemandMisses},
        {"cas_served", p.casServed},
        {"dram_ticks", p.dramTicks},
        {"dram_cmds", p.dramCmds},
        {"enqueue_rejects", p.enqueueRejects},
        {"sched_picks", p.schedPicks},
        {"sched_candidates", p.schedCandidates},
        {"sched_issues", p.schedIssues},
        {"trace_uops", p.traceUops},
        {"cpu_cycles", p.cpuCycles},
        {"cpu_cycles_skipped", p.cpuCyclesSkipped},
    };
    os << '{';
    bool first = true;
    for (const auto &[name, value] : times) {
        os << (first ? "" : ",");
        first = false;
        key(os, name);
        stats::jsonDouble(os, value);
    }
    for (const auto &[name, value] : counts) {
        os << ',';
        key(os, name);
        os << value;
    }
    os << '}';
}

/**
 * Peak resident set of this process in MiB: VmHWM, which starts afresh
 * at exec. ru_maxrss (the fallback) inherits the parent's peak across
 * exec, so under a Python harness it would report the harness's size.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int
benchMain(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Clock::time_point t0 = opt.t0Ns >= 0
        ? Clock::time_point(std::chrono::nanoseconds(opt.t0Ns))
        : Clock::now();
    setQuiet(true);

    unsigned workers = 1;
    exec::SweepSpec spec = workloadSpec(opt, workers);
    spec.captureStats = opt.trace;
    const std::vector<exec::JobSpec> jobs = spec.expand();

    // The campaign state critmem-sweep --campaign DIR --out FILE keeps.
    const WorkDir dir(opt.workDir);
    const std::string outPath = dir.path() + "/results.jsonl";
    exec::writeManifest(
        exec::manifestPath(dir.path()),
        {{"spec", "perfbench:" + opt.workload},
         {"spec-hash", exec::hashHex(exec::campaignHash(jobs))},
         {"jobs", std::to_string(jobs.size())},
         {"quota", std::to_string(spec.quota)},
         {"seed", std::to_string(spec.campaignSeed)},
         {"check", "0"},
         {"stats", opt.trace ? "1" : "0"},
         {"out", outPath},
         {"csv", ""}});
    const std::unique_ptr<exec::CampaignJournal> journal =
        exec::CampaignJournal::create(exec::journalPath(dir.path()));
    AtomicFile outFile(outPath);

    exec::MemorySink memory;
    exec::JsonlSink jsonl(outFile.stream());
    DigestSink digests;
    exec::FairnessAnnotator annotator;

    exec::RunnerOptions opts;
    opts.threads = workers;
    opts.maxAttempts = 1;

    // Traced campaigns time the exec and fair layers through
    // decorators and keep each stats tree as the job produced it,
    // before the annotator splices the fairness group in.
    double sinkS = 0.0;
    double annotateS = 0.0;
    std::size_t aloneRuns = 0;
    std::vector<std::string> rawStats(jobs.size());
    TimedSink timedMemory(memory, sinkS);
    TimedSink timedJsonl(jsonl, sinkS);
    TimedLog timedJournal(*journal);
    std::vector<exec::ResultSink *> sinks{&memory, &jsonl, &digests};
    exec::CampaignLog *log = journal.get();
    if (opt.trace) {
        sinks = {&timedMemory, &timedJsonl, &digests};
        log = &timedJournal;
        opts.annotate = [&](exec::JobRecord &rec) {
            rawStats[rec.index] = rec.statsJson;
            if (rec.ok() && rec.spec.kind == exec::RunKind::Alone)
                ++aloneRuns;
            const auto start = Clock::now();
            annotator(rec);
            annotateS += secondsSince(start);
        };
    } else {
        opts.annotate = [&annotator](exec::JobRecord &rec) {
            annotator(rec);
        };
    }
    exec::JobRunner runner(opts);

    std::ostringstream os;
    os << '{';
    key(os, "workload");
    stats::jsonEscape(os, opt.workload);
    os << ',';
    key(os, "input_seed");
    os << spec.campaignSeed << ',';
    key(os, "workers");
    os << workers << ',';
    key(os, "setup_s");
    const Clock::time_point dispatch = Clock::now();
    stats::jsonDouble(
        os, std::chrono::duration<double>(dispatch - t0).count());
    if (opt.setupOnly) {
        os << "}\n";
        std::cout << os.str();
        return 0;
    }

    std::vector<int> cpus;
    std::map<int, double> preProbe = pinCampaign(workers, cpus);
    ProbingLog probing(*log, cpus, std::move(preProbe), jobs.size());
    const exec::CampaignSummary summary =
        runner.run(jobs, sinks, &probing);
    outFile.commit();
    const double wallS = secondsSince(dispatch);
    if (summary.total != jobs.size() || memory.records().size() !=
        jobs.size())
        throw std::runtime_error("campaign lost records");

    os << ',';
    key(os, "wall_s");
    stats::jsonDouble(os, wallS);
    os << ',';
    key(os, "probe_total_s");
    stats::jsonDouble(os, probing.total());
    os << ',';
    key(os, "jobs");
    os << '[';
    for (std::size_t i = 0; i < memory.records().size(); ++i) {
        os << (i ? "," : "");
        printJob(os, memory.records()[i], digests.digests()[i],
                 probing.probes()[memory.records()[i].index]);
    }
    os << ']';

    if (opt.trace) {
        perfbench::LayerProfile profile;
        std::vector<std::string> mismatches;
        for (const exec::JobRecord &rec : memory.records()) {
            if (!rec.ok())
                continue;
            try {
                if (perfbench::runTraced(rec.spec, profile) !=
                    rawStats[rec.index])
                    mismatches.push_back(rec.spec.name);
            } catch (const std::exception &err) {
                mismatches.push_back(rec.spec.name + ": " + err.what());
            }
        }
        os << ',';
        key(os, "trace");
        os << '{';
        key(os, "exec_sink_s");
        stats::jsonDouble(os, sinkS);
        os << ',';
        key(os, "exec_journal_s");
        stats::jsonDouble(os, timedJournal.seconds());
        os << ',';
        key(os, "fair_annotate_s");
        stats::jsonDouble(os, annotateS);
        os << ',';
        key(os, "fair_alone_runs");
        os << aloneRuns << ',';
        key(os, "stats_mismatches");
        os << '[';
        for (std::size_t i = 0; i < mismatches.size(); ++i) {
            os << (i ? "," : "");
            stats::jsonEscape(os, mismatches[i]);
        }
        os << "],";
        key(os, "layers");
        printLayers(os, profile);
        os << '}';
    }

    os << ',';
    key(os, "peak_rss_mb");
    stats::jsonDouble(os, peakRssMb());
    os << "}\n";
    std::cout << os.str();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "critmem-campaign-bench: %s\n", err.what());
        return 1;
    }
}

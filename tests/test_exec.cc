/**
 * @file
 * Tests of the experiment-execution engine (src/exec/): deterministic
 * results independent of worker-thread count, failure isolation with
 * bounded retry, sweep-spec parsing and expansion, seed derivation,
 * JSON stats emission, and equivalence with a System built by its
 * public constructors and driven by runSystem().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/campaign.hh"
#include "exec/job_runner.hh"
#include "sched/registry.hh"
#include "exec/result_sink.hh"
#include "exec/sweep.hh"
#include "sim/fnv.hh"
#include "sim/stats.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "trace/ingest/ingest.hh"

using namespace critmem;

namespace
{

exec::JobSpec
parallelJob(const std::string &name, const std::string &app,
            SchedAlgo algo, std::uint64_t quota, std::uint64_t seed = 1)
{
    exec::JobSpec job;
    job.name = name;
    job.kind = exec::RunKind::Parallel;
    job.workload = app;
    job.cfg = SystemConfig::parallelDefault();
    job.cfg.sched.algo = algo;
    job.cfg.seed = seed;
    job.quota = quota;
    return job;
}

/** Small app × scheduler campaign used by several tests. */
std::vector<exec::JobSpec>
smallCampaign(std::uint64_t quota)
{
    std::vector<exec::JobSpec> jobs;
    for (const char *app : {"art", "mg"}) {
        for (const auto algo :
             {SchedAlgo::FrFcfs, SchedAlgo::CasRasCrit}) {
            jobs.push_back(parallelJob(
                std::string(app) + "/" + cliName(algo), app, algo,
                quota));
        }
    }
    return jobs;
}

std::string
runToJsonl(const std::vector<exec::JobSpec> &jobs, unsigned threads)
{
    std::ostringstream out;
    exec::JsonlSink sink(out);
    exec::RunnerOptions opts;
    opts.threads = threads;
    exec::JobRunner runner(opts);
    runner.run(jobs, {&sink});
    return out.str();
}

/**
 * A CampaignLog that replays nothing and keeps the job order of its
 * record() calls; with stopAt set, its stopAt-th record() raises
 * *stop (a deterministic mid-campaign SIGINT).
 */
class OrderLog : public exec::CampaignLog
{
  public:
    const exec::JobRecord *
    replay(std::size_t) const override
    {
        return nullptr;
    }

    void
    record(const exec::JobRecord &rec) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        order.push_back(rec.index);
        if (stop != nullptr && order.size() == stopAt)
            stop->store(1);
    }

    std::vector<std::size_t> order;
    std::atomic<int> *stop = nullptr;
    std::size_t stopAt = 0;

  private:
    std::mutex mutex_;
};

/** Six small jobs of uneven size. */
std::vector<exec::JobSpec>
sixJobs()
{
    std::vector<exec::JobSpec> jobs;
    for (int i = 0; i < 6; ++i) {
        jobs.push_back(parallelJob(
            "job" + std::to_string(i), i % 2 ? "art" : "mg",
            SchedAlgo::FrFcfs, 150 + 40 * (i % 3), /*seed=*/i + 1));
    }
    return jobs;
}

/** parseSimCommand() over a command line split on blanks. */
exec::SimCommand
parseLine(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> args;
    std::string word;
    in >> word; // the program name
    while (in >> word)
        args.push_back(word);
    return exec::parseSimCommand(args);
}

/** parseSimCommand(reproCommand(spec)) rebuilds @p spec. */
void
expectRoundTrip(const exec::JobSpec &spec)
{
    const std::string repro = exec::reproCommand(spec);
    const exec::JobSpec back = parseLine(repro).spec;
    EXPECT_EQ(back.kind, spec.kind) << repro;
    EXPECT_EQ(back.workload, spec.workload) << repro;
    EXPECT_EQ(back.quota, spec.quota) << repro;
    EXPECT_EQ(back.warmup, spec.warmup) << repro;
    EXPECT_EQ(back.multiprogPreset, spec.multiprogPreset) << repro;
    EXPECT_EQ(exec::configHash(back.cfg), exec::configHash(spec.cfg))
        << repro;
    // The checker settings sit outside the config hash.
    EXPECT_EQ(back.cfg.check.enabled, spec.cfg.check.enabled) << repro;
    EXPECT_EQ(back.cfg.check.fault, spec.cfg.check.fault) << repro;
    EXPECT_EQ(back.cfg.check.faultPeriod, spec.cfg.check.faultPeriod)
        << repro;
}

TEST(ExecRepro, RoundTripsShippedSpecs)
{
    std::size_t specs = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(CRITMEM_REPO_ROOT) + "/specs")) {
        if (entry.path().extension() != ".sweep")
            continue;
        ++specs;
        const std::vector<exec::JobSpec> jobs =
            exec::parseSweepFile(entry.path().string()).expand();
        ASSERT_FALSE(jobs.empty()) << entry.path();
        for (const exec::JobSpec &job : jobs)
            expectRoundTrip(job);
    }
    EXPECT_GE(specs, 30u);
}

TEST(ExecRepro, RoundTripsEverySetting)
{
    // One non-default value per applySetting() key.
    const std::vector<std::pair<std::string, std::string>> settings = {
        {"sched", "tcm"},          {"predictor", "binary"},
        {"entries", "32"},         {"reset", "100000"},
        {"ranks", "2"},            {"channels", "2"},
        {"speed", "ddr3-1600"},    {"lq", "48"},
        {"prefetch", "1"},         {"closed-page", "1"},
        {"split-wq", "1"},         {"morse-cmds", "8"},
        {"cores", "4"},            {"seed", "7"},
        {"inject", "early-cas"},   {"inject-period", "5"},
        {"counter-width", "8"},    {"prob-shift", "2"},
        {"map", "block"},          {"dirty", "0.35"},
        {"burstiness", "0"},
    };
    const std::string plain = exec::reproCommand(
        parallelJob("art", "art", SchedAlgo::FrFcfs, 3000));
    for (const auto &[key, value] : settings) {
        exec::JobSpec job = parallelJob("art/" + key, "art",
                                        SchedAlgo::FrFcfs, 3000);
        exec::applySetting(job.cfg, key, value);
        EXPECT_NE(exec::reproCommand(job), plain) << key;
        expectRoundTrip(job);
    }

    // The remaining spec fields and run kinds.
    exec::JobSpec warm = parallelJob("warm", "mg", SchedAlgo::FrFcfs,
                                     2000);
    warm.warmup = 300;
    expectRoundTrip(warm);
    for (const exec::RunKind kind :
         {exec::RunKind::Bundle, exec::RunKind::Alone}) {
        exec::JobSpec job;
        job.kind = kind;
        job.workload = kind == exec::RunKind::Bundle ? "RFGI" : "mcf";
        job.cfg = SystemConfig::multiprogDefault();
        job.multiprogPreset = true;
        expectRoundTrip(job);
        job.cfg.numCores = 2;
        expectRoundTrip(job);
    }
}

TEST(ExecSimCommand, ConfigFlagsAreSettings)
{
    const exec::SimCommand cmd = parseLine(
        "critmem-sim --app art --sched morse --morse-cmds 8 --prefetch"
        " --split-wq --entries 0 --instrs 5000 --stats-json - --quiet");
    SystemConfig cfg = SystemConfig::parallelDefault();
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"sched", "morse"}, {"morse-cmds", "8"}, {"prefetch", "1"},
             {"split-wq", "1"}, {"entries", "0"}})
        exec::applySetting(cfg, key, value);
    EXPECT_EQ(exec::configHash(cmd.spec.cfg), exec::configHash(cfg));
    EXPECT_EQ(cmd.spec.kind, exec::RunKind::Parallel);
    EXPECT_EQ(cmd.spec.quota, 5000u);
    EXPECT_EQ(cmd.spec.warmup, kDefaultWarmup);
    EXPECT_EQ(cmd.statsJsonPath, "-");
    EXPECT_TRUE(cmd.quiet);

    // The core count follows the run kind unless --cores says.
    EXPECT_EQ(parseLine("critmem-sim --bundle RFGI").spec.cfg.numCores,
              4u);
    EXPECT_EQ(parseLine("critmem-sim --bundle RFGI --cores 2")
                  .spec.cfg.numCores,
              2u);
    EXPECT_EQ(parseLine("critmem-sim --app mg --alone").spec.kind,
              exec::RunKind::Alone);
}

TEST(ExecSimCommand, MalformedNumbersNameTheFlag)
{
    for (const char *flag :
         {"--entries", "--seed", "--instrs", "--warmup", "--cores",
          "--counter-width", "--prob-shift", "--dirty", "--burstiness"}) {
        for (const char *value : {"abc", "12x", "x", "-1", " 5", ""}) {
            try {
                exec::parseSimCommand({"--app", "art", flag, value});
                ADD_FAILURE() << flag << " '" << value << "' parsed";
            } catch (const std::runtime_error &err) {
                EXPECT_EQ(std::string(err.what()).rfind(
                              std::string(flag) + ":", 0),
                          0u)
                    << err.what();
            }
        }
    }
}

TEST(ExecSimCommand, RejectsBadCommandLines)
{
    for (const char *line :
         {"critmem-sim", "critmem-sim --app art --bundle RFGI",
          "critmem-sim --app art --bogus 1", "critmem-sim --app art --sched",
          "critmem-sim --app art --sched nope", "critmem-sim --bundle RFGI"
          " --alone", "critmem-sim --app art --fairness",
          "critmem-sim --app art --preset huge",
          "critmem-sim --app art --map diagonal",
          "critmem-sim --app art --dirty inf",
          "critmem-sim --app art --burstiness 0x1",
          "critmem-sim --app art --prefetch 1"}) {
        EXPECT_THROW(parseLine(line), std::runtime_error) << line;
    }
    // The removed trace flags are unknown options, named in the error.
    for (const std::string flag :
         {"--trace-format", "--trace-policy", "--trace-skip-budget"}) {
        try {
            parseLine("critmem-sim --app art " + flag + " x");
            ADD_FAILURE() << "accepted " << flag;
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what()).find(flag),
                      std::string::npos)
                << err.what();
        }
    }
    // Listings and --help need no workload.
    EXPECT_TRUE(parseLine("critmem-sim --list-schedulers").listSchedulers);
    EXPECT_TRUE(parseLine("critmem-sim --help").help);
}

TEST(ExecSeed, DerivationIsStableAndDecorrelated)
{
    // Pinned value: the derivation must never change silently, or
    // previously published campaign results stop being reproducible.
    EXPECT_EQ(exec::deriveSeed(1, "art/base"),
              exec::deriveSeed(1, "art/base"));
    EXPECT_NE(exec::deriveSeed(1, "art/base"),
              exec::deriveSeed(1, "art/maxstall"));
    EXPECT_NE(exec::deriveSeed(1, "art/base"),
              exec::deriveSeed(2, "art/base"));
}

TEST(Fnv1a, StandardVectorsAndPinnedIdentities)
{
    // The published FNV-1a-64 test vectors...
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
    // ...and the identities stored on disk that hash through it: a
    // job seed, a trace content hash, two config hashes and the
    // spec-hashes --campaign manifests of two shipped specs store.
    // Changing any of them refuses every checkpointed campaign.
    EXPECT_EQ(exec::deriveSeed(1, "art/base"), 0x295fda4f07868f9full);
    EXPECT_EQ(ingest::hashFileBytes(std::string(CRITMEM_REPO_ROOT) +
                                    "/tests/trace/fixtures/mix4.cbin"),
              0xdb20d510ae36345bull);
    EXPECT_EQ(exec::configHash(SystemConfig::parallelDefault()),
              0x7fb6b10e20c2057full);
    EXPECT_EQ(exec::configHash(SystemConfig::multiprogDefault()),
              0x9cb1d609efc0aefdull);
    // A spec-hash covers only the traces its own jobs run, so it does
    // not depend on what this process expanded before: expanding
    // specs/traces.sweep first registers mix4 and pair2 process-wide.
    const auto specHash = [](const char *spec) {
        return exec::campaignHash(
            exec::parseSweepFile(std::string(CRITMEM_REPO_ROOT) +
                                 "/specs/" + spec)
                .expand());
    };
    specHash("traces.sweep");
    EXPECT_EQ(specHash("fig10.sweep"), 0xa7b3919e4a0c10bdull);
    EXPECT_EQ(specHash("arena.sweep"), 0xcf9d1d34c2311aacull);
}

TEST(ExecSweep, GlobMatch)
{
    EXPECT_TRUE(exec::globMatch("art/*", "art/base"));
    EXPECT_TRUE(exec::globMatch("*/morse", "swim/morse"));
    EXPECT_TRUE(exec::globMatch("*", "anything/at/all"));
    EXPECT_TRUE(exec::globMatch("a?t/base", "art/base"));
    EXPECT_FALSE(exec::globMatch("art/*", "cg/base"));
    EXPECT_FALSE(exec::globMatch("art", "art/base"));
    EXPECT_FALSE(exec::globMatch("", "x"));
}

TEST(ExecSweep, ParseAndExpand)
{
    std::istringstream in(
        "# demo spec\n"
        "mode = parallel\n"
        "workloads = art, mg\n"
        "quota = 1000\n"
        "seed = 7\n"
        "seed-mode = derived\n"
        "exclude = mg/tcm\n"
        "variant base : sched=frfcfs\n"
        "variant tcm : sched=tcm\n");
    const exec::SweepSpec spec = exec::parseSweepSpec(in);
    EXPECT_EQ(spec.quota, 1000u);
    EXPECT_EQ(spec.campaignSeed, 7u);
    ASSERT_EQ(spec.variants.size(), 2u);

    const std::vector<exec::JobSpec> jobs = spec.expand();
    std::vector<std::string> names;
    for (const exec::JobSpec &job : jobs)
        names.push_back(job.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "art/base", "art/tcm", "mg/base"}));
    EXPECT_EQ(jobs[1].cfg.sched.algo, SchedAlgo::Tcm);
    EXPECT_EQ(jobs[0].cfg.seed, exec::deriveSeed(7, "art/base"));
    EXPECT_EQ(jobs[0].tags.at("variant"), "base");
    EXPECT_EQ(jobs[0].tags.at("workload"), "art");
}

TEST(ExecSweep, VariantSeedOverridesCampaignSeed)
{
    std::istringstream in(
        "workloads = art\n"
        "seed = 3\n"
        "variant pinned : sched=frfcfs seed=99\n");
    const std::vector<exec::JobSpec> jobs =
        exec::parseSweepSpec(in).expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].cfg.seed, 99u);
}

TEST(ExecSweep, SchedsShorthandAndMultiprogAlone)
{
    std::istringstream in(
        "mode = multiprog\n"
        "workloads = RFGI\n"
        "alone = 1\n"
        "scheds = parbs, tcm\n");
    const std::vector<exec::JobSpec> jobs =
        exec::parseSweepSpec(in).expand();
    // Four alone baselines (one per app of RFGI) then 2 bundle jobs.
    ASSERT_EQ(jobs.size(), 6u);
    EXPECT_EQ(jobs[0].name, "alone/art_st");
    EXPECT_EQ(jobs[0].kind, exec::RunKind::Alone);
    EXPECT_TRUE(jobs[0].multiprogPreset);
    EXPECT_EQ(jobs[4].name, "RFGI/parbs");
    EXPECT_EQ(jobs[4].kind, exec::RunKind::Bundle);
    EXPECT_EQ(jobs[5].cfg.sched.algo, SchedAlgo::Tcm);
}

TEST(ExecSweep, AloneVariantSetsTheBaselines)
{
    const auto expand = [](const std::string &alone) {
        std::istringstream in("mode = multiprog\n"
                              "workloads = RFGI\n"
                              "alone = " + alone + "\n"
                              "variant parbs : sched=parbs\n"
                              "variant tcm : sched=tcm\n");
        return exec::parseSweepSpec(in).expand();
    };
    // alone = 1: the baselines run at the variant-free base config.
    EXPECT_EQ(expand("1")[0].cfg.sched.algo, SchedAlgo::FrFcfs);
    const std::vector<exec::JobSpec> jobs = expand("parbs");
    ASSERT_EQ(jobs.size(), 6u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(jobs[i].kind, exec::RunKind::Alone);
        EXPECT_EQ(jobs[i].cfg.sched.algo, SchedAlgo::ParBs);
    }
    EXPECT_EQ(jobs[5].cfg.sched.algo, SchedAlgo::Tcm);
    EXPECT_THROW(expand("parsb"), std::runtime_error);
}

TEST(ExecSweep, KnobSettingsReachTheRun)
{
    // dirty sets the prewarm's dirty fraction and burstiness every
    // app's; both change the simulated result, and both are config.
    const auto cycles = [](const std::string &setting) {
        exec::JobSpec job = parallelJob("art", "art", SchedAlgo::FrFcfs,
                                        1500);
        if (!setting.empty()) {
            const std::size_t eq = setting.find('=');
            exec::applySetting(job.cfg, setting.substr(0, eq),
                               setting.substr(eq + 1));
        }
        return exec::executeJob(job).cycles;
    };
    const Cycle plain = cycles("");
    EXPECT_EQ(cycles("dirty=0.12"), plain);
    EXPECT_NE(cycles("dirty=0.5"), plain);
    EXPECT_NE(cycles("burstiness=0"), plain);

    SystemConfig cfg = SystemConfig::parallelDefault();
    exec::applySetting(cfg, "dirty", "1.5");
    EXPECT_FALSE(cfg.validate().empty());
    cfg = SystemConfig::parallelDefault();
    exec::applySetting(cfg, "burstiness", "2");
    EXPECT_FALSE(cfg.validate().empty());
}

TEST(ExecSweep, ErrorsCarryLineNumbers)
{
    std::istringstream badKey("bogus = 1\n");
    try {
        exec::parseSweepSpec(badKey);
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("line 1"),
                  std::string::npos);
    }

    std::istringstream badSched(
        "workloads = art\n"
        "variant x : sched=notasched\n");
    EXPECT_THROW(exec::parseSweepSpec(badSched).expand(),
                 std::runtime_error);
}

/** The SweepError message of expanding @p text, or "" if it expands. */
std::string
expandError(const std::string &text)
{
    std::istringstream in(text);
    const exec::SweepSpec spec = exec::parseSweepSpec(in);
    try {
        spec.expand();
    } catch (const exec::SweepError &err) {
        EXPECT_EQ(err.lineNo(), 0u);
        return err.what();
    }
    return "";
}

TEST(ExecSweep, RejectsUnknownWorkload)
{
    EXPECT_EQ(expandError("workloads = nosuchapp\n"
                          "variant base : sched=frfcfs\n"),
              "unknown workload 'nosuchapp' for this mode");
}

TEST(ExecSweep, RejectsDeadExclude)
{
    // A mistyped exclusion must not silently run the jobs it meant
    // to drop.
    EXPECT_EQ(expandError("workloads = art\n"
                          "exclude = art/base, zz-no-such-workload/*\n"
                          "variant base : sched=frfcfs\n"
                          "variant tcm : sched=tcm\n"),
              "exclude pattern 'zz-no-such-workload/*' excluded no job");
    // A pattern that drops only alone baselines is live.
    EXPECT_EQ(expandError("mode = multiprog\n"
                          "workloads = RFGI\n"
                          "alone = 1\n"
                          "exclude = alone/mcf\n"
                          "variant base : sched=frfcfs\n"),
              "");
}

TEST(ExecSweep, RejectsEmptyCampaign)
{
    EXPECT_EQ(expandError("workloads = art, mg\n"
                          "exclude = */base\n"
                          "variant base : sched=frfcfs\n"),
              "sweep spec expands to zero jobs");
}

// The LintSweepSpec tests keep the name of the lint rule whose checks
// expand() now makes on every spec it loads.
TEST(LintSweepSpec, GoodFixtureIsClean)
{
    EXPECT_EQ(expandError("# minimal valid campaign\n"
                          "mode = parallel\n"
                          "workloads = art\n"
                          "quota = 1000\n"
                          "seed = 1\n"
                          "seed-mode = fixed\n"
                          "variant base : sched=frfcfs\n"),
              "");
}

TEST(LintSweepSpec, ShippedCampaignsAreClean)
{
    std::size_t specs = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(CRITMEM_REPO_ROOT) + "/specs")) {
        if (entry.path().extension() != ".sweep")
            continue;
        ++specs;
        try {
            exec::parseSweepFile(entry.path().string()).expand();
        } catch (const exec::SweepError &err) {
            ADD_FAILURE() << entry.path() << ": " << err.what();
        }
    }
    EXPECT_GE(specs, 30u);
}

TEST(ExecSweep, ShippedArenaFieldsEveryScheduler)
{
    // A registered scheduler without a variant here is kept off every
    // arena leaderboard.
    const exec::SweepSpec spec = exec::parseSweepFile(
        std::string(CRITMEM_REPO_ROOT) + "/specs/arena.sweep");
    std::set<std::string> fielded;
    for (const exec::SweepVariant &variant : spec.variants) {
        for (const auto &[key, value] : variant.settings) {
            if (key == "sched")
                fielded.insert(value);
        }
    }
    for (const SchedInfo &info : schedulerRegistry())
        EXPECT_EQ(fielded.count(info.cliName), 1u) << info.cliName;
}

TEST(ExecRunner, JsonlIdenticalAcrossThreadCounts)
{
    const std::vector<exec::JobSpec> jobs = smallCampaign(600);
    const std::string serial = runToJsonl(jobs, 1);
    const std::string threaded = runToJsonl(jobs, 8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, threaded);
}

TEST(ExecRunner, ManyTinyJobsAllComplete)
{
    // More jobs than workers with very uneven sizes: exercises the
    // shared dispatch cursor and the in-order aggregation.
    std::vector<exec::JobSpec> jobs;
    for (int i = 0; i < 24; ++i) {
        jobs.push_back(parallelJob(
            "job" + std::to_string(i), i % 2 ? "art" : "mg",
            SchedAlgo::FrFcfs, 150 + 40 * (i % 5), /*seed=*/i + 1));
    }
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 8;
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary = runner.run(jobs, {&sink});
    EXPECT_EQ(summary.total, jobs.size());
    EXPECT_EQ(summary.ok, jobs.size());
    EXPECT_EQ(summary.failed, 0u);
    ASSERT_EQ(sink.records().size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(sink.records()[i].index, i);
        EXPECT_EQ(sink.records()[i].spec.name, jobs[i].name);
        EXPECT_TRUE(sink.records()[i].ok());
    }
}

/** Records the id of every thread that calls into it. */
class ThreadSink : public exec::ResultSink
{
  public:
    void begin(std::size_t) override { note(); }
    void consume(const exec::JobRecord &) override { note(); }
    void end() override { note(); }

    void
    note()
    {
        std::lock_guard<std::mutex> lock(mutex);
        ids.push_back(std::this_thread::get_id());
    }

    std::mutex mutex;
    std::vector<std::thread::id> ids;
};

TEST(ExecRunner, AggregationRunsOnTheCallingThread)
{
    // Sinks and the annotator are single-aggregation-thread APIs: with
    // four workers, every call must still come from this thread.
    std::vector<exec::JobSpec> jobs;
    for (int i = 0; i < 8; ++i) {
        jobs.push_back(parallelJob("job" + std::to_string(i),
                                   i % 2 ? "art" : "mg",
                                   SchedAlgo::FrFcfs, 200, i + 1));
    }
    ThreadSink sink;
    exec::RunnerOptions opts;
    opts.threads = 4;
    opts.annotate = [&sink](exec::JobRecord &) { sink.note(); };
    const exec::CampaignSummary summary =
        exec::JobRunner(opts).run(jobs, {&sink});
    EXPECT_EQ(summary.ok, jobs.size());
    // begin + end, and consume + annotate per job.
    ASSERT_EQ(sink.ids.size(), 2 + 2 * jobs.size());
    for (const std::thread::id id : sink.ids)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ExecRunner, RunsJobsInSubmissionOrder)
{
    const std::vector<exec::JobSpec> jobs = sixJobs();
    OrderLog log;
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 1;
    exec::JobRunner(opts).run(jobs, {&sink}, &log);
    std::vector<std::size_t> want(jobs.size());
    std::iota(want.begin(), want.end(), std::size_t{0});
    EXPECT_EQ(log.order, want);
    EXPECT_EQ(sink.records().size(), jobs.size());
}

TEST(ExecRunner, StopMidCampaignKeepsEveryFinishedRecord)
{
    // The stop request lands with the 2nd journaled record: the sinks
    // must hold exactly the two finished jobs, and the other four
    // count as pending.
    const std::vector<exec::JobSpec> jobs = sixJobs();
    std::atomic<int> stop{0};
    OrderLog log;
    log.stop = &stop;
    log.stopAt = 2;
    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 1;
    opts.stopRequested = &stop;
    const exec::CampaignSummary summary =
        exec::JobRunner(opts).run(jobs, {&sink}, &log);
    EXPECT_EQ(log.order, (std::vector<std::size_t>{0, 1}));
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].index, 0u);
    EXPECT_EQ(sink.records()[1].index, 1u);
    EXPECT_EQ(summary.ok, 2u);
    EXPECT_EQ(summary.pending, jobs.size() - 2);
    EXPECT_TRUE(summary.interrupted);
}

TEST(ExecRunner, FaultInjectionIsIsolatedAndRunOnce)
{
    std::vector<exec::JobSpec> jobs;
    jobs.push_back(parallelJob("healthy", "art", SchedAlgo::FrFcfs,
                               500));
    exec::JobSpec faulty = parallelJob("faulty", "art",
                                       SchedAlgo::FrFcfs, 500);
    faulty.cfg.check.enabled = true;
    faulty.cfg.check.fault = FaultKind::EarlyCas;
    faulty.cfg.check.faultPeriod = 1;
    jobs.push_back(faulty);

    exec::MemorySink sink;
    exec::RunnerOptions opts;
    opts.threads = 2;
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary = runner.run(jobs, {&sink});

    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);

    const exec::JobRecord *healthy = sink.find("healthy");
    ASSERT_NE(healthy, nullptr);
    EXPECT_TRUE(healthy->ok());

    const exec::JobRecord *failed = sink.find("faulty");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, exec::JobStatus::CheckViolation);
    EXPECT_EQ(failed->attempts, 1u);
    EXPECT_FALSE(failed->error.empty());
    const std::string repro = exec::reproCommand(failed->spec);
    EXPECT_NE(repro.find("--inject early-cas"), std::string::npos);
    EXPECT_NE(repro.find("--app art"), std::string::npos);
}

TEST(ExecRunner, BadSpecsAreRecordedNotFatal)
{
    std::vector<exec::JobSpec> jobs;
    exec::JobSpec bogus = parallelJob("bogus", "no-such-app",
                                      SchedAlgo::FrFcfs, 300);
    jobs.push_back(bogus);
    jobs.push_back(parallelJob("fine", "art", SchedAlgo::FrFcfs, 300));

    exec::MemorySink sink;
    exec::JobRunner runner;
    const exec::CampaignSummary summary = runner.run(jobs, {&sink});
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.ok, 1u);
    const exec::JobRecord *failed = sink.find("bogus");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, exec::JobStatus::Error);
    EXPECT_NE(failed->error.find("no-such-app"), std::string::npos);
    EXPECT_THROW(sink.result("bogus"), std::runtime_error);
}

TEST(ExecRunner, MatchesSerialExperimentHarness)
{
    const std::uint64_t q = 800;
    SystemConfig cfg = SystemConfig::parallelDefault();
    cfg.sched.algo = SchedAlgo::CasRasCrit;
    cfg.crit.predictor = CritPredictor::CbpMaxStall;

    exec::JobSpec job;
    job.name = "art/maxstall";
    job.kind = exec::RunKind::Parallel;
    job.workload = "art";
    job.cfg = cfg;
    job.quota = q;

    exec::MemorySink sink;
    exec::JobRunner runner;
    runner.run({job}, {&sink});

    System serialSys(cfg, appParams("art"));
    const RunResult serial = runSystem(serialSys, q);
    const RunResult &engine = sink.result("art/maxstall");
    EXPECT_EQ(engine.cycles, serial.cycles);
    EXPECT_EQ(engine.finishCycles, serial.finishCycles);
    EXPECT_EQ(engine.dynamicLoads, serial.dynamicLoads);
    EXPECT_EQ(engine.rowHits, serial.rowHits);

    // Alone runs: the app on core 0 with the other cores idle.
    exec::JobSpec alone;
    alone.name = "alone/ammp";
    alone.kind = exec::RunKind::Alone;
    alone.workload = "ammp";
    alone.cfg = SystemConfig::multiprogDefault();
    alone.quota = q;
    alone.multiprogPreset = true;
    exec::MemorySink aloneSink;
    runner.run({alone}, {&aloneSink});
    std::vector<AppParams> perCore(alone.cfg.numCores);
    perCore[0] = appParams("ammp");
    System aloneSys(alone.cfg, perCore);
    EXPECT_DOUBLE_EQ(aloneSink.result("alone/ammp").ipc(0, q),
                     runSystem(aloneSys, q).ipc(0, q));

    // Bundles keep every core running until all reach the quota.
    const Bundle &rfgi = *findBundle("RFGI");
    exec::JobSpec bundle = alone;
    bundle.name = "RFGI/parbs";
    bundle.kind = exec::RunKind::Bundle;
    bundle.workload = rfgi.name;
    bundle.cfg.sched.algo = SchedAlgo::ParBs;
    exec::MemorySink bundleSink;
    runner.run({bundle}, {&bundleSink});
    std::vector<AppParams> apps;
    for (const std::string &app : rfgi.apps)
        apps.push_back(appParams(app));
    System bundleSys(bundle.cfg, apps);
    const RunResult shared =
        runSystem(bundleSys, q, kDefaultWarmup, /*stopAtQuota=*/false);
    EXPECT_EQ(bundleSink.result("RFGI/parbs").cycles, shared.cycles);
    EXPECT_EQ(bundleSink.result("RFGI/parbs").finishCycles,
              shared.finishCycles);
}

TEST(ExecRunner, CapturedStatsAreValidJson)
{
    exec::JobSpec job = parallelJob("stats", "art", SchedAlgo::FrFcfs,
                                    400);
    job.captureStats = true;
    std::string json;
    executeJob(job, &json);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"dram\""), std::string::npos);
    // Balanced braces outside string literals.
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
        }
    }
    EXPECT_EQ(depth, 0);
}

TEST(ExecStats, GroupPrintJsonFormat)
{
    stats::Group root("root");
    stats::Scalar counter(root, "counter", "a counter");
    stats::Average avg(root, "avg", "an average");
    stats::Group child("child", &root);
    stats::Scalar inner(child, "inner", "inner counter");

    counter += 3;
    avg.sample(1.5);
    avg.sample(2.5);
    inner += 7;

    std::ostringstream os;
    root.printJson(os);
    EXPECT_EQ(os.str(),
              "{\"counter\":3,"
              "\"avg\":{\"mean\":2,\"sum\":4,\"count\":2},"
              "\"child\":{\"inner\":7}}");
}

TEST(ExecStats, JsonHelpers)
{
    std::ostringstream escaped;
    stats::jsonEscape(escaped, "a\"b\\c\n");
    EXPECT_EQ(escaped.str(), "\"a\\\"b\\\\c\\n\"");

    std::ostringstream finite;
    stats::jsonDouble(finite, 0.1);
    EXPECT_EQ(finite.str(), "0.10000000000000001");

    std::ostringstream inf;
    stats::jsonDouble(inf, std::numeric_limits<double>::infinity());
    EXPECT_EQ(inf.str(), "null");
}

TEST(ExecReport, Fig10SweepSpecMatchesSerialBench)
{
    // The shipped fig10 spec, at a tiny quota, must reproduce the
    // serial harness numbers exactly (fixed seed, same configs).
    std::istringstream in(
        "mode = parallel\n"
        "workloads = art\n"
        "quota = 600\n"
        "seed = 1\n"
        "seed-mode = fixed\n"
        "variant base : sched=frfcfs\n"
        "variant maxstall : sched=casras-crit predictor=maxstall"
        " entries=64\n");
    const exec::SweepSpec spec = exec::parseSweepSpec(in);
    exec::MemorySink sink;
    exec::JobRunner runner;
    runner.run(spec.expand(), {&sink});

    SystemConfig base = SystemConfig::parallelDefault();
    base.sched.algo = SchedAlgo::FrFcfs;
    SystemConfig maxStall = base;
    maxStall.sched.algo = SchedAlgo::CasRasCrit;
    maxStall.crit.predictor = CritPredictor::CbpMaxStall;
    maxStall.crit.tableEntries = 64;

    System baseSys(base, appParams("art"));
    System maxSys(maxStall, appParams("art"));
    const RunResult serialBase = runSystem(baseSys, 600);
    const RunResult serialMax = runSystem(maxSys, 600);
    EXPECT_EQ(sink.result("art/base").cycles, serialBase.cycles);
    EXPECT_EQ(sink.result("art/maxstall").cycles, serialMax.cycles);
}

} // namespace

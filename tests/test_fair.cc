/**
 * @file
 * Fairness-subsystem tests: hand-computed metric goldens, the "fair"
 * stats group, and the arena annotator end-to-end on a real
 * multiprogrammed campaign (each alone baseline run exactly once).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "exec/arena.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "exec/sweep.hh"
#include "fair/fairness_stats.hh"
#include "fair/metrics.hh"

using namespace critmem;

TEST(FairMetrics, TwoCoreGolden)
{
    // Core 0: alone 2.0, shared 1.0 -> slowdown 2. Core 1: alone 1.0,
    // shared 0.5 -> slowdown 2. WS = 0.5 + 0.5 = 1.0, HS = 2/4 = 0.5,
    // max slowdown 2, unfairness 2/2 = 1 (both suffer equally).
    const fair::FairnessMetrics m =
        fair::computeFairness({1.0, 0.5}, {2.0, 1.0});
    ASSERT_TRUE(m.valid);
    ASSERT_EQ(m.slowdown.size(), 2u);
    EXPECT_DOUBLE_EQ(m.slowdown[0], 2.0);
    EXPECT_DOUBLE_EQ(m.slowdown[1], 2.0);
    EXPECT_DOUBLE_EQ(m.weightedSpeedup, 1.0);
    EXPECT_DOUBLE_EQ(m.harmonicSpeedup, 0.5);
    EXPECT_DOUBLE_EQ(m.maxSlowdown, 2.0);
    EXPECT_DOUBLE_EQ(m.unfairness, 1.0);
}

TEST(FairMetrics, FourCoreGolden)
{
    // Slowdowns 1, 2, 2, 4: WS = 1 + 0.5 + 0.5 + 0.25 = 2.25,
    // HS = 4/9, max slowdown 4, unfairness 4/1 = 4.
    const fair::FairnessMetrics m = fair::computeFairness(
        {1.0, 1.0, 0.5, 0.25}, {1.0, 2.0, 1.0, 1.0});
    ASSERT_TRUE(m.valid);
    ASSERT_EQ(m.slowdown.size(), 4u);
    EXPECT_DOUBLE_EQ(m.slowdown[0], 1.0);
    EXPECT_DOUBLE_EQ(m.slowdown[1], 2.0);
    EXPECT_DOUBLE_EQ(m.slowdown[2], 2.0);
    EXPECT_DOUBLE_EQ(m.slowdown[3], 4.0);
    EXPECT_DOUBLE_EQ(m.weightedSpeedup, 2.25);
    EXPECT_DOUBLE_EQ(m.harmonicSpeedup, 4.0 / 9.0);
    EXPECT_DOUBLE_EQ(m.maxSlowdown, 4.0);
    EXPECT_DOUBLE_EQ(m.unfairness, 4.0);
}

TEST(FairMetrics, InvalidInputsYieldZeroedMetrics)
{
    // Size mismatch, empty vectors, and a core that never reached its
    // quota (zero IPC) all invalidate; every field must stay zero.
    for (const fair::FairnessMetrics &m :
         {fair::computeFairness({1.0, 1.0}, {1.0}),
          fair::computeFairness({}, {}),
          fair::computeFairness({1.0, 0.0}, {1.0, 1.0}),
          fair::computeFairness({1.0, 1.0}, {0.0, 1.0})}) {
        EXPECT_FALSE(m.valid);
        EXPECT_TRUE(m.slowdown.empty());
        EXPECT_DOUBLE_EQ(m.weightedSpeedup, 0.0);
        EXPECT_DOUBLE_EQ(m.harmonicSpeedup, 0.0);
        EXPECT_DOUBLE_EQ(m.maxSlowdown, 0.0);
        EXPECT_DOUBLE_EQ(m.unfairness, 0.0);
    }
}

TEST(FairStats, PublishesGaugesAndJson)
{
    fair::FairnessStats stats(nullptr, 2);
    fair::FairnessMetrics m =
        fair::computeFairness({1.0, 0.5}, {2.0, 1.0});
    stats.set(m);

    const stats::Value *ws = stats.group().findValue("weightedSpeedup");
    ASSERT_NE(ws, nullptr);
    EXPECT_DOUBLE_EQ(ws->value(), 1.0);
    const stats::Value *s1 = stats.group().findValue("slowdown1");
    ASSERT_NE(s1, nullptr);
    EXPECT_DOUBLE_EQ(s1->value(), 2.0);

    const std::string json = stats.json();
    EXPECT_NE(json.find("\"valid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"harmonicSpeedup\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"slowdown0\":2"), std::string::npos);

    // Invalid metrics reset every gauge to zero.
    stats.set(fair::FairnessMetrics{});
    EXPECT_DOUBLE_EQ(ws->value(), 0.0);
    const stats::Value *valid = stats.group().findValue("valid");
    ASSERT_NE(valid, nullptr);
    EXPECT_DOUBLE_EQ(valid->value(), 0.0);
}

TEST(FairArena, SpliceHandlesEmptyAndBareObjects)
{
    const fair::FairnessMetrics m =
        fair::computeFairness({1.0, 0.5}, {2.0, 1.0});
    EXPECT_EQ(exec::spliceFairStats("", m, 2), "");

    const std::string bare = exec::spliceFairStats("{}", m, 2);
    EXPECT_EQ(bare.find("{\"fair\":{"), 0u);
    EXPECT_EQ(bare.back(), '}');

    const std::string spliced =
        exec::spliceFairStats("{\"core\":{\"ipc\":1}}", m, 2);
    EXPECT_NE(spliced.find("\"core\""), std::string::npos);
    EXPECT_NE(spliced.find(",\"fair\":{"), std::string::npos);
    EXPECT_NE(spliced.find("\"maxSlowdown\":2"), std::string::npos);
}

namespace
{

/** AELV and CMLI share "lu": 7 distinct apps across the two bundles. */
exec::SweepSpec
arenaSpec()
{
    std::istringstream in(
        "mode = multiprog\n"
        "workloads = AELV, CMLI\n"
        "quota = 400\n"
        "seed = 1\n"
        "seed-mode = fixed\n"
        "alone = 1\n"
        "scheds = frfcfs, bliss\n");
    return exec::parseSweepSpec(in);
}

} // namespace

TEST(FairArena, CampaignRunsEachBaselineOnceAndAnnotatesBundles)
{
    const exec::SweepSpec spec = arenaSpec();
    const std::vector<exec::JobSpec> jobs = spec.expand();

    // One alone job per distinct app — shared apps and extra variants
    // must not add baselines.
    std::size_t aloneJobs = 0;
    for (const exec::JobSpec &job : jobs)
        if (job.kind == exec::RunKind::Alone)
            ++aloneJobs;
    EXPECT_EQ(aloneJobs, 7u);
    EXPECT_EQ(jobs.size(), 7u + 2u * 2u);

    exec::FairnessAnnotator annotator;
    exec::MemorySink memory;
    exec::RunnerOptions opts;
    opts.threads = 4;
    opts.annotate = [&annotator](exec::JobRecord &rec) {
        annotator(rec);
    };
    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary = runner.run(jobs, {&memory});
    EXPECT_EQ(summary.failed, 0u);

    // One baseline banked per app.
    EXPECT_EQ(annotator.baselines().size(), 7u);

    for (const exec::JobRecord &rec : memory.records()) {
        if (rec.spec.kind != exec::RunKind::Bundle)
            continue;
        ASSERT_TRUE(rec.fairness.valid) << rec.spec.name;
        EXPECT_EQ(rec.fairness.slowdown.size(), 4u);
        EXPECT_GT(rec.fairness.weightedSpeedup, 0.0);
        EXPECT_GE(rec.fairness.maxSlowdown, 1.0) << rec.spec.name;
        EXPECT_GE(rec.fairness.unfairness, 1.0);
    }
}

TEST(FairArena, AnnotatedJsonlIdenticalAcrossThreadCounts)
{
    const std::vector<exec::JobSpec> jobs = arenaSpec().expand();
    auto run = [&](unsigned threads) {
        std::ostringstream out;
        exec::JsonlSink sink(out);
        exec::FairnessAnnotator annotator;
        exec::RunnerOptions opts;
        opts.threads = threads;
        opts.annotate = [&annotator](exec::JobRecord &rec) {
            annotator(rec);
        };
        exec::JobRunner runner(opts);
        runner.run(jobs, {&sink});
        return out.str();
    };
    const std::string serial = run(1);
    EXPECT_NE(serial.find("\"weightedSpeedup\""), std::string::npos);
    EXPECT_EQ(serial, run(4));
}

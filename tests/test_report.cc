/**
 * @file
 * Tests of critmem-sweep's --report layouts (src/exec/report.cc) on
 * hand-built records: stat: ratios with their Average and Max rows,
 * fairness: ratios against a base variant, rows dropped for failed
 * or unannotated jobs, and the usage errors reportError() gives
 * before any job runs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exec/report.hh"

using namespace critmem;

namespace
{

exec::JobRecord
record(const std::string &workload, const std::string &variant)
{
    exec::JobRecord rec;
    rec.spec.name = workload + "/" + variant;
    rec.spec.workload = workload;
    rec.spec.tags["variant"] = variant;
    return rec;
}

exec::SweepSpec
specWith(exec::SweepSpec::Mode mode, bool alone,
         std::initializer_list<const char *> variants)
{
    exec::SweepSpec spec;
    spec.mode = mode;
    spec.alone = alone;
    spec.quota = 1000;
    for (const char *name : variants)
        spec.variants.push_back({name, {}});
    return spec;
}

/** printReport() of @p layout, captured. */
std::string
report(const std::string &layout, const exec::SweepSpec &spec,
       const exec::MemorySink &sink)
{
    EXPECT_EQ(exec::reportError(layout, spec), "") << layout;
    std::FILE *out = std::tmpfile();
    exec::printReport(out, layout, spec, sink);
    std::rewind(out);
    std::string text;
    for (int c; (c = std::fgetc(out)) != EOF;)
        text += static_cast<char>(c);
    std::fclose(out);
    return text;
}

} // namespace

TEST(ExecReport, StatRatiosAverageAndMax)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Parallel, false, {"x", "y"});
    exec::MemorySink sink;
    const auto add = [&](const char *workload, const char *variant,
                         std::uint64_t blocking, std::uint64_t loads,
                         std::uint64_t maxCbp) {
        exec::JobRecord rec = record(workload, variant);
        rec.result.blockingLoads = blocking;
        rec.result.dynamicLoads = loads;
        rec.result.maxCbpValue = maxCbp;
        sink.consume(rec);
    };
    add("a", "x", 1, 4, 10);
    add("a", "y", 3, 4, 7);
    add("b", "x", 1, 2, 30);
    add("b", "y", 0, 5, 2);
    // c/y failed, so c gets no row and stays out of Average and Max.
    add("c", "x", 9, 9, 99);
    exec::JobRecord failed = record("c", "y");
    failed.status = exec::JobStatus::Error;
    sink.consume(failed);

    EXPECT_EQ(
        report("stat:blockingLoads/dynamicLoads,maxCbpValue", spec, sink),
        "# stat blockingLoads/dynamicLoads,maxCbpValue "
        "(quota=1000/core)\n"
        "app        x:blockingLoads/dynamicLoads x:maxCbpValue "
        "y:blockingLoads/dynamicLoads y:maxCbpValue\n"
        "a                              0.250000     10.000000"
        "                     0.750000      7.000000\n"
        "b                              0.500000     30.000000"
        "                     0.000000      2.000000\n"
        "Average                        0.375000     20.000000"
        "                     0.375000      4.500000\n"
        "Max                            0.500000     30.000000"
        "                     0.750000      7.000000\n");
}

TEST(ExecReport, FairnessRatiosAgainstBase)
{
    const exec::SweepSpec spec =
        specWith(exec::SweepSpec::Mode::Multiprog, true, {"base", "v"});
    exec::MemorySink sink;
    const auto add = [&](const char *workload, const char *variant,
                         double ws, double maxSlowdown, bool valid) {
        exec::JobRecord rec = record(workload, variant);
        rec.spec.kind = exec::RunKind::Bundle;
        rec.fairness.valid = valid;
        rec.fairness.weightedSpeedup = ws;
        rec.fairness.maxSlowdown = maxSlowdown;
        sink.consume(rec);
    };
    add("W1", "base", 2.0, 4.0, true);
    add("W1", "v", 3.0, 2.0, true);
    add("W2", "base", 1.0, 2.0, true);
    add("W2", "v", 1.5, 3.0, true);
    // No alone baselines for W3's apps: no fairness, no row.
    add("W3", "base", 1.0, 1.0, false);
    add("W3", "v", 1.0, 1.0, false);

    EXPECT_EQ(report("fairness:base", spec, sink),
              "# fairness vs base: weighted speedup (ws) and max "
              "slowdown (maxslow) over base's (quota=1000/core)\n"
              "bundle             v:ws    v:maxslow\n"
              "W1               1.5000       0.5000\n"
              "W2               1.5000       1.5000\n"
              "Average          1.5000       1.0000\n");
}

TEST(ExecReport, UsageErrorsBeforeAnyJob)
{
    const exec::SweepSpec parallel =
        specWith(exec::SweepSpec::Mode::Parallel, false, {"base", "v"});
    const exec::SweepSpec multiprog =
        specWith(exec::SweepSpec::Mode::Multiprog, true, {"base", "v"});
    for (const char *ok :
         {"arena", "failures", "speedup:v", "stat:lqFullCycles",
          "stat:blockingLoads/dynamicLoads,l2MissLatCrit"})
        EXPECT_EQ(exec::reportError(ok, parallel), "") << ok;
    EXPECT_EQ(exec::reportError("fairness:base", multiprog), "");

    EXPECT_NE(exec::reportError("stat:blockingLoadz", parallel)
                  .find("'blockingLoadz' is not NAME or NUM/DEN"),
              std::string::npos);
    for (const char *bad :
         {"stat:", "stat:lqFullCycles,", "stat:a/b/c",
          "stat:lqFullCycles/", "stat:cycles", "speedup:nope",
          "speedup", "fairness:nope", "bogus"})
        EXPECT_NE(exec::reportError(bad, multiprog), "") << bad;
    // fairness needs bundles with alone baselines.
    EXPECT_NE(exec::reportError("fairness:base", parallel)
                  .find("needs a multiprog spec with alone"),
              std::string::npos);
    exec::SweepSpec noAlone = multiprog;
    noAlone.alone = false;
    EXPECT_NE(exec::reportError("fairness:base", noAlone), "");
}

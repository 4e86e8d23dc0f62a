/**
 * @file
 * critmem-lint unit tests: every source rule proven to fire on its
 * bad fixture and stay silent on its good twin, suppression
 * mechanics, baseline round-trips, and a seeded mutant fuzz over
 * every C++ fixture.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/source_file.hh"
#include "sim/random.hh"

namespace
{

using namespace critmem;
using namespace critmem::analysis;

const std::string kFixtures =
    std::string(CRITMEM_REPO_ROOT) + "/tests/analysis/fixtures/";

/** Run every source rule over one fixture file. */
std::vector<Finding>
lintFixture(const std::string &name)
{
    return analyzeFile(loadSourceFile(
        kFixtures + name, "tests/analysis/fixtures/" + name));
}

/** Findings for one rule id. */
std::size_t
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

TEST(LintWallClock, FiresOnBadFixture)
{
    const auto findings = lintFixture("wall_clock_bad.cc");
    EXPECT_GE(countRule(findings, "wall-clock"), 2u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.severity, Severity::Error);
}

TEST(LintWallClock, SilentOnGoodFixture)
{
    // Mentions of steady_clock live only in comments and string
    // literals, which the blanked-code view must hide.
    EXPECT_EQ(lintFixture("wall_clock_good.cc").size(), 0u);
}

TEST(LintUnseededRandom, FiresOnBadFixture)
{
    EXPECT_GE(countRule(lintFixture("unseeded_random_bad.cc"),
                        "unseeded-random"),
              2u);
}

TEST(LintUnseededRandom, SilentOnGoodFixture)
{
    EXPECT_EQ(lintFixture("unseeded_random_good.cc").size(), 0u);
}

TEST(LintUnorderedIter, FiresOnBadFixture)
{
    const auto findings = lintFixture("unordered_iter_bad.cc");
    // One finding per loop: the alias-declared map and the directly
    // declared set.
    EXPECT_EQ(countRule(findings, "unordered-iter"), 2u);
}

TEST(LintUnorderedIter, SilentOnGoodFixture)
{
    // Lookups in unordered containers and iteration over std::map
    // are both fine.
    EXPECT_EQ(lintFixture("unordered_iter_good.cc").size(), 0u);
}

TEST(LintNarrowCycle, FiresOnBadFixture)
{
    EXPECT_EQ(countRule(lintFixture("narrow_cycle_bad.cc"),
                        "narrow-cycle"),
              3u);
}

TEST(LintNarrowCycle, SilentOnGoodFixture)
{
    EXPECT_EQ(lintFixture("narrow_cycle_good.cc").size(), 0u);
}

TEST(LintClockDomain, FiresOnBadFixture)
{
    const auto findings = lintFixture("clock_domain_bad.cc");
    ASSERT_EQ(findings.size(), 1u);
    const Finding &f = findings.front();
    EXPECT_EQ(f.rule, "clock-domain");
    // Anchored where the second domain first appears.
    EXPECT_EQ(f.line, 20);
    EXPECT_NE(f.message.find("'Cycle'"), std::string::npos);
    EXPECT_NE(f.message.find("'dramCycleNow_'"), std::string::npos);
}

TEST(LintClockDomain, SilentOnGoodFixture)
{
    // One domain only; the other's names live in comments and
    // string literals, which the blanked-code view hides.
    EXPECT_EQ(lintFixture("clock_domain_good.cc").size(), 0u);
}

TEST(LintIncludeHygiene, FiresOnBadFixture)
{
    const auto findings = lintFixture("include_hygiene_bad.hh");
    // Bare quoted include, parent-relative include, <bits/...>,
    // missing CRITMEM_* guard, using-namespace: five findings.
    EXPECT_EQ(countRule(findings, "include-hygiene"), 5u);
}

TEST(LintIncludeHygiene, SilentOnGoodFixture)
{
    EXPECT_EQ(lintFixture("include_hygiene_good.hh").size(), 0u);
}

TEST(LintDurableWrite, FiresOnBadFixture)
{
    const auto findings = lintFixture("durable_write_bad.cc");
    // Raw ofstream, fopen "ab", fopen "r+"; the read-only fopen "rb"
    // must not count.
    EXPECT_EQ(countRule(findings, "durable-write"), 3u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.severity, Severity::Error);
}

TEST(LintDurableWrite, SilentOnGoodFixture)
{
    // AtomicFile use, read-mode fopen, a suppressed append-only log,
    // and comment/string mentions: all clean.
    EXPECT_EQ(lintFixture("durable_write_good.cc").size(), 0u);
}

TEST(LintDurableWrite, AtomicFileHelperIsExempt)
{
    // The helper is the one legitimate raw writer; the same code
    // reported under its path must pass.
    const SourceFile file = makeSourceFile(
        "src/sim/atomic_file.hh",
        "#include <fstream>\nstd::ofstream out_;\n");
    EXPECT_EQ(countRule(analyzeFile(file), "durable-write"), 0u);
}

TEST(LintHotPathAlloc, FiresOnBadFixture)
{
    const auto findings = lintFixture("hot_path_alloc_bad.cc");
    // tick(): local vector + make_unique; refreshTick():
    // std::function construction + naked new.
    EXPECT_EQ(countRule(findings, "hot-path-alloc"), 4u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.severity, Severity::Error);
}

TEST(LintHotPathAlloc, SilentOnGoodFixture)
{
    // Member-scratch reuse inside tick(), construction-time
    // allocation outside it, and a justified lint:allow: all clean.
    EXPECT_EQ(lintFixture("hot_path_alloc_good.cc").size(), 0u);
}

TEST(LintHotPathAlloc, IgnoresNonTickFunctions)
{
    const SourceFile file = makeSourceFile(
        "src/x/y.cc",
        "#include <vector>\n"
        "void build() { std::vector<int> v; v.push_back(1); }\n");
    EXPECT_EQ(countRule(analyzeFile(file), "hot-path-alloc"), 0u);
}

/** Lint fixture @p name as if it were the repo file @p path. */
std::vector<Finding>
lintFixtureAs(const std::string &name, const std::string &path)
{
    return analyzeFile(loadSourceFile(kFixtures + name, path));
}

TEST(LintHotPathAlloc, FiresOnCallbacksAndNodeMapsInHotLayers)
{
    // The Done alias, the node map and set members, the callback
    // member: four findings in each per-cycle layer.
    for (const char *dir : {"src/cpu/", "src/mem/", "src/dram/"}) {
        const auto findings = lintFixtureAs(
            "hot_layer_types_bad.cc", std::string(dir) + "layer.cc");
        EXPECT_EQ(countRule(findings, "hot-path-alloc"), 4u) << dir;
    }
}

TEST(LintHotPathAlloc, HotLayerRuleIsScopedToThoseLayers)
{
    // The same code elsewhere (campaign tooling, the crit layer's
    // unlimited CBP table) is not per-cycle plumbing.
    for (const char *path : {"src/exec/layer.cc", "src/crit/layer.cc",
                             "tests/analysis/fixtures/layer.cc"}) {
        EXPECT_EQ(countRule(lintFixtureAs("hot_layer_types_bad.cc", path),
                            "hot-path-alloc"),
                  0u)
            << path;
    }
}

TEST(LintHotPathAlloc, SilentOnTypedHotLayerFixture)
{
    EXPECT_EQ(lintFixtureAs("hot_layer_types_good.cc", "src/mem/layer.cc")
                  .size(),
              0u);
}

TEST(LintNoTerminate, FiresOnBadFixture)
{
    const auto findings = lintFixture("no_terminate_bad.cc");
    // std::abort, std::exit, ::_exit, _Exit, quick_exit: five calls.
    EXPECT_EQ(countRule(findings, "no-terminate"), 5u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.severity, Severity::Error);
}

TEST(LintNoTerminate, SilentOnGoodFixture)
{
    // Thrown failures, exit/abort member functions, other-namespace
    // qualification, atexit(), a justified lint:allow, and mentions
    // in comments / string literals: all clean.
    EXPECT_EQ(lintFixture("no_terminate_good.cc").size(), 0u);
}

TEST(LintNoTerminate, ToolsAreExempt)
{
    // The same terminating code reported under tools/ must pass:
    // process exit is the CLI layer's prerogative (usage(), fatal
    // argument errors).
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "#include <cstdlib>\n"
        "void usage() { std::exit(1); }\n");
    EXPECT_EQ(countRule(analyzeFile(file), "no-terminate"), 0u);
}

TEST(LintSuppression, TrailingCommentGuardsItsLine)
{
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "#include <random>\n"
        "std::mt19937 gen; // lint:allow(unseeded-random): fixture\n");
    EXPECT_EQ(analyzeFile(file).size(), 0u);
}

TEST(LintSuppression, StandaloneCommentCarriesForward)
{
    // The suppression comment sits on its own line (possibly spanning
    // several comment-only lines) and must guard the next code line.
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "// lint:allow(unseeded-random): reproducing a published\n"
        "// stream requires the reference engine here\n"
        "std::mt19937 gen;\n");
    EXPECT_EQ(analyzeFile(file).size(), 0u);
}

TEST(LintSuppression, WholeFileAllow)
{
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "// lint:allow-file(unseeded-random)\n"
        "std::mt19937 a;\n"
        "std::mt19937 b;\n");
    EXPECT_EQ(analyzeFile(file).size(), 0u);
}

TEST(LintSuppression, OtherRulesStillFire)
{
    // Allowing one rule must not silence another on the same line.
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "std::mt19937 gen; // lint:allow(wall-clock): wrong rule\n");
    EXPECT_EQ(countRule(analyzeFile(file), "unseeded-random"), 1u);
}

TEST(LintBaseline, RoundTripAndCoverage)
{
    Finding finding{"wall-clock", Severity::Error, "tools/x.cc", 7,
                    "'steady_clock' reads host time"};
    const std::string path = testing::TempDir() + "lint_baseline_rt." +
        std::to_string(::getpid()) + ".txt";
    {
        std::ofstream out(path);
        out << formatBaseline({finding});
    }
    const Baseline baseline = loadBaseline(path);
    EXPECT_EQ(baseline.keys.size(), 1u);
    EXPECT_TRUE(baseline.covers(finding));

    // Identity is (rule, path, message) — the line number is free to
    // move without resurrecting the finding...
    finding.line = 99;
    EXPECT_TRUE(baseline.covers(finding));
    // ...but a different message is a different finding.
    finding.message = "something else";
    EXPECT_FALSE(baseline.covers(finding));
}

TEST(LintBaseline, ShippedBaselineIsEmpty)
{
    const Baseline baseline =
        loadBaseline(std::string(CRITMEM_REPO_ROOT) +
                     "/lint-baseline.txt");
    EXPECT_TRUE(baseline.keys.empty())
        << "lint-baseline.txt must stay empty: fix or suppress "
           "findings at the source";
}

TEST(LintStaleSuppression, FlagsAllowThatSuppressesNothing)
{
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "int clean() { return 0; } "
        "// lint:allow(wall-clock): nothing here reads a clock\n");
    const auto findings = analyzeFile(file);
    ASSERT_EQ(countRule(findings, "stale-suppression"), 1u);
    const Finding &f = findings.front();
    EXPECT_EQ(f.line, 1);
    EXPECT_NE(f.message.find("lint:allow(wall-clock)"),
              std::string::npos);
    EXPECT_NE(f.message.find("suppresses nothing"),
              std::string::npos);
}

TEST(LintStaleSuppression, FlagsAllowNamingNoRule)
{
    // Rule ids with a typo name no rule that could ever run, so they
    // can never suppress anything: both sites are findings.
    const auto findings = lintFixture("allow_unknown_rule_bad.cc");
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "stale-suppression");
        EXPECT_NE(f.message.find("names no registered rule"),
                  std::string::npos)
            << f.message;
    }
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_NE(findings[0].message.find("lint:allow-file(clock-domian)"),
              std::string::npos);
    EXPECT_EQ(findings[1].line, 9);
    EXPECT_NE(findings[1].message.find("lint:allow(wal-clock)"),
              std::string::npos);
}

TEST(LintStaleSuppression, FlagsStaleWholeFileAllow)
{
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "// lint:allow-file(unseeded-random)\n"
        "int clean() { return 0; }\n");
    const auto findings = analyzeFile(file);
    ASSERT_EQ(countRule(findings, "stale-suppression"), 1u);
    EXPECT_NE(findings.front().message.find("lint:allow-file"),
              std::string::npos);
}

TEST(LintStaleSuppression, UsedAllowIsNotStale)
{
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "#include <random>\n"
        "std::mt19937 gen; // lint:allow(unseeded-random): fixture\n");
    EXPECT_EQ(countRule(analyzeFile(file), "stale-suppression"), 0u);
}

TEST(LintStaleSuppression, ItselfSuppressible)
{
    // A knowingly-dormant allow can be kept with an explicit
    // stale-suppression allow on the same line.
    const SourceFile file = makeSourceFile(
        "tools/x.cc",
        "int clean() { return 0; } "
        "// lint:allow(wall-clock): future use "
        "lint:allow(stale-suppression): kept on purpose\n");
    EXPECT_EQ(countRule(analyzeFile(file), "stale-suppression"), 0u);
}

TEST(LintJson, DeterministicEscapedOutput)
{
    Report report;
    report.filesScanned = 2;
    report.findings.push_back(
        {"wall-clock", Severity::Error, "a.cc", 3,
         "'steady_clock' reads \"host\" time\tnow"});
    report.baselined.push_back(
        {"narrow-cycle", Severity::Error, "b.cc", 1, "m"});

    const std::string once = formatJson(report);
    EXPECT_EQ(once, formatJson(report));
    EXPECT_NE(once.find("\"filesScanned\": 2"), std::string::npos);
    EXPECT_NE(once.find("\"clean\": false"), std::string::npos);
    // Quotes and tabs inside messages must round-trip escaped.
    EXPECT_NE(once.find("\\\"host\\\" time\\tnow"),
              std::string::npos);
    EXPECT_NE(once.find("\"baselined\""), std::string::npos);
    EXPECT_EQ(once.back(), '\n');
}

TEST(LintJson, EmptyReportIsClean)
{
    Report report;
    report.filesScanned = 1;
    const std::string json = formatJson(report);
    EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
    EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

TEST(LintReport, FindingRenderAndOrder)
{
    const Finding a{"wall-clock", Severity::Error, "a.cc", 3, "m"};
    const Finding b{"wall-clock", Severity::Error, "a.cc", 9, "m"};
    const Finding c{"narrow-cycle", Severity::Error, "b.cc", 1, "m"};
    EXPECT_TRUE(findingLess(a, b));
    EXPECT_TRUE(findingLess(b, c));
    std::ostringstream os;
    os << a;
    EXPECT_EQ(os.str(), "a.cc:3: error: [wall-clock] m");
}

// Mutant fuzz: linting arbitrary mutations of real inputs must never
// crash or throw (mirrors the tracefuzz harness for traces).
TEST(LintFuzz, FixtureMutantsNeverCrash)
{
    std::vector<std::string> seeds;
    for (const auto &entry : std::filesystem::directory_iterator(kFixtures)) {
        const std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".hh")
            seeds.push_back(entry.path().filename().string());
    }
    std::sort(seeds.begin(), seeds.end());
    ASSERT_FALSE(seeds.empty());
    static const char kNoise[] = "{}();:<>,*&=\"'/\\#";
    Rng rng(0xc0ffee5eedULL);

    for (const std::string &name : seeds) {
        const SourceFile original = loadSourceFile(
            kFixtures + name, "tests/analysis/fixtures/" + name);
        std::string text;
        for (const std::string &line : original.lines)
            text += line + "\n";

        for (int mutant = 0; mutant < 40; ++mutant) {
            std::string mutated = text;
            const int edits = 1 + static_cast<int>(rng.below(4));
            for (int e = 0; e < edits && !mutated.empty(); ++e) {
                const auto pos =
                    static_cast<std::size_t>(rng.below(mutated.size()));
                const auto span =
                    1 + static_cast<std::size_t>(rng.below(20));
                switch (rng.below(4)) {
                  case 0: // delete a span
                    mutated.erase(pos, span);
                    break;
                  case 1: // duplicate a span
                    mutated.insert(pos, mutated.substr(pos, span));
                    break;
                  case 2: // structural noise
                    mutated[pos] = kNoise[rng.below(sizeof(kNoise) - 1)];
                    break;
                  default: // truncate
                    mutated.resize(pos);
                    break;
                }
            }
            EXPECT_NO_THROW(
                (void)analyzeFile(makeSourceFile("fuzz/" + name, mutated)))
                << name << " mutant " << mutant;
        }
    }
}

} // namespace

/**
 * @file
 * critmem-lint: the project's static-analysis pass (DESIGN.md
 * section 8). Scans src/, tools/, bench/ and examples/ one file at a
 * time with the source rules (determinism, clock-domain, protocol
 * and hygiene), flags stale lint:allow suppressions, and reports
 * everything not covered by the checked-in baseline. It lints source
 * text only: timing presets, sweep specs and traces are checked by
 * the code that loads them.
 *
 * Wired as the `lint` build target and the Lint.Repo ctest; run by
 * scripts/run_all.sh before the sanitizer passes.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "analysis/analyzer.hh"
#include "sim/atomic_file.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --root DIR        repository root to scan (default: .)\n"
        "  --baseline FILE   baseline of known findings\n"
        "                    (default: ROOT/lint-baseline.txt when "
        "present)\n"
        "  --write-baseline  rewrite the baseline from the current\n"
        "                    findings and exit\n"
        "  --rule ID         run only rule ID (repeatable)\n"
        "  --json FILE       also write the report as JSON "
        "(atomic)\n"
        "  --list-rules      print every registered rule and exit\n"
        "  --quiet           suppress the summary line\n"
        "exit status: 0 clean, 1 error findings, 2 bad invocation\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace critmem::analysis;

    std::string root = ".";
    std::string baselinePath;
    std::string jsonPath;
    bool writeBaseline = false;
    bool listRules = false;
    bool quiet = false;
    AnalyzerOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = value();
        } else if (arg == "--baseline") {
            baselinePath = value();
        } else if (arg == "--write-baseline") {
            writeBaseline = true;
        } else if (arg == "--rule") {
            const std::string id = value();
            if (!haveRule(id)) {
                std::fprintf(stderr, "%s: unknown rule '%s'\n",
                             argv[0], id.c_str());
                return 2;
            }
            opts.ruleFilter.insert(id);
        } else if (arg == "--json") {
            jsonPath = value();
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            return usage(argv[0]);
        }
    }

    if (listRules) {
        // Column widths follow the registered ids so a long rule id
        // never breaks the alignment.
        std::size_t idWidth = 0;
        for (const RuleMeta &meta : allRuleMetas())
            idWidth = std::max(idWidth, std::strlen(meta.id));
        for (const RuleMeta &meta : allRuleMetas()) {
            std::printf("%-*s %-7s %s\n",
                        static_cast<int>(idWidth), meta.id,
                        toString(meta.severity), meta.desc);
        }
        return 0;
    }

    try {
        opts.root = root;

        Baseline baseline;
        std::string effectiveBaseline = baselinePath;
        if (effectiveBaseline.empty()) {
            const std::string candidate =
                root + "/lint-baseline.txt";
            if (std::ifstream(candidate).good())
                effectiveBaseline = candidate;
        }
        if (!effectiveBaseline.empty() && !writeBaseline)
            baseline = loadBaseline(effectiveBaseline);

        const Report report = runAnalysis(opts, baseline);

        if (!jsonPath.empty()) {
            // Atomic temp+fsync+rename write, and a deterministic
            // byte stream: two runs over the same tree produce
            // byte-identical JSON (asserted by check_determinism.sh).
            try {
                critmem::AtomicFile out(jsonPath);
                out.stream() << formatJson(report);
                out.commit();
            } catch (const std::exception &err) {
                std::fprintf(stderr, "%s: cannot write %s: %s\n",
                             argv[0], jsonPath.c_str(), err.what());
                return 2;
            }
        }

        if (writeBaseline) {
            if (effectiveBaseline.empty())
                effectiveBaseline = root + "/lint-baseline.txt";
            // Atomic temp+fsync+rename write: concurrent lint runs
            // (or a crash) never leave a half-written baseline.
            try {
                critmem::AtomicFile out(effectiveBaseline);
                out.stream() << formatBaseline(report.findings);
                out.commit();
            } catch (const std::exception &err) {
                std::fprintf(stderr, "%s: cannot write %s: %s\n",
                             argv[0], effectiveBaseline.c_str(),
                             err.what());
                return 2;
            }
            std::fprintf(stderr,
                         "wrote %zu baseline entr%s to %s\n",
                         report.findings.size(),
                         report.findings.size() == 1 ? "y" : "ies",
                         effectiveBaseline.c_str());
            return 0;
        }

        for (const Finding &finding : report.findings)
            std::cout << finding << '\n';
        if (!quiet) {
            std::fprintf(
                stderr,
                "critmem-lint: %zu file%s scanned, %zu finding%s"
                " (%zu baselined)\n",
                report.filesScanned,
                report.filesScanned == 1 ? "" : "s",
                report.findings.size(),
                report.findings.size() == 1 ? "" : "s",
                report.baselined.size());
        }
        return report.clean() ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
        return 2;
    }
}

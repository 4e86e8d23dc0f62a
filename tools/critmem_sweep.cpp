/**
 * @file
 * critmem-sweep: the unified campaign driver over src/exec/.
 *
 * Expands a declarative sweep spec into a job list, executes it on
 * the JobRunner's thread pool (jobs start in submission order),
 * streams structured results to JSONL / CSV sinks, and prints the
 * --report tables (exec/report.hh) straight from the in-memory
 * records:
 *
 *   critmem-sweep --spec specs/fig10.sweep --jobs $(nproc) \
 *                 --out fig10.jsonl --progress --report speedup:base
 *
 * Results are bit-identical for any --jobs value; the wall clock is
 * the only thing that changes.
 *
 * Crash safety: with --campaign DIR every completed job is fsync'd
 * into DIR/journal.txt, and after a crash / SIGKILL / graceful ^C
 * `critmem-sweep --resume DIR` re-runs only the missing jobs and
 * regenerates outputs byte-identical to an uninterrupted run. Result
 * files (--out/--csv) are written via temp+rename, so readers see
 * either the old file or the complete new one, never a torn write.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "exec/arena.hh"
#include "exec/campaign.hh"
#include "exec/console.hh"
#include "exec/job_runner.hh"
#include "exec/report.hh"
#include "exec/sweep.hh"
#include "exec/worker.hh"
#include "sim/atomic_file.hh"
#include "sim/log.hh"

using namespace critmem;

namespace
{

/**
 * Graceful-shutdown state. The first SIGINT/SIGTERM requests a
 * drain (stop dispatch, finish in-flight jobs, flush the journal and
 * sinks, print a --resume hint); a second signal aborts immediately.
 */
std::atomic<int> gStop{0};

extern "C" void
onStopSignal(int)
{
    if (gStop.fetch_add(1) != 0) {
        // Hard abort: take any outstanding isolated workers down with
        // the supervisor so a double ^C never leaks orphan processes
        // still burning CPU against the terminal. Async-signal-safe.
        exec::killWorkerGroups();
        std::_Exit(130);
    }
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: critmem-sweep --spec FILE [options]\n"
        "       critmem-sweep --resume DIR [options]\n"
        "  --spec FILE        sweep specification (see specs/)\n"
        "  --jobs N           worker threads (default: all cores)\n"
        "  --out FILE         write one JSON object per job (JSONL);"
        " '-' = stdout\n"
        "  --csv FILE         write a flat CSV table; '-' = stdout\n"
        "  --stats            embed each job's full stats tree in the"
        " JSONL records\n"
        "  --progress         live [done/total] throughput/ETA line on"
        " stderr\n"
        "  --quota N          override the spec's per-core quota\n"
        "  --seed N           override the spec's campaign seed\n"
        "  --check            attach the protocol checker to every"
        " job\n"
        "  --timeout SEC      per-job wall-clock limit; over-budget"
        " jobs are\n"
        "                     cancelled and recorded as"
        " status=timeout\n"
        "  --isolate          run each job in a forked worker process:"
        " a crash,\n"
        "                     runaway allocation or wedge is contained"
        " to that\n"
        "                     job (status=crashed/oom/timeout/exit)"
        " and the\n"
        "                     campaign keeps going; result files stay\n"
        "                     byte-identical to in-process execution\n"
        "  --job-mem-mb N     per-job address-space budget in MiB"
        " (RLIMIT_AS\n"
        "                     inside the worker; needs --isolate)\n"
        "  --max-failures N[%%]\n"
        "                     circuit breaker: abort dispatch once N"
        " jobs (or\n"
        "                     N%% of the campaign) have failed;\n"
        "                     resumable with --resume once fixed\n"
        "  --campaign DIR     checkpoint into DIR: an atomic manifest"
        " plus a\n"
        "                     per-record fsync'd completion journal\n"
        "  --resume DIR       resume an interrupted --campaign run:"
        " re-expands\n"
        "                     the spec, verifies the manifest hash,"
        " replays\n"
        "                     journaled jobs and runs only the rest\n"
        "  --report LAYOUT    after the run, print a table (repeatable,"
        " in order):\n"
        "    speedup:BASE     per-workload cycle speedup of each variant"
        " over BASE\n"
        "    stat:EXPR[,...]  per-workload result scalars (JSONL names,"
        " e.g.\n"
        "                     blockingLoads) or NUM/DEN ratios; Average"
        " and Max rows\n"
        "    fairness:BASE    per-bundle weighted speedup and max slowdown"
        " over\n"
        "                     BASE's (multiprog specs with alone)\n"
        "    arena            the scheduler leaderboard"
        " (specs/arena.sweep)\n"
        "    failures         failures by status x variant x workload,"
        " plus a\n"
        "                     repro line per failed job\n"
        "  --list             print the expanded job list and exit\n"
        "exit status: 0 all jobs ok, 2 some jobs failed,\n"
        "             3 interrupted by SIGINT/SIGTERM (resumable with"
        " --resume)\n");
    std::exit(1);
}

std::string
boolValue(bool b)
{
    return b ? "1" : "0";
}

/** parseUint() of @p flag's value; exit 1 naming the flag if bad. */
std::uint64_t
numberArg(const std::string &flag, const std::string &value)
{
    try {
        return exec::parseUint(flag, value);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "critmem-sweep: %s\n", err.what());
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specPath;
    std::string outPath;
    std::string csvPath;
    std::vector<std::string> reports;
    std::string campaignDir;
    bool resume = false;
    exec::RunnerOptions opts;
    bool listOnly = false;
    bool forceCheck = false;
    bool captureStats = false;
    std::uint64_t quotaOverride = 0;
    std::uint64_t seedOverride = 0;
    bool seedSet = false;

    auto nextArg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec") {
            specPath = nextArg(i);
        } else if (arg == "--jobs") {
            opts.threads =
                static_cast<unsigned>(numberArg(arg, nextArg(i)));
        } else if (arg == "--out") {
            outPath = nextArg(i);
        } else if (arg == "--csv") {
            csvPath = nextArg(i);
        } else if (arg == "--stats") {
            captureStats = true;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--quota") {
            quotaOverride = numberArg(arg, nextArg(i));
        } else if (arg == "--seed") {
            seedOverride = numberArg(arg, nextArg(i));
            seedSet = true;
        } else if (arg == "--check") {
            forceCheck = true;
        } else if (arg == "--timeout") {
            opts.jobTimeoutMs = 1000 * numberArg(arg, nextArg(i));
        } else if (arg == "--isolate") {
            opts.isolate = true;
        } else if (arg == "--job-mem-mb") {
            opts.jobMemMb = numberArg(arg, nextArg(i));
        } else if (arg == "--max-failures") {
            const std::string value = nextArg(i);
            if (!value.empty() && value.back() == '%')
                opts.maxFailuresPct = static_cast<unsigned>(numberArg(
                    arg, value.substr(0, value.size() - 1)));
            else
                opts.maxFailures =
                    static_cast<std::size_t>(numberArg(arg, value));
        } else if (arg == "--campaign") {
            campaignDir = nextArg(i);
        } else if (arg == "--resume") {
            campaignDir = nextArg(i);
            resume = true;
        } else if (arg == "--report") {
            reports.push_back(nextArg(i));
        } else if (arg == "--list") {
            listOnly = true;
        } else {
            usage();
        }
    }
    if (specPath.empty() && !resume)
        usage();

    setQuiet(true);
    exec::Console &console = exec::Console::instance();

    exec::SweepSpec spec;
    std::vector<exec::JobSpec> jobs;
    std::unique_ptr<exec::CampaignJournal> journal;
    try {
        if (resume) {
            // Everything that shapes the job list comes from the
            // manifest, so a plain `--resume DIR` reproduces the
            // original campaign exactly; only execution knobs
            // (--jobs, --timeout, --progress, ...) stay CLI-driven.
            const exec::Manifest manifest =
                exec::loadManifest(exec::manifestPath(campaignDir));
            const std::string *field = manifest.find("spec");
            if (field == nullptr)
                throw exec::CampaignError(
                    "campaign manifest is missing key 'spec'", 0);
            specPath = *field;
            spec = exec::parseSweepFile(specPath);
            if ((field = manifest.find("quota")) != nullptr)
                spec.quota = exec::parseUint("quota", *field);
            if ((field = manifest.find("seed")) != nullptr)
                spec.campaignSeed = exec::parseUint("seed", *field);
            if ((field = manifest.find("check")) != nullptr)
                spec.check = *field == "1" || spec.check;
            if ((field = manifest.find("stats")) != nullptr)
                spec.captureStats = *field == "1" || spec.captureStats;
            if ((field = manifest.find("out")) != nullptr)
                outPath = *field;
            if ((field = manifest.find("csv")) != nullptr)
                csvPath = *field;
            jobs = spec.expand();
            // The spec file may have been edited since the campaign
            // started; refuse to mix journaled results with a job
            // list they no longer belong to.
            manifest.expectValue(
                "spec-hash",
                exec::hashHex(exec::campaignHash(jobs)));
            manifest.expectValue("jobs",
                                 std::to_string(jobs.size()));
        } else {
            spec = exec::parseSweepFile(specPath);
            if (quotaOverride)
                spec.quota = quotaOverride;
            if (seedSet)
                spec.campaignSeed = seedOverride;
            if (forceCheck)
                spec.check = true;
            if (captureStats)
                spec.captureStats = true;
            jobs = spec.expand();
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "critmem-sweep: %s\n", err.what());
        return 1;
    }
    for (const std::string &report : reports) {
        if (const std::string err = exec::reportError(report, spec);
            !err.empty()) {
            std::fprintf(stderr, "critmem-sweep: %s\n", err.c_str());
            return 1;
        }
    }

    if (listOnly) {
        for (const exec::JobSpec &job : jobs)
            std::printf("%s\n", job.name.c_str());
        return 0;
    }

    try {
        if (resume) {
            journal = exec::CampaignJournal::resume(
                exec::journalPath(campaignDir));
            journal->attach(jobs);
            if (journal->tornTailTruncated())
                console.line("journal: truncated a torn trailing "
                             "record (crash artifact)");
        } else if (!campaignDir.empty()) {
            if (::mkdir(campaignDir.c_str(), 0777) != 0 &&
                errno != EEXIST) {
                fatal("cannot create campaign directory '",
                      campaignDir, "'");
            }
            exec::writeManifest(
                exec::manifestPath(campaignDir),
                {{"spec", specPath},
                 {"spec-hash",
                  exec::hashHex(exec::campaignHash(jobs))},
                 {"jobs", std::to_string(jobs.size())},
                 {"quota", std::to_string(spec.quota)},
                 {"seed", std::to_string(spec.campaignSeed)},
                 {"check", boolValue(spec.check)},
                 {"stats", boolValue(spec.captureStats)},
                 {"out", outPath},
                 {"csv", csvPath}});
            journal = exec::CampaignJournal::create(
                exec::journalPath(campaignDir));
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "critmem-sweep: %s\n", err.what());
        return 1;
    }

    // Assemble the sink stack. The memory sink always runs so that
    // post-run reports can query results without re-parsing files.
    // File-backed sinks write through AtomicFile (temp + fsync +
    // rename): a reader of the target path sees the previous file or
    // the complete new one, never a partial write.
    exec::MemorySink memory;
    std::vector<exec::ResultSink *> sinks{&memory};

    std::unique_ptr<AtomicFile> outFile;
    std::unique_ptr<exec::JsonlSink> jsonl;
    if (!outPath.empty()) {
        std::ostream *os = &std::cout;
        if (outPath != "-") {
            outFile = std::make_unique<AtomicFile>(outPath);
            os = &outFile->stream();
        }
        jsonl = std::make_unique<exec::JsonlSink>(*os);
        sinks.push_back(jsonl.get());
    }

    std::unique_ptr<AtomicFile> csvFile;
    std::unique_ptr<exec::CsvSink> csv;
    if (!csvPath.empty()) {
        std::ostream *os = &std::cout;
        if (csvPath != "-") {
            csvFile = std::make_unique<AtomicFile>(csvPath);
            os = &csvFile->stream();
        }
        csv = std::make_unique<exec::CsvSink>(*os);
        sinks.push_back(csv.get());
    }

    // First signal drains gracefully, second hard-aborts; see
    // onStopSignal.
    opts.stopRequested = &gStop;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    // Fairness annotation runs on the aggregation thread in
    // submission order, so every Bundle record is decorated after the
    // alone-run baselines it needs (sweep expansion puts those first).
    exec::FairnessAnnotator annotator;
    opts.annotate = [&annotator](exec::JobRecord &rec) {
        annotator(rec);
    };

    exec::JobRunner runner(opts);
    const exec::CampaignSummary summary =
        runner.run(jobs, sinks, journal.get());

    // An interrupted campaign still commits its outputs: they hold a
    // clean submission-order prefix of the records, and a --resume
    // rewrites them in full.
    try {
        if (outFile)
            outFile->commit();
        if (csvFile)
            csvFile->commit();
    } catch (const std::exception &err) {
        std::fprintf(stderr, "critmem-sweep: %s\n", err.what());
        return 1;
    }

    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "campaign: %zu jobs, %zu ok, %zu failed, %zu "
                  "replayed, %.1fs wall (%.2f jobs/s)",
                  summary.total, summary.ok, summary.failed,
                  summary.replayed,
                  summary.wallMs / 1000.0,
                  summary.wallMs > 0.0
                      ? summary.total * 1000.0 / summary.wallMs
                      : 0.0);
    console.line(buffer);
    if (summary.respawned != 0)
        console.line("respawned: " +
                     std::to_string(summary.respawned) +
                     " worker(s) killed externally and re-dispatched");
    for (const exec::JobRecord &rec : memory.records()) {
        if (!rec.ok()) {
            console.line("failed: " + rec.spec.name + " [" +
                         toString(rec.status) + "]: " + rec.error +
                         "\n  repro: " + exec::reproCommand(rec.spec));
        }
    }

    if (summary.breakerTripped)
        console.line("circuit breaker: the --max-failures threshold "
                     "was reached; dispatch was aborted");

    if (summary.interrupted) {
        console.line(
            "interrupted: " + std::to_string(summary.pending) +
            " job(s) not completed");
        if (!campaignDir.empty()) {
            console.line("resume with: critmem-sweep --resume " +
                         campaignDir);
        } else {
            console.line("(no --campaign directory: completed work "
                         "was not checkpointed)");
        }
        return 3;
    }

    for (const std::string &report : reports)
        exec::printReport(stdout, report, spec, memory);

    return summary.failed == 0 ? 0 : 2;
}

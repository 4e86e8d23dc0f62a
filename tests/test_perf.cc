/** @file Deterministic work-counter gates: simulator work per unit of
 *  simulated output, counted exactly, so host speed cannot move them. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/job.hh"
#include "system/experiment.hh"
#include "system/system.hh"

using namespace critmem;

namespace
{

/** The critmem-sim commands every gate here runs: fft/PAR-BS, a
 *  saturating parallel job, and art/CASRAS-Crit with a CBP. */
const std::vector<std::vector<std::string>> kGatedJobs = {
    {"--app", "fft", "--sched", "parbs", "--instrs", "6000"},
    {"--app", "art", "--sched", "casras-crit", "--predictor", "maxstall",
     "--instrs", "6000"},
};

/** DRAM readiness work of one job, summed over its channels. */
struct DramWork
{
    std::uint64_t evals = 0;
    /** Queue entries read while building candidates and minima. */
    std::uint64_t entries = 0;
    /** ACT + RD + WR + PRE (refresh precharges included). */
    std::uint64_t cmds = 0;
};

/**
 * Run the critmem-sim command @p args with no warmup, so the channel
 * stats and the evaluation counter cover the same cycles.
 */
DramWork
dramWork(std::vector<std::string> args)
{
    args.insert(args.end(), {"--warmup", "0"});
    const exec::JobSpec spec = exec::parseSimCommand(args).spec;
    const std::unique_ptr<System> sys = exec::buildSystem(spec);
    runSystem(*sys, spec.quota, spec.warmup, spec.stopAtQuota());
    DramWork work;
    const DramSystem &dram = sys->dram();
    for (std::uint32_t c = 0; c < dram.numChannels(); ++c) {
        const DramChannel &channel = dram.channel(c);
        const DramChannel::Stats &s = channel.channelStats();
        work.evals += channel.readinessEvals();
        work.entries += channel.entriesRead();
        work.cmds += s.activates.value() + s.reads.value() +
            s.writes.value() + s.precharges.value();
    }
    return work;
}

} // namespace

/**
 * Readiness evaluations per issued DRAM command over an fft/PAR-BS
 * run and an art/CASRAS-Crit run. Re-running txnReady()
 * for every queued transaction on every tick and in every
 * nextEventCycle() probe cost 34.57 evaluations per command on these
 * jobs (673,585 for 19,483 commands); re-running it for every queued
 * transaction after each command still cost 10.80. Splitting readiness
 * into a cached bank part, re-evaluated only for the entries of the
 * bank a command touched, and a rank part computed once per command
 * must bring it to at most 2.5.
 */
TEST(Perf, DramReadinessEvals)
{
    const double kMaxPerCmd = 2.5;
    DramWork total;
    for (const std::vector<std::string> &args : kGatedJobs) {
        const DramWork work = dramWork(args);
        ASSERT_GT(work.cmds, 0u) << args[1];
        total.evals += work.evals;
        total.cmds += work.cmds;
    }
    const double perCmd =
        static_cast<double>(total.evals) / static_cast<double>(total.cmds);
    RecordProperty("evals", std::to_string(total.evals));
    RecordProperty("cmds", std::to_string(total.cmds));
    EXPECT_LE(perCmd, kMaxPerCmd)
        << total.evals << " evaluations for " << total.cmds
        << " commands";
}

/** fft under CASRAS-Crit with MaxStall: the queues stay deep. */
const std::vector<std::string> kDeepQueueJob = {
    "--app", "fft", "--sched", "casras-crit", "--predictor", "maxstall",
    "--instrs", "60000"};

/**
 * The same count on a job that keeps the queues deep: fft under
 * CASRAS-Crit with MaxStall at 60k instructions, where re-evaluating
 * every queued transaction after each command cost 26.31 evaluations
 * per command (1,147,572 for 43,618 commands). Work per command must
 * not grow with queue depth.
 */
TEST(Perf, DeepQueueReadinessEvals)
{
    const DramWork work = dramWork(kDeepQueueJob);
    ASSERT_GT(work.cmds, 0u);
    RecordProperty("evals", std::to_string(work.evals));
    RecordProperty("cmds", std::to_string(work.cmds));
    EXPECT_LE(static_cast<double>(work.evals) /
                  static_cast<double>(work.cmds),
              3.0)
        << work.evals << " evaluations for " << work.cmds << " commands";
}

/**
 * Queue entries read per DRAM command while building candidates and
 * the nextEventCycle() minima, on the same deep-queue job. A walk of
 * every queued entry on each candidate build and minima refresh read
 * 33.49 entries per command here (1,460,890 in 126,658 walks for
 * 43,618 commands). Per-bank readiness classes with queue-position
 * masks read an entry only to emit it as a candidate, so the count is
 * the candidates offered per command (2.97), not the queue depth.
 */
TEST(Perf, DeepQueueCandidateWork)
{
    const DramWork work = dramWork(kDeepQueueJob);
    ASSERT_GT(work.cmds, 0u);
    RecordProperty("entries", std::to_string(work.entries));
    RecordProperty("cmds", std::to_string(work.cmds));
    EXPECT_LE(static_cast<double>(work.entries) /
                  static_cast<double>(work.cmds),
              4.0)
        << work.entries << " entries read for " << work.cmds
        << " commands";
}

namespace
{

/** Set scans so far across every tag array of @p sys. */
std::uint64_t
cacheLookups(System &sys)
{
    MemHierarchy &hier = sys.hierarchy();
    std::uint64_t lookups = hier.l2().lookups();
    for (CoreId c = 0; c < sys.numCores(); ++c)
        lookups += hier.il1(c).lookups() + hier.dl1(c).lookups();
    return lookups;
}

} // namespace

/**
 * Tag-array set scans in the run phase of the same two jobs (the
 * 58,982 prewarm inserts per job left out). A store hit that scanned
 * its set three times (probe, access, setState), an iL1 fetch that
 * scanned twice (probe, then access), an L2 hit that scanned three
 * times (access, wasPrefetched, clearPrefetched), and an L2 eviction
 * that swept every iL1 for both sub-blocks cost 181,149 scans on
 * these jobs. One scan per access plus the sharer- and range-filtered
 * sweeps must cut that to at most 0.6x.
 */
TEST(Perf, CacheLookups)
{
    const std::uint64_t kMultiScanLookups = 181'149;
    std::uint64_t total = 0;
    for (std::vector<std::string> args : kGatedJobs) {
        args.insert(args.end(), {"--warmup", "0"});
        const exec::JobSpec spec = exec::parseSimCommand(args).spec;
        const std::unique_ptr<System> sys = exec::buildSystem(spec);
        // runSystem() with no warmup, with the prewarm kept apart.
        sys->prewarmCaches();
        const std::uint64_t before = cacheLookups(*sys);
        sys->run(spec.quota, spec.stopAtQuota());
        ASSERT_FALSE(sys->hitCycleLimit()) << args[1];
        total += cacheLookups(*sys) - before;
    }
    RecordProperty("lookups", std::to_string(total));
    EXPECT_LE(static_cast<double>(total), 0.6 * kMultiScanLookups)
        << total << " set scans";
}

#!/usr/bin/env python3
"""Campaign benchmark for critmem: end-to-end and per-layer metrics.

Builds perfbench/ (the critmem libraries plus critmem-campaign-bench)
into .bench_build/, runs one workload as a campaign and prints, as the
last line of standard output, one JSON object:

  {"correct": true, "attempted": 12, "failed": 0,
   "metrics": {"wall_ref_s": {"value": 5.1, "unit": "s"}, ...}}

With --trace 0 the metrics are the end-to-end ones (untraced runs);
with --trace 1 they are the per-layer ones from one traced run.

  python3 perfbench/run.py --workload dram-saturated --seed 1 \\
      --seconds 10 --trace 0

Every job's JSONL record is checked against the digests stored in
perfbench/golden/ for its input seed, and every job must finish with
status ok and every active core at its quota. A traced run must
reproduce each job's stats tree byte for byte. See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "critmem-campaign-bench")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

WORKLOADS = ("dram-saturated", "core-bound", "arena")
# Every job's cfg.seed. Host cost and simulated behaviour swing by
# large factors from one input seed to the next (README.md, "Input
# seed"), so the inputs stay pinned and --seed does not change them.
INPUT_SEED = 1
# Set-up is sampled this many times on top of each measured pass.
SETUP_SAMPLES = 25
# The reference core: one on which critmem-campaign-bench's host-speed
# probe takes this long. Host seconds are scaled to it (README.md,
# "Host-speed probe").
PROBE_REF_S = 0.005
# One run must end within 180 s; the first, which builds, within 900 s.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 840

END_TO_END = {
    "wall_ref_s": "s",
    "sim_cycles_per_ref_s": "cycles/s",
    "variant_slowdown_max": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_ok_frac": "ratio",
    "crit_speedup_gmean": "ratio",
}

PER_LAYER = {
    "cpu.tick_s": "s",
    "cpu.ticks": "count",
    "cpu.ops_committed": "count",
    "crit.lookups": "count",
    "crit.loads_flagged": "count",
    "mem.tick_s": "s",
    "mem.ticks": "count",
    "mem.dram_rejects": "count",
    "mem.dram_accept_frac": "ratio",
    "mem.l2_demand_misses": "count",
    "dram.tick_s": "s",
    "dram.ticks": "count",
    "dram.cmds": "count",
    "dram.enqueue_rejects": "count",
    "sched.s": "s",
    "sched.picks": "count",
    "sched.candidates": "count",
    "sched.cands_per_pick": "count/pick",
    "sched.issue_frac": "ratio",
    "trace.next_s": "s",
    "trace.uops": "count",
    "system.build_s": "s",
    "system.ff_s": "s",
    "system.skip_frac": "ratio",
    "system.other_s": "s",
    "exec.sink_s": "s",
    "exec.journal_s": "s",
    "exec.idle_frac": "ratio",
    "fair.annotate_s": "s",
    "fair.alone_runs": "count",
    "tracing.overhead_s": "s",
    "host.wall_s": "s",
    "host.probe_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_process(cmd, deadline):
    """Run cmd to completion before deadline; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + os.path.basename(cmd[0]))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(out[-4000:] + err[-4000:])
        raise BenchError("%s exited with %d" % (" ".join(cmd[:2]),
                                                  proc.returncode))
    return out


def build(deadline):
    """Configure (once) and build critmem-campaign-bench."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("critmem sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_process(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], deadline)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_process(["cmake", "--build", BUILD_DIR, "--target",
                 "critmem-campaign-bench", "-j", jobs], deadline)


class Runner:
    """Spawns critmem-campaign-bench, each run in a fresh work dir."""

    def __init__(self, workload, input_seed, scale, deadline):
        self.base = [BINARY, "--workload", workload, "--input-seed",
                     str(input_seed), "--scale", scale]
        self.deadline = deadline
        self.count = 0

    def __call__(self, *extra):
        self.count += 1
        work = os.path.join(RUNS_DIR, "%d-%d" % (os.getpid(), self.count))
        cmd = self.base + ["--work-dir", work, "--t0-ns",
                           str(time.monotonic_ns())] + list(extra)
        lines = run_process(cmd, self.deadline).strip().splitlines()
        if not lines:
            raise BenchError("critmem-campaign-bench printed nothing")
        return json.loads(lines[-1])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_variant(jobs):
    """{workload: {variant: job}} over the non-baseline jobs."""
    table = {}
    for job in jobs:
        if job["kind"] != "alone":
            table.setdefault(job["workload"], {})[job["variant"]] = job
    return table


def variant_slowdown_max(jobs):
    """Worst host seconds per simulated cycle of a variant over what
    FR-FCFS takes for the same simulated work. Jobs shorter than about
    a second are too short to time steadily on a shared host, so they
    are pooled: a bundle variant pools over all bundles, each cycle
    priced at FR-FCFS's cost on its own bundle; a parallel app's
    variant stands alone against FR-FCFS pooled over all apps."""
    def pool(table, key, host, cycles):
        pooled = table.setdefault(key, [0.0, 0.0])
        pooled[0] += host
        pooled[1] += cycles

    base = {}
    for job in jobs:
        if job["variant"] == "frfcfs":
            group = job["workload"] if job["kind"] == "bundle" else "apps"
            pool(base, group, job["host_s"], job["cycles"])
    base = {group: host / cycles for group, (host, cycles) in base.items()}
    cost = {}
    for job in jobs:
        if job["kind"] == "bundle" and job["variant"] != "frfcfs":
            pool(cost, job["variant"], job["host_s"],
                 job["cycles"] * base[job["workload"]])
        elif job["kind"] == "parallel" and job["variant"] != "frfcfs":
            pool(cost, job["workload"] + "/" + job["variant"],
                 job["host_s"], job["cycles"] * base["apps"])
    return max(host / baseline for host, baseline in cost.values())


def crit_speedup_gmean(jobs, workload):
    """Geomean over apps (bundles) of CASRAS-Crit's gain over FR-FCFS:
    cycle ratio for parallel apps, weighted-speedup ratio for bundles."""
    ratios = []
    for variants in by_variant(jobs).values():
        base, crit = variants["frfcfs"], variants["casras-crit"]
        if workload == "arena":
            ratios.append(crit["weighted_speedup"] / base["weighted_speedup"])
        else:
            ratios.append(base["cycles"] / crit["cycles"])
    return geomean(ratios)


def job_problems(run, golden):
    """{job name: why its output is wrong} for one campaign."""
    problems = {}
    for job in run["jobs"]:
        name = job["name"]
        if job["status"] != "ok":
            problems[name] = "status " + job["status"]
        elif not job["quota_reached"]:
            problems[name] = "a core missed its quota"
        elif golden is not None and golden.get(name) != job["digest"]:
            problems[name] = "digest %s differs from golden %s" % (
                job["digest"], golden.get(name))
    for name in run.get("trace", {}).get("stats_mismatches", []):
        problems.setdefault(name, "traced stats differ")
    return problems


def golden_path(workload, input_seed):
    return os.path.join(GOLDEN_DIR, "%s.seed%d.json" % (workload, input_seed))


def load_golden(workload, input_seed, scale):
    path = golden_path(workload, input_seed)
    if scale != "full" or not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)["digests"]


def ref_s(job):
    """The job's host seconds scaled to the reference core's speed."""
    return job["host_s"] * PROBE_REF_S / job["probe_s"]


def campaign_s(run):
    """Host seconds from first dispatch to the last record, without the
    probes' time (workers probe side by side)."""
    return run["wall_s"] - run["probe_total_s"] / run["workers"]


def wall_ref_s(run):
    """campaign_s() scaled to the reference core by the pass's own jobs."""
    host = sum(job["host_s"] for job in run["jobs"])
    ref = sum(ref_s(job) for job in run["jobs"])
    return campaign_s(run) * ref / host


def median_jobs(runs):
    """The first pass's jobs, each with its reference-core seconds as
    host_s, the median over all passes. Jobs are deterministic, so only
    their host time differs from pass to pass."""
    jobs = []
    for i, job in enumerate(runs[0]["jobs"]):
        job = dict(job)
        job["host_s"] = statistics.median(ref_s(run["jobs"][i])
                                          for run in runs)
        jobs.append(job)
    return jobs


def end_to_end(runs, setups, workload, failed):
    """End-to-end metrics over the measured passes: per-pass figures and
    per-job host times as medians over the passes, host times scaled to
    the reference core."""
    jobs = median_jobs(runs)
    attempted = sum(len(run["jobs"]) for run in runs)
    metrics = {
        "wall_ref_s": statistics.median(wall_ref_s(run) for run in runs),
        "sim_cycles_per_ref_s": (sum(job["cycles"] for job in jobs) /
                                 sum(job["host_s"] for job in jobs)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "jobs_ok_frac": 1.0 - failed / attempted,
    }
    if not failed:
        metrics["variant_slowdown_max"] = variant_slowdown_max(jobs)
        metrics["crit_speedup_gmean"] = crit_speedup_gmean(jobs, workload)
    return metrics


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(run):
    """Per-layer metrics of one traced run."""
    trace = run["trace"]
    layers = trace["layers"]
    self_s = sum(layers[k] for k in ("cpu_s", "mem_s", "dram_s", "sched_s",
                                     "trace_s", "build_s", "ff_s"))
    untraced_s = sum(job["host_s"] for job in run["jobs"])
    return {
        "cpu.tick_s": layers["cpu_s"],
        "cpu.ticks": layers["cpu_ticks"],
        "cpu.ops_committed": layers["ops_committed"],
        "crit.lookups": layers["crit_lookups"],
        "crit.loads_flagged": layers["crit_flagged"],
        "mem.tick_s": layers["mem_s"],
        "mem.ticks": layers["mem_ticks"],
        "mem.dram_rejects": layers["dram_rejects"],
        "mem.dram_accept_frac": ratio(
            layers["cas_served"],
            layers["cas_served"] + layers["dram_rejects"]),
        "mem.l2_demand_misses": layers["l2_demand_misses"],
        "dram.tick_s": layers["dram_s"],
        "dram.ticks": layers["dram_ticks"],
        "dram.cmds": layers["dram_cmds"],
        "dram.enqueue_rejects": layers["enqueue_rejects"],
        "sched.s": layers["sched_s"],
        "sched.picks": layers["sched_picks"],
        "sched.candidates": layers["sched_candidates"],
        "sched.cands_per_pick": ratio(layers["sched_candidates"],
                                      layers["sched_picks"]),
        "sched.issue_frac": ratio(layers["sched_issues"],
                                  layers["sched_candidates"]),
        "trace.next_s": layers["trace_s"],
        "trace.uops": layers["trace_uops"],
        "system.build_s": layers["build_s"],
        "system.ff_s": layers["ff_s"],
        "system.skip_frac": ratio(layers["cpu_cycles_skipped"],
                                  layers["cpu_cycles"]),
        "system.other_s": layers["job_s"] - self_s,
        "exec.sink_s": trace["exec_sink_s"],
        "exec.journal_s": trace["exec_journal_s"],
        "exec.idle_frac": 1.0 - ratio(untraced_s,
                                      campaign_s(run) * run["workers"]),
        "fair.annotate_s": trace["fair_annotate_s"],
        "fair.alone_runs": trace["fair_alone_runs"],
        "tracing.overhead_s": layers["job_s"] - untraced_s,
        "host.wall_s": campaign_s(run),
        "host.probe_s": statistics.median(job["probe_s"]
                                          for job in run["jobs"]),
    }


def measure(args, deadline):
    """Run the workload; return (metrics, units, runs, problems)."""
    run = Runner(args.workload, args.input_seed, args.scale, deadline)
    golden = load_golden(args.workload, args.input_seed, args.scale)
    if args.trace:
        runs = [run("--trace")]
    else:
        setups = [run("--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        # Passes run back to back until the next one, as long as the
        # median pass so far, would end past the measured time.
        runs = []
        lengths = []
        start = time.monotonic()
        end = min(start + args.seconds, deadline - 5)
        while True:
            pass_start = time.monotonic()
            runs.append(run())
            setups.append(runs[-1]["setup_s"])
            now = time.monotonic()
            lengths.append(now - pass_start)
            if now + statistics.median(lengths) > end:
                break
    problems = [name + ": " + why for one in runs
                for name, why in sorted(job_problems(one, golden).items())]
    if args.trace:
        return per_layer(runs[0]), PER_LAYER, runs, problems
    metrics = end_to_end(runs, setups, args.workload, len(problems))
    return metrics, END_TO_END, runs, problems


def write_golden(args, runs):
    digests = {job["name"]: job["digest"] for job in runs[0]["jobs"]}
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(args.workload, args.input_seed), "w") as f:
        json.dump({"workload": args.workload, "input_seed": args.input_seed,
                   "digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="harness seed; the inputs stay pinned")
    parser.add_argument("--seconds", type=float, default=10,
                        help="repeat the campaign until this much time "
                        "has been measured (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small quotas for the self-test")
    parser.add_argument("--input-seed", type=int, default=INPUT_SEED,
                        help="cfg.seed of every job (default %(default)s)")
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's job digests as the golden "
                        "set for its workload and input seed")
    args = parser.parse_args()

    started = time.monotonic()
    build(started + BUILD_DEADLINE_S)
    # A run that had to build first may use the first-run allowance.
    deadline = max(started + RUN_DEADLINE_S,
                   time.monotonic() + RUN_DEADLINE_S - 60)
    try:
        metrics, units, runs, problems = measure(args, deadline)
    finally:
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    if args.write_golden:
        write_golden(args, runs)
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    result = {
        "correct": not problems and len(metrics) == len(units),
        "attempted": sum(len(run["jobs"]) for run in runs),
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)

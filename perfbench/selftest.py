#!/usr/bin/env python3
"""Self-test of the campaign benchmark at tiny sizes.

Runs every workload twice untraced and twice traced with --scale tiny
(quotas of a few thousand instructions) and checks that:

  - every run prints a well-formed, correct result line;
  - the workloads and metrics are exactly those BENCHMARK.json names,
    each metric with the unit BENCHMARK.json gives it;
  - every deterministic metric (simulated ratios and work counts)
    repeats exactly across the two runs.

  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

import run as bench

ROOT = bench.ROOT
# Host times (unit "s") and these vary run to run; the rest must repeat.
HOST_DEPENDENT = {"sim_cycles_per_ref_s", "variant_slowdown_max",
                  "peak_rss_mb", "exec.idle_frac"}


def result(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py's")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[group]}
        for workload in bench.WORKLOADS:
            first, second = result(workload, trace), result(workload, trace)
            for res in (first, second):
                if not res["correct"] or res["failed"] != 0:
                    failures.append("%s trace=%d: incorrect run" %
                                    (workload, trace))
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                if got != units:
                    failures.append("%s trace=%d: metrics/units %s != %s" %
                                    (workload, trace, got, units))
            for name in units:
                if (name not in HOST_DEPENDENT and units[name] != "s"
                        and first["metrics"][name] !=
                        second["metrics"][name]):
                    failures.append("%s: %s differs across runs" %
                                    (workload, name))
            print("%s trace=%d: %d metrics checked" %
                  (workload, trace, len(units)))
    for failure in failures:
        print("FAIL: " + failure)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload twice in smoke mode (tiny inputs), untraced and traced,
and checks that
  - each run exits 0 and ends with the JSON result line,
  - every metric BENCHMARK.json names is printed, with its unit,
  - the deterministic metrics repeat exactly across the two runs.

Usage (from the repository root): python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_suite", "serve_mix", "prove_mix"]

# Metrics that depend only on the seed (untraced runs).
DETERMINISTIC_E2E = ["ii_over_mii", "maxlive_over_minavg", "decided_share",
                     "certified_share"]
# Traced-run metrics that are ratios of counts rather than counts.
DETERMINISTIC_RATIOS = ["core.placement_yield", "regalloc.regs_over_maxlive",
                        "service.front_hit_ratio", "service.sched_hit_ratio",
                        "service.degraded_share"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke",
           "--out-dir", ".bench_out/smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s trace %d exited %d" %
                             (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, second = run(workload, trace), run(workload, trace)
            tag = "%s trace %d" % (workload, trace)
            for result in (first, second):
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    failures.append("%s: wrong result keys" % tag)
                if not result["correct"]:
                    failures.append("%s: correct is false" % tag)
            for metric in listed:
                name = metric["name"]
                got = first["metrics"].get(name)
                if got is None or got["unit"] != metric["unit"]:
                    failures.append("%s: %s missing or wrong unit" %
                                    (tag, name))
                    continue
                exact = (name in DETERMINISTIC_E2E if trace == 0 else
                         metric["unit"].startswith("count") or
                         name in DETERMINISTIC_RATIOS)
                if exact and got["value"] != second["metrics"][name]["value"]:
                    failures.append("%s: %s differs between runs (%r, %r)" %
                                    (tag, name, got["value"],
                                     second["metrics"][name]["value"]))
            for key in ("attempted", "failed"):
                if first[key] != second[key]:
                    failures.append("%s: %s differs between runs" % (tag, key))
            print("ok   " if not failures else "FAIL ", tag, flush=True)
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload prove_mix --seed 1 --seconds 2 --trace 0 --smoke

The build goes to $CARGO_TARGET_DIR when set, else .bench_build; spans,
per-loop rows and result records go to .bench_out. The last stdout line of
a single-workload run is its JSON result (correct, attempted, failed,
metrics); "--workload all" runs the three workloads in turn and prints a
table.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["paper_suite", "serve_mix", "prove_mix"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds perfbench and schedule_server."""
    log_path = os.path.join(build_dir, "perfbench_build.log")
    # The compiler's temporary files stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
            if subprocess.call(configure, stdout=log, stderr=log,
                               env=env) != 0:
                return None, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "perfbench", "schedule_server"]
        if subprocess.call(compile_cmd, stdout=log, stderr=log,
                           env=env) != 0:
            return None, log_path
    binary = os.path.join(build_dir, "perfbench")
    server = os.path.join(build_dir, "lsms", "examples", "schedule_server")
    if not (os.access(binary, os.X_OK) and os.access(server, os.X_OK)):
        return None, log_path
    return (binary, server), log_path


def run_one(binary, server, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--out-dir", args.out_dir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--out-dir", default=".bench_out")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    built, log_path = build(os.path.abspath(build_dir))
    if built is None:
        sys.stderr.write("perfbench: build failed; see %s\n" % log_path)
        try:
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-30:]))
        except OSError:
            pass
        return 1
    binary, server = built

    if args.workload != "all":
        code, out = run_one(binary, server, args, args.workload)
        sys.stdout.write(out)
        return code

    # Every workload in turn; one table of the metric lines they print.
    table = {}
    for workload in WORKLOADS:
        code, out = run_one(binary, server, args, workload)
        if code != 0:
            sys.stdout.write(out)
            return code
        result = json.loads(out.strip().splitlines()[-1])
        table.setdefault("correct", {})[workload] = str(result["correct"])
        for line in out.splitlines():
            if line.startswith("# ") and " = " in line:
                name, value = line[2:].split(" = ", 1)
                table.setdefault(name, {})[workload] = value
    width = max(len(name) for name in table)
    print("%-*s  %s" % (width, "metric", "  ".join(
        "%-22s" % w for w in WORKLOADS)))
    for name, values in table.items():
        print("%-*s  %s" % (width, name, "  ".join(
            "%-22s" % values.get(w, "-") for w in WORKLOADS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the current directory.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  The exit code
is non-zero when the build fails or any output check fails.

An untraced run is split over PROCESSES fresh processes that each measure
an equal share of --seconds.  A process takes its host-time figures from
the fastest run of each repeated operation (slower runs are host
interference), and the run reports the fastest process for those; every
other metric is the median over the processes.  All processes must
pass their checks and print the same deterministic counts and simulated
metrics.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = 4
# Figures a process takes from its fastest runs, and how the fastest
# process is picked.
BEST = {"setup_s": min, "sim_speed": max, "frames_per_s": max,
        "trials_per_s": max, "trial_ms": min}
# Functions of the seed alone: every process must print the same value.
SIMULATED = ("sim_goodput_Mbps", "sim_rtt_p99_us")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def run_one(cmd, timeout):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    return p.returncode, p.stdout.splitlines()


def run_split(binary, args):
    """Runs PROCESSES processes, each with an equal share of --seconds."""
    seconds = float(option(args, "--seconds", "10"))
    share = ["--seconds", repr(seconds / PROCESSES)]
    rest = []
    skip = False
    for a in args:
        if skip:
            skip = False
        elif a == "--seconds":
            skip = True
        else:
            rest.append(a)
    timeout = RUN_TIMEOUT_S / PROCESSES
    results, counts, code = [], set(), 0
    for _ in range(PROCESSES):
        rc, lines = run_one([binary] + rest + share, timeout)
        for line in lines[:-1]:
            if line.startswith("# counts "):
                counts.add(line)
            else:
                print(line)
        code = code or rc
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            print("perfbench: a process printed no result", file=sys.stderr)
            return 1
    failed = sum(r["failed"] for r in results)
    for line in sorted(counts):
        print(line)
    if len(counts) > 1:
        print("perfbench: processes disagree on the deterministic counts",
              file=sys.stderr)
        failed += 1
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in SIMULATED and len(set(values)) > 1:
            print("perfbench: processes disagree on %s" % name,
                  file=sys.stderr)
            failed += 1
        pick = BEST.get(name, statistics.median)
        metrics[name] = {"value": pick(values), "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed,
                      "metrics": metrics}))
    return code or (1 if failed else 0)


def main():
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    try:
        if option(args, "--trace", "0") == "0":
            return run_split(binary, args)
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

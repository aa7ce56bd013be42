#!/usr/bin/env python3
"""Build and run the host-time benchmark (see hostbench/README.md).

Usage, from the repository root:

    python3 hostbench/run.py --workload sim_inregime --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --workload all      # every workload, one table

The first call configures and builds the simulator libraries plus the
benchmark driver from ../src into $CARGO_TARGET_DIR (default
.bench_build); later calls only re-check the build. Build output goes to
stderr. The last stdout line of a single-workload run is the driver's
JSON result; with --trace 1 it holds the per-layer metrics.

Exits non-zero, without a result line, when the build, the run or its
result fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim_inregime", "capture_bound", "lineup_fleet"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env(build):
    # Keep compiler and runtime scratch files inside the checkout.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configure (once) and build the driver; return its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = child_env(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(out, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "hostbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr) != 0:
            print("hostbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "hostbench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; return its parsed result or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(build_dir()),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = output.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(output)
        print(f"hostbench: {workload} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(output)
        print(f"hostbench: {workload} printed no result line",
              file=sys.stderr)
        return None
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        outcome = run_one(binary, args.workload, args.seed, args.seconds,
                          args.trace)
        if outcome is None:
            return 1
        print(outcome[1], flush=True)
        return 0

    # Every workload, then one table of every metric by name and unit.
    results = {}
    for workload in WORKLOADS:
        print(f"=== {workload} ===", flush=True)
        outcome = run_one(binary, workload, args.seed, args.seconds,
                          args.trace)
        if outcome is None:
            return 1
        results[workload] = outcome[0]
    print("\n%-14s %-28s %18s  %s" % ("workload", "metric", "value", "unit"))
    merged = {}
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print("%-14s %-28s %18.6f  %s" % (workload, name,
                                              metric["value"],
                                              metric["unit"]))
            merged[f"{workload}.{name}"] = metric
        ratio = result["failed"] / result["attempted"]
        print("%-14s %-28s %18.6f  %s (%d of %d jobs, correct=%s)" % (
            workload, "job_fail_ratio", ratio, "ratio", result["failed"],
            result["attempted"], result["correct"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2ebench/README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --workload all [--seed N] [--seconds S]
  python3 e2ebench/run.py --test

The first form runs one workload; its last stdout line is the JSON result
({"correct", "attempted", "failed", "metrics"}). `all` runs every workload
untraced and traced and prints every metric by name with its unit. `--test`
runs the benchmark's own tests.

Everything is built from the sources in this checkout with CMake into
$CARGO_TARGET_DIR (default .bench_build)/e2ebench; a no-op rebuild takes
about a second. Build output goes to stderr. Exit status is 0 only when
every output matched ground truth.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["archive_gz", "replay_tenants", "live_http"]
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    build_dir = os.path.join(target_dir(), "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("error: building the benchmark failed: " + " ".join(cmd))
    return build_dir


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(target_dir(), "e2ebench-work",
                                     "%s-%d" % (workload, os.getpid()))]
    if trace:
        traces = os.path.join(target_dir(), "e2ebench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("error: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout


def run_all(binary, seed, seconds):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(binary, workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                sys.exit("error: %s printed no result" % workload)
            result = json.loads(lines[-1])
            if workload == WORKLOADS[0] and trace == 0:
                print(lines[0])  # the environment line
            combined["correct"] = combined["correct"] and result["correct"] and code == 0
            if trace == 0:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, metric in sorted(result["metrics"].items()):
                print("%-15s %-28s %16.6g %s" % (workload, name, metric["value"], metric["unit"]))
                combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        build_dir = build(["e2ebench_tests"])
        return subprocess.run([os.path.abspath(os.path.join(build_dir, "e2ebench_tests"))],
                              cwd=build_dir).returncode
    if args.workload is None:
        parser.error("--workload or --test is required")
    binary = os.path.join(build(["artemis_e2ebench"]), "artemis_e2ebench")
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, out = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

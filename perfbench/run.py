#!/usr/bin/env python3
"""Build and run the ArkFS repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ together with the ArkFS sources in src/ into .bench_build/perfbench
(later calls only rebuild what changed; build output goes to standard error).
The benchmark's report goes to standard output, and its last line is the JSON
result. With --trace 1 the traced pass's spans are also written to
.bench_build/traces/<workload>-seed<n>.aktr, which tools/arktrace prints.

--selftest builds and runs the benchmark's own tests instead.

Exits non-zero, without printing a result, when the build fails, the run
fails or times out, or the result does not carry exactly the metrics
BENCHMARK.json declares for the requested mode.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("archive", "archive_tiered", "mdtest_hard")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns True on success."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns an error string, or None when `line` is a well-formed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return f"last line is not JSON: {err}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    if result["attempted"] < 1:
        return "no operations attempted"
    expected = declared_metrics(trace)
    if sorted(result["metrics"]) != sorted(expected):
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        return f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}"
    return None


def run(args):
    if not build("arkfs_perfbench"):
        return 2
    cmd = [str(BUILD_DIR / "arkfs_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.aktr")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    report, result = lines[:-1], lines[-1]
    print("\n".join(report), flush=True)
    if done.returncode != 0:
        sys.stderr.write(result + "\n")
        log(f"benchmark exited with code {done.returncode}")
        return 1
    error = check_result(result, args.trace)
    if error:
        sys.stderr.write(result + "\n")
        log(error)
        return 4
    print(result, flush=True)
    return 0


def selftest():
    if not build("perfbench_tests"):
        return 2
    return subprocess.run([str(BUILD_DIR / "perfbench_tests")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be 1..600 and --seed non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

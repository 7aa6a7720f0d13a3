#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

    python3 e2ebench/run.py --workload serve-storm --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --smoke

Run it from the repository root. The first run configures and builds the
benchmark binary, and the library from src/, into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. Build output goes to
stderr. The binary's report goes to stdout, and its last line is one JSON
object: correct, attempted, failed and metrics. This script checks that
line against BENCHMARK.json: every metric the file names for this kind of
run, with its unit, and no other.

--smoke runs every workload at a tiny size, untraced and traced, twice with
one seed, and fails unless every metric is emitted with its unit, the output
checks pass and both runs print the same placement digest.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1  # README.md also records the held-out seed
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to the benchmark")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j4", "--target", "optbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "optbench"


def run_optbench(binary, workload, seed, seconds, trace, size="full"):
    """Runs optbench; returns (stdout lines, parsed result) or exits."""
    scratch = build_dir() / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"optbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("optbench printed no result line")
    return lines, result


def check_result(spec, result, trace):
    """Returns the problems with a result line, as strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} unit {got.get('unit')} "
                            f"!= {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} has no numeric value")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not result["correct"]:
        problems.append("output checks failed")
    return problems


def digest_of(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[1]
    return None


def smoke(spec, binary):
    all_ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = []
            digests = []
            for _ in range(2):
                lines, result = run_optbench(binary, workload, DEFAULT_SEED, 1,
                                           trace, size="smoke")
                problems += check_result(spec, result, trace)
                digests.append(digest_of(lines))
            if digests[0] is None or digests[0] != digests[1]:
                problems.append(f"digests differ: {digests}")
            for p in problems:
                print(f"smoke {workload} trace={trace}: {p}")
            print(f"smoke {workload} trace={trace}: "
                  f"{'FAILED' if problems else 'ok'} digest {digests[0]}")
            all_ok = all_ok and not problems
    return all_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.smoke:
        sys.exit(0 if smoke(spec, build()) else 1)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seed < 0:
        fail("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be >= 1")
    binary = build()
    lines, result = run_optbench(binary, args.workload, args.seed, seconds,
                               args.trace)
    problems = check_result(spec, result, args.trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {problems}")
    print("\n".join(lines[:-1]))
    for p in problems:
        print(f"run.py: {p}")
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()

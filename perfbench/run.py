#!/usr/bin/env python3
"""Layered benchmark of psclib: builds the benchmark package, runs one
workload and prints its metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload batch_host --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own unit tests

Workloads, metrics and bounds are declared in BENCHMARK.json. With
--trace 0 the summary carries every end-to-end metric; with --trace 1 a
traced run carries every per-layer metric. Build output and per-run files
(result file with the environment envelope, spans) go under .bench_build/
in the current directory. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit status is 0 only when every reply matched its reference.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "psc_perfbench")
TESTS = os.path.join(BUILD_DIR, "perfbench_test")
WORKLOAD_TIMEOUT_S = 170


def log(message):
    print(f"# {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the package; returns True when the
    binaries changed."""
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return before is None or os.path.getmtime(BINARY) != before


def run_selftest():
    if not os.path.exists(TESTS):
        log("perfbench_test was not built (GTest not found)")
        return False
    return subprocess.run([TESTS], stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library sources, so a result names the code it
    measured even outside a git checkout."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_rev():
    """HEAD of the checkout, or "unknown" when ROOT is not the top of a
    git work tree (an enclosing repository's HEAD would mislead)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if top.returncode != 0 or head.returncode != 0:
        return "unknown"
    if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        return "unknown"
    return head.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    try:
        rebuilt = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    if args.selftest or rebuilt:
        if not run_selftest():
            log("benchmark self-tests failed")
            return 1
        if args.selftest:
            return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(ROOT, ".bench_build", "results")
    work_dir = os.path.join(ROOT, ".bench_build", "work", f"{tag}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(results, f"{tag}.json")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--result", result_path,
               "--spans", os.path.join(results, f"{tag}.spans.json"),
               "--git-rev", git_rev(), "--source-digest", source_digest()]
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        status = subprocess.run(command, stdout=sys.stderr,
                                timeout=WORKLOAD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {WORKLOAD_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if status not in (0, 3) or not os.path.exists(result_path):
        log(f"{args.workload} failed with status {status}")
        return 1

    with open(result_path) as handle:
        result = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for declared in spec[section]:
        name = declared["name"]
        if name not in result[section]:
            log(f"{args.workload} did not report {name}")
            return 1
        metrics[name] = {"value": result[section][name], "unit": declared["unit"]}
    log(f"envelope {json.dumps(result['envelope'])}")
    log(f"inputs {json.dumps(result['inputs'])}")
    log(f"notes {json.dumps(result['notes'])}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())

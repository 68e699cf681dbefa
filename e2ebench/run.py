#!/usr/bin/env python3
"""Builds bench_e2e from the source tree and runs one workload.

Usage, from the repository root:
  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--spans PATH]
  python3 e2ebench/run.py --smoke [--binary PATH]

The first form configures and builds e2ebench/ into .bench_build/e2ebench
(Release; later runs only re-check the build), then runs the workload with
its store under .bench_run/. The benchmark's last stdout line is the result
JSON; build output goes to stderr.

--smoke runs every workload in BENCHMARK.json on a tiny extract with both
--trace values and checks that each run passes and reports exactly the
metric names and units BENCHMARK.json lists. The bench_e2e_smoke CTest
entry runs it with --binary.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_run")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Returns the bench_e2e path, building it first when needed."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no source tree at {ROOT}: bench_e2e builds from "
            "CMakeLists.txt and src/ beside e2ebench/")
        return None
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                      "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                log(f"build step failed: {' '.join(step)}")
                return None
    return os.path.join(BUILD, "bench_e2e")


def run_bench(binary, args, capture):
    """Runs bench_e2e with its store in a fresh directory under .bench_run.
    Returns (exit code, stdout or None)."""
    store = os.path.join(RUNS, f"store-{os.getpid()}")
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(RUNS, exist_ok=True)
    try:
        done = subprocess.run([binary] + args + [f"--dir={store}"], cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        log(f"bench_e2e exceeded {RUN_TIMEOUT_S} s and was killed")
        return 124, None
    finally:
        shutil.rmtree(store, ignore_errors=True)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            code, out = run_bench(binary, [
                f"--workload={workload['name']}", "--seed=7",
                "--seconds=0.5", f"--trace={trace}", "--scale=smoke"], True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: exit {code}, no result line")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: exit {code}, correct "
                                f"{result['correct']}, failed "
                                f"{result['failed']}")
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                problems.append(f"{label}: metrics differ from "
                                f"BENCHMARK.json (missing {missing}, extra "
                                f"{extra}, or units differ)")
            print(f"{label}: {result['attempted']} operations, "
                  f"{result['failed']} failed, {len(units)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: span file to write")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_e2e, skip the build")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = args.binary or build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    bench_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                  f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.spans:
        bench_args.append(f"--spans={os.path.abspath(args.spans)}")
    code, _ = run_bench(binary, bench_args, False)
    return code


if __name__ == "__main__":
    sys.exit(main())

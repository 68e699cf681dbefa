#!/usr/bin/env python3
"""Compares two sets of bench_e2e results against BENCHMARK.json's bounds.

Usage: python3 e2ebench/compare_runs.py SET1/ SET2/ BENCHMARK.json

Each set is a directory of result files named <workload>-<anything>, each
holding a run's stdout (its last line is the result JSON), e.g.

  python3 e2ebench/run.py --workload serve_read --seed 3 --seconds 10 \\
      --trace 0 > set1/serve_read-3.json

For every (workload, metric) the table gives each set's median and
quartiles (statistics.quantiles, n=4), each set's spread (interquartile
distance over the median) and the change of the second median against the
first. The exit code is 1 when a second median is worse than the first by
more than the metric's bound, or when a set's spread exceeds the bound; a
run that failed also fails the comparison. When one
set holds traced runs, the tracing overhead on the latency median is
printed per workload: the median, over result files with the same name in
both sets, of traced over untraced latency. Metrics without a bound are
listed without a verdict.
"""
import collections
import json
import os
import statistics
import sys


def load_set(directory, workloads):
    """{(workload, metric): {file name: value}} plus the problems found."""
    values = collections.defaultdict(dict)
    problems = []
    for entry in sorted(os.listdir(directory)):
        workload = next((w for w in workloads if entry.startswith(w + "-")),
                        None)
        if workload is None:
            continue
        path = os.path.join(directory, entry)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            problems.append(f"{path}: no result line")
            continue
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{path}: correct={result['correct']} "
                            f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values[(workload, name)][entry] = metric["value"]
    return values, problems


def summary(values):
    """(median, q1, q3, spread) of one set's values for one metric."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    with open(sys.argv[3], encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    first, problems = load_set(sys.argv[1], workloads)
    second, more = load_set(sys.argv[2], workloads)
    problems += more

    print(f"{'workload':13} {'metric':24} {'set1 median [q1, q3]':>34} "
          f"{'set2 median [q1, q3]':>34} {'spread1':>8} {'spread2':>8} "
          f"{'change':>8} {'bound':>6}  verdict")
    for key in sorted(set(first) & set(second)):
        workload, name = key
        m1, a1, b1, s1 = summary(list(first[key].values()))
        m2, a2, b2, s2 = summary(list(second[key].values()))
        change = (m2 - m1) / m1 if m1 else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE"
            elif max(s1, s2) > bound:
                verdict = "SPREAD"
            elif max(s1, s2) > bound / 3:
                verdict = "ok (spread over bound/3)"
            if verdict in ("WORSE", "SPREAD"):
                problems.append(f"{workload} {name}: {verdict}")
        print(f"{workload:13} {name:24} "
              f"{m1:12.5g} [{a1:9.5g}, {b1:9.5g}] "
              f"{m2:12.5g} [{a2:9.5g}, {b2:9.5g}] {s1:8.3f} {s2:8.3f} "
              f"{change:+8.3f} "
              f"{bounds[name]['bound'] if name in bounds else '':>6}  "
              f"{verdict}")

    for workload in workloads:
        for plain, traced in ((first, second), (second, first)):
            untraced = plain.get((workload, "latency_p50_ms"), {})
            with_spans = traced.get((workload, "trace.latency_p50_ms"), {})
            ratios = [with_spans[f] / untraced[f] - 1.0
                      for f in untraced if f in with_spans and untraced[f]]
            if ratios:
                print(f"tracing overhead on {workload} latency p50: "
                      f"{100.0 * statistics.median(ratios):+.1f}% "
                      f"(median of {len(ratios)} pairs)")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-layer self time from a bench_e2e span file.

Usage: python3 e2ebench/spans.py SPANS.jsonl

The span file (bench_e2e --trace=1 --spans=PATH, or run.py --trace 1
--spans PATH) holds one JSON object per line: id, parent (-1 for a root),
thread, name, start_ns, end_ns and request (the cycle or request id, -1 for
set-up and probes). A span's self time is its duration minus the part of
it that its children cover. For each span name this prints the count, the
median duration and the total and share of self time; for each root name
it prints how much of the roots' time their children cover.
"""
import collections
import json
import statistics
import sys


def covered(span, children):
    """Nanoseconds of span's interval covered by the union of children."""
    total, reach = 0, span["start_ns"]
    for child in sorted(children, key=lambda c: c["start_ns"]):
        start = max(child["start_ns"], reach)
        end = min(child["end_ns"], span["end_ns"])
        if end > start:
            total += end - start
            reach = end
    return total


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with open(sys.argv[1], encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    children = collections.defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)

    durations = collections.defaultdict(list)
    self_ns = collections.Counter()
    root_time = collections.Counter()
    root_covered = collections.Counter()
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        kids = covered(span, children[span["id"]])
        durations[span["name"]].append(duration)
        self_ns[span["name"]] += duration - kids
        if span["parent"] < 0 and children[span["id"]]:
            root_time[span["name"]] += duration
            root_covered[span["name"]] += kids

    total_self = sum(self_ns.values())
    print(f"{'span':24} {'count':>8} {'median ms':>11} {'self ms':>11} "
          f"{'self %':>7}")
    for name, self_time in self_ns.most_common():
        print(f"{name:24} {len(durations[name]):8} "
              f"{statistics.median(durations[name]) / 1e6:11.4f} "
              f"{self_time / 1e6:11.2f} {100.0 * self_time / total_self:7.2f}")
    for name in sorted(root_time):
        share = 100.0 * root_covered[name] / root_time[name]
        print(f"children cover {share:.2f}% of {name} time")
    return 0


if __name__ == "__main__":
    sys.exit(main())

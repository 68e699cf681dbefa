#!/usr/bin/env python3
"""Records multi-core speedups from the benches' --json output.

CI runners have more than one core (unlike the original dev container), so
the thread sweeps the benches run are finally meaningful there. This script
reads the BENCH_*.json documents written by bench_release_pipeline,
bench_group_by and bench_workload_release, prints the 1-vs-4-thread (and
1-vs-max) speedup per bench beside the extract's build time and resident
set after generation (dataset.build_ms, dataset.rss_mib) so the numbers
land in the job log and the uploaded artifact, and FAILS only when a
sweep entry reports broken bit-identity — speedups are recorded, never
asserted, to keep CI stable on noisy shared runners.

Usage: tools/record_speedups.py BENCH_foo.json [BENCH_bar.json ...]
"""
import json
import sys


def sweep_of(doc):
    """The thread-sweep entry list, whichever key the bench used."""
    for key in ("sweep", "fused_sweep"):
        if key in doc:
            return doc[key]
    return []


def fmt(value):
    """A dataset number to one decimal, or '?' when the bench left it out
    (or wrote null for a value it could not measure)."""
    return "?" if value is None else f"{value:.1f}"


def main(paths):
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"{path}: unreadable ({error})")
            failed = True
            continue
        bench = doc.get("bench", path)
        dataset = doc.get("dataset", {})
        jobs = dataset.get("jobs", "?")
        footprint = (f"extract built in {fmt(dataset.get('build_ms'))} ms, "
                     f"{fmt(dataset.get('rss_mib'))} MiB resident")
        by_threads = {}
        for entry in sweep_of(doc):
            by_threads[entry.get("threads")] = entry
            if entry.get("identical") is False:
                print(f"{bench}: BIT-IDENTITY BROKEN at "
                      f"{entry.get('threads')} threads")
                failed = True
        if not by_threads:
            print(f"{bench} ({jobs} jobs): no thread sweep in {path}; "
                  f"{footprint}")
            continue
        one = by_threads.get(1)
        four = by_threads.get(4)
        top = by_threads[max(by_threads)]
        parts = [f"{bench} ({jobs} jobs):"]
        if one:
            parts.append(f"1 thread {one['best_ms']:.1f} ms")
        if four and one:
            parts.append(
                f"4 threads {four['best_ms']:.1f} ms "
                f"({one['best_ms'] / four['best_ms']:.2f}x)")
        if top is not four and top is not one and one:
            parts.append(
                f"{max(by_threads)} threads {top['best_ms']:.1f} ms "
                f"({one['best_ms'] / top['best_ms']:.2f}x)")
        parts.append(footprint)
        print("  ".join(parts))
        if doc.get("bit_identical") is False:
            print(f"{bench}: bench reported bit_identical=false")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))

"""Driver: file discovery, the lint pipeline, fixtures, and the CLI.

Pipeline per run: lex every file once (FileContext, memoized), run the
intraprocedural rules, build the symbol index + call graph, run the flow
engine (raw-count-egress / unaccounted-release), then audit annotations
(stale-suppression). --fast skips the interprocedural pass; --timing
reports per-phase wall time; --json=PATH writes the findings as a machine-
readable artifact; --callgraph-dot[=PATH] emits the recovered call graph.
"""
import argparse
import json
import os
import re
import sys
import time

from registry import RULES, FLOW_RULES, SOURCE_EXTS
from moddag import parse_module_dag, transitive_closure
from filectx import FileContext, try_suppress, check_stale_suppressions
from symbols import SymbolIndex
from flow import FlowEngine
import intra

SCAN_DIRS = ("src", "bench", "examples", "tests")
SKIP_DIR_PARTS = {"lint_fixtures", "build"}

# Sentinel for --callgraph-dot without an explicit path.
DEFAULT_DOT = "<build>/callgraph.dot"


def discover_files(root, build_dir):
    files = set()
    cc_json = None
    if build_dir:
        candidate = os.path.join(build_dir, "compile_commands.json")
        if os.path.isfile(candidate):
            cc_json = candidate
    if cc_json:
        with open(cc_json, encoding="utf-8") as handle:
            for entry in json.load(handle):
                path = os.path.normpath(os.path.join(
                    entry.get("directory", ""), entry["file"]))
                if not path.startswith(os.path.abspath(root) + os.sep):
                    continue
                rel = os.path.relpath(path, root)
                if rel.split(os.sep)[0] not in SCAN_DIRS:
                    continue
                if SKIP_DIR_PARTS & set(rel.split(os.sep)):
                    continue
                # A database configured before a source was deleted still
                # names it; the tree walk below finds every live source.
                if not os.path.isfile(path):
                    continue
                files.add(path)
    for sub in SCAN_DIRS:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIR_PARTS]
            for name in filenames:
                if name.endswith(SOURCE_EXTS):
                    files.add(os.path.join(dirpath, name))
    return sorted(files)


def lint_files(root, files, rules, flow_enabled=True, callgraph_path=None,
               timings=None):
    """Runs all engines; returns the combined finding list."""
    def mark(phase, since):
        now = time.monotonic()
        if timings is not None:
            timings[phase] = timings.get(phase, 0.0) + (now - since)
        return now

    t = time.monotonic()
    closure = transitive_closure(parse_module_dag(root))
    checkers = intra.build_checkers(closure)
    ctxs = [FileContext(root, path) for path in files]
    t = mark("lex+parse", t)

    findings = []
    for ctx in ctxs:
        top = ctx.top_dir()
        raw = []
        for rule in rules:
            if rule not in checkers:
                continue
            checker, dirs = checkers[rule]
            if dirs is not None and top not in dirs:
                continue
            ctx.rules_run.add(rule)
            checker(ctx, raw)
        for finding in raw:
            # try_suppress appends a missing-justification finding itself
            # when the annotation has no `-- why`; the original finding
            # then stays active alongside it.
            try_suppress(ctx, finding, findings)
            findings.append(finding)
    t = mark("intra-rules", t)

    flow_active = flow_enabled and any(r in rules for r in FLOW_RULES)
    index = None
    if flow_active or callgraph_path:
        index = SymbolIndex(ctxs, closure)
        t = mark("symbol-index", t)
    if callgraph_path:
        with open(callgraph_path, "w", encoding="utf-8") as handle:
            handle.write(index.to_dot())
    if flow_active:
        engine = FlowEngine(index, closure, {c.rel: c for c in ctxs})
        for ctx in ctxs:
            if "raw-count-egress" in rules and top_of(ctx) in (
                    "src", "examples"):
                ctx.rules_run.add("raw-count-egress")
            if "unaccounted-release" in rules and \
                    ctx.module() in engine.charged_modules:
                ctx.rules_run.add("unaccounted-release")
        ctx_by_rel = {c.rel: c for c in ctxs}
        for finding in engine.run():
            if finding.rule not in rules:
                continue
            ctx = ctx_by_rel.get(finding.path)
            if ctx is not None:
                try_suppress(ctx, finding, findings)
            findings.append(finding)
        t = mark("flow", t)

    if "stale-suppression" in rules:
        for ctx in ctxs:
            ctx.rules_run.add("stale-suppression")
            raw = []
            check_stale_suppressions(ctx, set(rules), raw)
            for finding in raw:
                try_suppress(ctx, finding, findings)
                findings.append(finding)
        t = mark("stale-audit", t)
    return findings


def top_of(ctx):
    return ctx.top_dir()


def write_json(path, files_count, rules, findings):
    active = [f for f in findings if not f.suppressed]
    payload = {
        "tool": "eep_lint",
        "files": files_count,
        "rules": sorted(rules),
        "findings": [f.to_json() for f in findings],
        "counts": {"active": len(active),
                   "suppressed": len(findings) - len(active)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def print_timings(timings):
    total = sum(timings.values())
    for phase, seconds in timings.items():
        print(f"timing: {phase:<14s} {seconds * 1000.0:8.1f} ms")
    print(f"timing: {'total':<14s} {total * 1000.0:8.1f} ms")


def run_lint(args):
    root = os.path.abspath(args.root)
    rules = list(RULES)
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    if args.fast and not args.flow:
        rules = [r for r in rules if r not in FLOW_RULES]
    files = args.paths or discover_files(root, args.build_dir)
    files = [os.path.abspath(f) for f in files]
    timings = {} if args.timing else None
    callgraph_path = resolve_dot_path(args, root)
    findings = lint_files(root, files, rules,
                          flow_enabled=not args.fast or args.flow,
                          callgraph_path=callgraph_path, timings=timings)
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for finding in active:
        print(finding)
    if args.verbose:
        for finding in suppressed:
            print(f"SUPPRESSED {finding} -- {finding.suppression_note}")
    if args.json:
        write_json(args.json, len(files), rules, findings)
    if timings is not None:
        print_timings(timings)
    if callgraph_path:
        print(f"eep_lint: call graph written to {callgraph_path}")
    print(f"eep_lint: {len(files)} files, {len(rules)} rules, "
          f"{len(active)} findings, {len(suppressed)} suppressed")
    return 1 if active else 0


def resolve_dot_path(args, root):
    if not args.callgraph_dot:
        return None
    if args.callgraph_dot != DEFAULT_DOT:
        return os.path.abspath(args.callgraph_dot)
    build = args.build_dir or os.path.join(root, "build")
    os.makedirs(build, exist_ok=True)
    return os.path.join(build, "callgraph.dot")


# ---------------------------------------------------------------------------
# Fixture self-test: tests/lint_fixtures is a miniature repo (its own
# src/*/CMakeLists.txt DAG). Every violate_<rule>[_...].cc must produce at
# least one finding of exactly that rule and nothing else; every
# clean_*.cc must produce none.
# ---------------------------------------------------------------------------
def expected_rule(filename):
    stem = os.path.splitext(os.path.basename(filename))[0]
    if not stem.startswith("violate_"):
        return None
    tail = stem[len("violate_"):]
    tail = re.sub(r"_\d+$", "", tail)
    return tail.replace("_", "-")


def run_fixtures(fixture_root, callgraph_path=None):
    root = os.path.abspath(fixture_root)
    if not os.path.isdir(root):
        print(f"fixture root not found: {root}", file=sys.stderr)
        return 2
    files = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(SOURCE_EXTS):
                files.append(os.path.join(dirpath, name))
    files.sort()
    findings = lint_files(root, files, list(RULES), flow_enabled=True,
                          callgraph_path=callgraph_path)
    by_file = {}
    for finding in findings:
        if not finding.suppressed:
            by_file.setdefault(finding.path, []).append(finding)

    failures = []
    checked = 0
    for path in files:
        rel = os.path.relpath(path, root)
        base = os.path.basename(path)
        got = by_file.get(rel, [])
        rules_hit = {f.rule for f in got}
        if base.startswith("violate_"):
            want = expected_rule(base)
            checked += 1
            if want not in RULES:
                failures.append(f"{rel}: fixture names unknown rule '{want}'")
            elif want not in rules_hit:
                failures.append(
                    f"{rel}: expected a [{want}] finding, got "
                    f"{sorted(rules_hit) or 'none'}")
            elif rules_hit - {want}:
                failures.append(
                    f"{rel}: extra findings beyond [{want}]: "
                    f"{sorted(rules_hit - {want})}")
        elif base.startswith("clean_"):
            checked += 1
            if got:
                failures.append(
                    f"{rel}: expected no findings, got " +
                    "; ".join(str(f) for f in got))
    for failure in failures:
        print(f"FIXTURE FAIL {failure}")
    print(f"eep_lint fixtures: {checked} expectations, "
          f"{len(failures)} failures")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        prog="eep_lint",
        description="determinism/privacy contract linter (see the package "
                    "docstring for the rule catalog)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir holding compile_commands.json")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="run the fixture self-test over DIR")
    parser.add_argument("--flow", action="store_true",
                        help="force the interprocedural flow pass (it is on "
                             "by default; --flow overrides --fast)")
    parser.add_argument("--fast", action="store_true",
                        help="intraprocedural rules only: skip the flow "
                             "pass (raw-count-egress, unaccounted-release)")
    parser.add_argument("--timing", action="store_true",
                        help="print per-phase wall time")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write findings as JSON to PATH")
    parser.add_argument("--callgraph-dot", metavar="PATH", nargs="?",
                        const=DEFAULT_DOT, default=None,
                        help="emit the recovered call graph as Graphviz "
                             "(default path: <build>/callgraph.dot)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print suppressed findings")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to lint (default: discover)")
    args = parser.parse_args()

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule}: {summary}")
        return 0
    if args.fixtures:
        dot = None
        if args.callgraph_dot:
            dot = args.callgraph_dot if args.callgraph_dot != DEFAULT_DOT \
                else os.path.join(os.path.abspath(args.fixtures),
                                  "callgraph.dot")
        return run_fixtures(args.fixtures, callgraph_path=dot)
    if args.root is None:
        args.root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    if args.build_dir is None:
        default_build = os.path.join(args.root, "build")
        if os.path.isfile(os.path.join(default_build,
                                       "compile_commands.json")):
            args.build_dir = default_build
    return run_lint(args)

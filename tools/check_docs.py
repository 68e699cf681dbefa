#!/usr/bin/env python3
"""Markdown link + bench-name checker for the docs CI job.

Scans the repo's markdown files and verifies that every relative link
target exists (anchors are stripped; external http(s)/mailto links are
not fetched), and that every bench binary named in docs/BENCHMARKS.md
corresponds to a bench/bench_*.cc source (the set bench/CMakeLists.txt
registers via its glob) — so a bench rename cannot silently rot the
benchmark book's repro commands. API names are cross-checked too: every
project-namespace-qualified name and every `Type::member` name in
README.md / docs/ARCHITECTURE.md / docs/BENCHMARKS.md code, every inline
span that is one bare UpperCamelCase identifier, and every `->Name(` call
in README's cpp blocks, must still exist in some src/**/*.h, so the docs
cannot advertise deleted API. In the other direction, every NAME.md that
a file under src/, bench/, examples/ or tests/ mentions (the lint
fixtures excepted) must name a markdown file in the repo, so code cannot
point readers at a note that does not exist. Exits nonzero listing each
problem.

Usage: tools/check_docs.py [repo_root]
"""
import os
import re
import sys

# Inline markdown links [text](target), skipping images' leading "!" is
# unnecessary (image targets must exist too).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Fenced code blocks must not contribute false links.
FENCE_RE = re.compile(r"^(```|~~~)")

DOC_GLOBS = ["README.md", "ROADMAP.md", "CHANGES.md", "PAPERS.md",
             "SNIPPETS.md", "ISSUE.md", "PAPER.md"]


def markdown_files(root):
    for name in DOC_GLOBS:
        path = os.path.join(root, name)
        if os.path.exists(path):
            yield path
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for entry in sorted(os.listdir(docs)):
            if entry.endswith(".md"):
                yield os.path.join(docs, entry)


def links_in(path):
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in LINK_RE.finditer(line):
                yield number, match.group(1)


# Bench binary names as they appear in prose and repro commands. Fenced
# code blocks are NOT skipped here — that is where the repro commands live.
BENCH_RE = re.compile(r"\bbench_[a-z0-9_]+")


def check_bench_names(root):
    """Every bench_* name in docs/BENCHMARKS.md must have a bench/*.cc
    source (what the CMake glob registers). Returns (checked, broken)."""
    doc = os.path.join(root, "docs", "BENCHMARKS.md")
    bench_dir = os.path.join(root, "bench")
    if not os.path.exists(doc) or not os.path.isdir(bench_dir):
        return 0, []
    registered = {
        os.path.splitext(entry)[0]
        for entry in os.listdir(bench_dir)
        if entry.startswith("bench_") and entry.endswith(".cc")
    }
    broken = []
    names = set()
    with open(doc, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            for name in BENCH_RE.findall(line):
                # Uppercase artifact names (BENCH_*.json) don't match the
                # lowercase pattern, so only binary names are checked.
                names.add(name)
                if name not in registered:
                    broken.append((os.path.relpath(doc, root), number, name))
    return len(names), broken


# Lint rule ids as docs reference them: `eep-lint:<rule-id>`. Fenced code
# blocks are not skipped — the enforcement matrix uses inline code spans.
LINT_REF_RE = re.compile(r"\beep-lint:([a-z0-9-]+)")


def check_lint_rule_ids(root):
    """Every eep-lint:<id> referenced in docs/ARCHITECTURE.md must exist in
    the RULES registry of tools/eep_lint/registry.py (and suppression
    tokens in its SUPPRESS_TOKENS map count too) — and, in the other
    direction, every registered rule id must be documented in the
    ARCHITECTURE.md enforcement matrix, so a new rule cannot ship without
    its contract being written down. Returns (checked, broken)."""
    doc = os.path.join(root, "docs", "ARCHITECTURE.md")
    lint = os.path.join(root, "tools", "eep_lint", "registry.py")
    if not os.path.exists(doc) or not os.path.exists(lint):
        return 0, []
    with open(lint, encoding="utf-8") as handle:
        lint_src = handle.read()
    known = set()
    rules_only = set()
    for table in ("RULES", "SUPPRESS_TOKENS"):
        m = re.search(table + r"\s*=\s*\{(.*?)\n\}", lint_src, re.S)
        if m:
            ids = set(re.findall(r'"([a-z0-9-]+)"\s*:', m.group(1)))
            known |= ids
            if table == "RULES":
                rules_only |= ids
    broken = []
    refs = set()
    with open(doc, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            for rule in LINT_REF_RE.findall(line):
                refs.add(rule)
                if rule not in known:
                    broken.append((os.path.relpath(doc, root), number, rule))
    for rule in sorted(rules_only - refs):
        broken.append((os.path.relpath(doc, root), 0,
                       f"{rule} (registered but undocumented)"))
    return len(refs), broken


# Failpoint sites as docs reference them: `failpoint:<site/name>`. The
# durability section's inventory table uses inline code spans, so fenced
# blocks are not skipped.
FAILPOINT_REF_RE = re.compile(r"\bfailpoint:([a-z0-9/_-]+)")
# One `{"site/name", bool},` entry per line inside kFailpointInventory —
# failpoint.cc's comment pins that layout for this parser.
FAILPOINT_ENTRY_RE = re.compile(r'\{"([a-z0-9/_-]+)",')


def check_failpoint_inventory(root):
    """Every failpoint:<name> referenced in docs/ARCHITECTURE.md must be a
    registered site in src/common/failpoint.cc's kFailpointInventory —
    and every registered site must appear in the docs' failpoint table,
    so a new injection site cannot ship without its durability coverage
    being written down (and a renamed one cannot leave the docs pointing
    at nothing). Returns (checked, broken)."""
    doc = os.path.join(root, "docs", "ARCHITECTURE.md")
    src = os.path.join(root, "src", "common", "failpoint.cc")
    if not os.path.exists(doc) or not os.path.exists(src):
        return 0, []
    with open(src, encoding="utf-8") as handle:
        src_text = handle.read()
    m = re.search(r"kFailpointInventory\[\]\s*=\s*\{(.*?)\n\};", src_text,
                  re.S)
    registered = set(FAILPOINT_ENTRY_RE.findall(m.group(1))) if m else set()
    broken = []
    refs = set()
    with open(doc, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            for site in FAILPOINT_REF_RE.findall(line):
                refs.add(site)
                if site not in registered:
                    broken.append((os.path.relpath(doc, root), number, site))
    for site in sorted(registered - refs):
        broken.append((os.path.relpath(doc, root), 0,
                       f"{site} (registered but undocumented)"))
    return len(refs), broken


# Serve test sources as the serving-contract enforcement matrix references
# them: `tests/serve*.cc`. Inline code spans inside the matrix table, so
# fenced blocks are not skipped.
SERVE_TEST_REF_RE = re.compile(r"\btests/(serve[a-z0-9_]*)\.cc")


def check_serve_contract(root):
    """Every tests/serve*.cc referenced in docs/ARCHITECTURE.md must exist,
    and every serve test source must appear in the docs — so a serving
    test cannot be renamed away from the contract matrix, and a new one
    cannot ship undocumented. Also checks that CI's TSan thread-sweep
    regex names `serve`, since the contract matrix claims those tests run
    under TSan. Returns (checked, broken)."""
    doc = os.path.join(root, "docs", "ARCHITECTURE.md")
    tests_dir = os.path.join(root, "tests")
    if not os.path.exists(doc) or not os.path.isdir(tests_dir):
        return 0, []
    present = {
        os.path.splitext(entry)[0]
        for entry in os.listdir(tests_dir)
        if entry.startswith("serve") and entry.endswith(".cc")
    }
    broken = []
    refs = set()
    with open(doc, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            for name in SERVE_TEST_REF_RE.findall(line):
                refs.add(name)
                if name not in present:
                    broken.append((os.path.relpath(doc, root), number,
                                   f"tests/{name}.cc"))
    for name in sorted(present - refs):
        broken.append((os.path.relpath(doc, root), 0,
                       f"tests/{name}.cc (exists but absent from the "
                       f"serving-contract matrix)"))
    ci = os.path.join(root, ".github", "workflows", "ci.yml")
    if present and os.path.exists(ci):
        with open(ci, encoding="utf-8") as handle:
            ci_text = handle.read()
        sweeps = re.findall(r'-R "([^"]+)"', ci_text)
        if not any("serve" in regex for regex in sweeps):
            broken.append((os.path.relpath(ci, root), 0,
                           "TSan thread-sweep -R regex does not name serve"))
    return len(refs), broken


# Request-front test sources as the overload-contract matrix references
# them: `tests/service*.cc` and `tests/retry*.cc` ("service" does not
# match the serve pattern above — literal "serve" needs its fifth char to
# be 'e' — so the two matrices are checked independently).
SERVICE_TEST_REF_RE = re.compile(r"\btests/((?:service|retry)[a-z0-9_]*)\.cc")


def check_service_contract(root):
    """Every tests/service*.cc or tests/retry*.cc referenced in
    docs/ARCHITECTURE.md must exist, and every such test source must
    appear in the docs — the overload & degradation contract matrix
    cannot silently rot. Also checks that CI's TSan thread-sweep regex
    names `service`, since the matrix claims the request-front tests run
    under TSan (ctest -R "serve" does NOT match "service_test").
    Returns (checked, broken)."""
    doc = os.path.join(root, "docs", "ARCHITECTURE.md")
    tests_dir = os.path.join(root, "tests")
    if not os.path.exists(doc) or not os.path.isdir(tests_dir):
        return 0, []
    present = {
        os.path.splitext(entry)[0]
        for entry in os.listdir(tests_dir)
        if entry.startswith(("service", "retry")) and entry.endswith(".cc")
    }
    broken = []
    refs = set()
    with open(doc, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            for name in SERVICE_TEST_REF_RE.findall(line):
                refs.add(name)
                if name not in present:
                    broken.append((os.path.relpath(doc, root), number,
                                   f"tests/{name}.cc"))
    for name in sorted(present - refs):
        broken.append((os.path.relpath(doc, root), 0,
                       f"tests/{name}.cc (exists but absent from the "
                       f"overload-contract matrix)"))
    ci = os.path.join(root, ".github", "workflows", "ci.yml")
    if present and os.path.exists(ci):
        with open(ci, encoding="utf-8") as handle:
            ci_text = handle.read()
        sweeps = re.findall(r'-R "([^"]+)"', ci_text)
        if not any("service" in regex for regex in sweeps):
            broken.append((os.path.relpath(ci, root), 0,
                           "TSan thread-sweep -R regex does not name "
                           "service"))
    return len(refs), broken


# Project namespaces whose qualified names the docs spell out in code:
# `release::RunReleaseWorkload`, `serve::Server::Open`, ...
API_NAMESPACES = ("release", "serve", "store", "lodes", "table", "eval",
                  "privacy")
QUALIFIED_RE = re.compile(r"\b(?:%s)::(\w+(?:::\w+)*)"
                          % "|".join(API_NAMESPACES))
# A member spelled through its UpperCamelCase type, with or without a
# namespace in front: `Store::ReadCoded`, `Outcome::kScan`.
TYPE_MEMBER_RE = re.compile(r"\b[A-Z]\w*(?:::\w+)+")
ARROW_CALL_RE = re.compile(r"->\s*(\w+)\s*\(")
# An inline span that is one bare UpperCamelCase identifier, optionally
# called: `GroupByCache`, `RunReleaseWorkload()`. Only names with a
# lowercase letter count, which keeps all-caps file names (`MANIFEST`) out.
BARE_NAME_RE = re.compile(r"([A-Z][A-Za-z0-9]*)(?:\(\))?")
API_DOCS = ("README.md", os.path.join("docs", "ARCHITECTURE.md"),
            os.path.join("docs", "BENCHMARKS.md"))
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
# Comments and string literals, blanked before collecting header names so
# an API that survives only in a comment does not count as declared.
CXX_NON_CODE_RE = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"',
                             re.S)


def header_identifiers(root):
    """Every identifier in the code (not comments or strings) of
    src/**/*.h: the names a doc may legitimately call."""
    names = set()
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for entry in files:
            if entry.endswith(".h"):
                with open(os.path.join(dirpath, entry),
                          encoding="utf-8") as handle:
                    code = CXX_NON_CODE_RE.sub(" ", handle.read())
                names.update(re.findall(r"\b[A-Za-z_]\w*", code))
    return names


def code_in(path):
    """Yields (line, text, info string) for each line of a fenced block,
    and (line, span, None) for each inline code span outside fences."""
    fence = None
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if FENCE_RE.match(stripped):
                fence = None if fence is not None else stripped[3:].strip()
                continue
            if fence is not None:
                yield number, line, fence
            else:
                for span in INLINE_CODE_RE.findall(line):
                    yield number, span, None


def check_api_names(root):
    """Every component of every project-namespace-qualified name and of
    every `Type::member` name in the API_DOCS' code (fenced blocks and
    inline spans), every inline span that is one bare UpperCamelCase
    identifier, and every `->Name(` call in README's fenced cpp blocks,
    must be declared in some src/**/*.h — so a deleted function, method,
    type or enumerator cannot live on in a doc snippet. Returns (checked,
    broken)."""
    declared = header_identifiers(root)
    if not declared:
        return 0, []
    broken = []
    checked = set()
    for rel in API_DOCS:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        for number, code, fence in code_in(path):
            names = [(m.group(0), m.group(1).split("::"))
                     for m in QUALIFIED_RE.finditer(code)]
            names += [(m.group(0), m.group(0).split("::"))
                      for m in TYPE_MEMBER_RE.finditer(code)]
            bare = BARE_NAME_RE.fullmatch(code) if fence is None else None
            if bare and any(c.islower() for c in bare.group(1)):
                names.append((code, [bare.group(1)]))
            if rel == "README.md" and fence == "cpp":
                names += [(m.group(0), [m.group(1)])
                          for m in ARROW_CALL_RE.finditer(code)]
            for spelled, parts in names:
                checked.add(spelled)
                if any(part not in declared for part in parts):
                    broken.append((rel, number, spelled))
    return len(checked), broken


# A markdown file named in code: "docs/ARCHITECTURE.md", "DESIGN.md", ...
MD_MENTION_RE = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")
CODE_DIRS = ("src", "bench", "examples", "tests")
CODE_DIRS_EXEMPT = (os.path.join("tests", "lint_fixtures"),)


def check_code_doc_mentions(root):
    """Every NAME.md mentioned in a file under CODE_DIRS (lint fixtures
    excepted) must exist: as a path from the repo root, or, when it has no
    directory part, as the base name of some markdown file in the repo.
    Returns (checked, broken)."""
    md_names = set()
    for dirpath, dirnames, files in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith(".") and not d.startswith("build")]
        md_names.update(f for f in files if f.endswith(".md"))
    broken = []
    checked = 0
    for top in CODE_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir.startswith(CODE_DIRS_EXEMPT):
                dirnames[:] = []
                continue
            for entry in sorted(files):
                path = os.path.join(dirpath, entry)
                with open(path, encoding="utf-8", errors="replace") as handle:
                    for number, line in enumerate(handle, start=1):
                        for name in MD_MENTION_RE.findall(line):
                            checked += 1
                            if os.path.exists(os.path.join(root, name)):
                                continue
                            if "/" not in name and name in md_names:
                                continue
                            broken.append((os.path.relpath(path, root),
                                           number, name))
    return checked, broken


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    broken = []
    checked = 0
    for path in markdown_files(root):
        for number, target in links_in(path):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure in-page anchor
                continue
            checked += 1
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                broken.append((os.path.relpath(path, root), number, target))
    for path, number, target in broken:
        print(f"BROKEN {path}:{number}: {target}")
    bench_checked, bench_broken = check_bench_names(root)
    for path, number, name in bench_broken:
        print(f"UNKNOWN BENCH {path}:{number}: {name} "
              f"(no bench/{name}.cc for the CMake glob to register)")
    lint_checked, lint_broken = check_lint_rule_ids(root)
    for path, number, rule in lint_broken:
        print(f"UNKNOWN LINT RULE {path}:{number}: eep-lint:{rule} "
              f"(docs and tools/eep_lint/registry.py disagree)")
    fp_checked, fp_broken = check_failpoint_inventory(root)
    for path, number, site in fp_broken:
        print(f"UNKNOWN FAILPOINT {path}:{number}: failpoint:{site} "
              f"(docs and src/common/failpoint.cc's kFailpointInventory "
              f"disagree)")
    serve_checked, serve_broken = check_serve_contract(root)
    for path, number, what in serve_broken:
        print(f"SERVING CONTRACT {path}:{number}: {what}")
    service_checked, service_broken = check_service_contract(root)
    for path, number, what in service_broken:
        print(f"OVERLOAD CONTRACT {path}:{number}: {what}")
    api_checked, api_broken = check_api_names(root)
    for path, number, name in api_broken:
        print(f"UNKNOWN API {path}:{number}: {name} (declared in no "
              f"src/**/*.h)")
    mention_checked, mention_broken = check_code_doc_mentions(root)
    for path, number, name in mention_broken:
        print(f"MISSING NOTE {path}:{number}: {name} (no such markdown "
              f"file in the repo)")
    print(f"checked {checked} relative links in "
          f"{len(list(markdown_files(root)))} markdown files, "
          f"{bench_checked} bench names in docs/BENCHMARKS.md, "
          f"{lint_checked} eep-lint rule ids, {fp_checked} failpoint "
          f"sites, {serve_checked} serve tests and {service_checked} "
          f"request-front tests in docs/ARCHITECTURE.md, {api_checked} "
          f"API names in README.md/docs/ARCHITECTURE.md/docs/BENCHMARKS.md "
          f"code, {mention_checked} markdown names in code; "
          f"{len(broken)} broken links, {len(bench_broken)} unknown benches, "
          f"{len(lint_broken)} unknown lint rules, "
          f"{len(fp_broken)} unknown failpoints, "
          f"{len(serve_broken)} serving-contract mismatches, "
          f"{len(service_broken)} overload-contract mismatches, "
          f"{len(api_broken)} unknown API names, "
          f"{len(mention_broken)} missing notes")
    return 1 if (broken or bench_broken or lint_broken or fp_broken
                 or serve_broken or service_broken or api_broken
                 or mention_broken) else 0


if __name__ == "__main__":
    sys.exit(main())

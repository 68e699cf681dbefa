"""Intraprocedural rules: worker regions, declaration scans, and the seven
single-translation-unit checkers from the original eep_lint."""
import os
import re

from lexing import line_of, match_brace
from registry import Finding

# ---------------------------------------------------------------------------
# Worker regions: lambda bodies handed to the parallel primitives.
# ---------------------------------------------------------------------------
WORKER_CALL_RE = re.compile(
    r"\b(?:RunOnWorkers|RunWorkers)\s*\(|"
    r"\bstd::thread\s*\(|"
    r"\b\w+\.(?:emplace_back|push_back)\s*\(\s*(?=\[)")


class WorkerRegion:
    def __init__(self, start, end, start_line, end_line, captures,
                 by_ref_default, body, body_offset, param_names):
        self.start = start
        self.end = end
        self.start_line = start_line
        self.end_line = end_line
        self.captures = captures          # names captured by reference
        self.by_ref_default = by_ref_default
        self.body = body
        self.body_offset = body_offset    # offset of body text in file code
        self.param_names = param_names


def thread_pool_names(code):
    return set(re.findall(r"std::vector<\s*std::thread\s*>\s+(\w+)", code))


def find_worker_regions(code, starts):
    regions = []
    pools = thread_pool_names(code)
    for m in WORKER_CALL_RE.finditer(code):
        text = m.group(0)
        if "emplace_back" in text or "push_back" in text:
            owner = text.split(".")[0].strip()
            if owner not in pools:
                continue
        # Find the first lambda introducer in the argument list.
        open_paren = code.find("(", m.end() - 1) if not text.rstrip().endswith(
            "(") else m.end() - 1
        if open_paren == -1:
            continue
        args_end = match_brace(code, open_paren)
        lb = code.find("[", open_paren, args_end)
        if lb == -1:
            continue
        cap_end = match_brace(code, lb)  # past ']'
        cap_text = code[lb + 1:cap_end - 1]
        by_ref_default = False
        captures = set()
        for item in cap_text.split(","):
            item = item.strip()
            if item == "&":
                by_ref_default = True
            elif item.startswith("&"):
                captures.add(item[1:].split("=")[0].strip())
        # Optional parameter list.
        j = cap_end
        while j < len(code) and code[j].isspace():
            j += 1
        param_names = set()
        if j < len(code) and code[j] == "(":
            params_close = match_brace(code, j)
            for p in code[j + 1:params_close - 1].split(","):
                toks = re.findall(r"[A-Za-z_]\w*", p)
                if toks:
                    param_names.add(toks[-1])
            j = params_close
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j >= len(code) or code[j] != "{":
            continue
        body_end = match_brace(code, j)
        regions.append(WorkerRegion(
            start=m.start(), end=body_end,
            start_line=line_of(code, m.start(), starts),
            end_line=line_of(code, body_end - 1, starts),
            captures=captures, by_ref_default=by_ref_default,
            body=code[j + 1:body_end - 1], body_offset=j + 1,
            param_names=param_names))
    return regions


DECL_IN_BODY_RE = re.compile(
    r"(?:^|[;{(])\s*(?:const\s+)?(?:[A-Za-z_][\w:]*"
    r"(?:<[^<>;{}]*(?:<[^<>]*>)?[^<>;{}]*>)?)\s*[&*]?\s+"
    r"([A-Za-z_]\w*)\s*(?:=|;|\{|\()", re.M)
BINDING_RE = re.compile(r"auto\s*&?\s*\[([^\]]*)\]")
FOR_DECL_RE = re.compile(r"for\s*\(\s*[\w:<>,\s&*]+?[\s&*]([A-Za-z_]\w*)\s*[=:]")


def body_local_names(region):
    names = set(region.param_names)
    for m in DECL_IN_BODY_RE.finditer(region.body):
        names.add(m.group(1))
    for m in FOR_DECL_RE.finditer(region.body):
        names.add(m.group(1))
    for m in BINDING_RE.finditer(region.body):
        for tok in m.group(1).split(","):
            tok = tok.strip()
            if tok:
                names.add(tok)
    return names


# ---------------------------------------------------------------------------
# Per-file declaration scans.
# ---------------------------------------------------------------------------
def atomic_names(code):
    return set(re.findall(r"std::atomic(?:<[^>]*>|_\w+)\s+(\w+)", code))


RNG_METHODS_MUTATING = (
    "NextUint64|Uniform|FillUniform|UniformInt|Bernoulli|Normal|Exponential|"
    "Laplace|LogNormal|Pareto|TwoSidedGeometric|FillTwoSidedGeometric|"
    "Categorical|Permutation|Fork")


def rng_names(code):
    names = set(re.findall(r"\bRng\s*&?\s+(\w+)\s*[;=({,)]", code))
    names |= set(re.findall(r"\bRng&\s*(\w+)", code))
    # Containers of Rng (std::vector<Rng> trial_rngs) hold per-element
    # streams; element access is judged at the use site, not here.
    names -= set(re.findall(r"<\s*Rng\s*>\s+(\w+)", code))
    return names


def unordered_names(code):
    """Identifiers declared with an unordered container type."""
    names = set()
    for m in re.finditer(r"\bunordered_(?:multi)?(?:map|set)\s*<", code):
        open_angle = m.end() - 1
        depth = 0
        i = open_angle
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            elif code[i] in ";{}":
                break
            i += 1
        if i >= len(code) or code[i] != ">":
            continue
        tail = code[i + 1:i + 200]
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if dm:
            names.add(dm.group(1))
    return names


def queue_like_names(code):
    """Identifiers declared with a queue-like (FIFO/LIFO work-list) type."""
    names = set()
    for m in re.finditer(
            r"\bstd::(?:deque|queue|priority_queue|list)\s*<", code):
        open_angle = m.end() - 1
        depth = 0
        i = open_angle
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            elif code[i] in ";{}":
                break
            i += 1
        if i >= len(code) or code[i] != ">":
            continue
        tail = code[i + 1:i + 200]
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if dm:
            names.add(dm.group(1))
    return names


def float_names(code):
    names = set(re.findall(r"\b(?:double|float)\s+(\w+)\s*[;=,){]", code))
    names |= set(re.findall(r"std::vector<\s*(?:double|float)\s*>\s+(\w+)",
                            code))
    return names


# ---------------------------------------------------------------------------
# Checkers.
# ---------------------------------------------------------------------------
def is_exempt_rng_file(rel):
    rel = rel.replace(os.sep, "/")
    return rel in ("src/common/random.cc", "src/common/random.h")


RNG_SOURCE_RE = re.compile(
    r"\bstd::rand\b|\bstd::random_device\b|\brandom_device\b|"
    r"\bstd::mt19937(?:_64)?\b|\bmt19937(?:_64)?\b|\bsrand\s*\(|"
    r"\bstd::default_random_engine\b|\barc4random\b|"
    r"(?<![\w.])rand\s*\(\s*\)")
TIME_SEED_RE = re.compile(
    r"\bRng\s*(?:\w+\s*)?\(\s*[^)]*(?:\btime\s*\(|system_clock|"
    r"steady_clock|high_resolution_clock)")


def check_rng_source(ctx, findings):
    if is_exempt_rng_file(ctx.rel):
        return
    for m in RNG_SOURCE_RE.finditer(ctx.code):
        line = line_of(ctx.code, m.start(), ctx.starts)
        findings.append(Finding(
            ctx.rel, line, "rng-source",
            f"'{m.group(0).strip()}' bypasses the seeded Rng; all "
            "randomness must flow through common/random.h"))
    for m in TIME_SEED_RE.finditer(ctx.code):
        line = line_of(ctx.code, m.start(), ctx.starts)
        findings.append(Finding(
            ctx.rel, line, "rng-source",
            "Rng seeded from a clock: seeds must be explicit so runs are "
            "reproducible"))


def check_worker_shared_rng(ctx, findings):
    method_re = re.compile(
        r"\b(\w+)\s*\.\s*(%s)\s*\(" % RNG_METHODS_MUTATING)
    for region in ctx.regions:
        locals_ = body_local_names(region)
        for m in method_re.finditer(region.body):
            name = m.group(1)
            if name not in ctx.rngs or name in locals_:
                continue
            if not (region.by_ref_default or name in region.captures):
                continue
            pos = region.body_offset + m.start()
            line = line_of(ctx.code, pos, ctx.starts)
            findings.append(Finding(
                ctx.rel, line, "worker-shared-rng",
                f"shared Rng '{name}' mutated via .{m.group(2)}() inside a "
                "worker region; derive a per-shard stream with "
                f"{name}.Substream(k) instead (.Fork() also advances the "
                "parent and is equally racy)"))


ITER_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*([\w.>-]+?)\s*\)")
ITER_BEGIN_RE = re.compile(r"(?<![\w.>])(\w+)\s*\.\s*c?begin\s*\(")


def check_unordered_iteration(ctx, findings):
    if not ctx.unordered:
        return
    def tail_ident(expr):
        return re.split(r"\.|->", expr)[-1]
    for m in ITER_FOR_RE.finditer(ctx.code):
        name = tail_ident(m.group(1))
        if name in ctx.unordered:
            line = line_of(ctx.code, m.start(), ctx.starts)
            findings.append(Finding(
                ctx.rel, line, "unordered-iteration",
                f"range-for over unordered container '{name}': iteration "
                "order is implementation-defined and must not reach "
                "released tables, grouped counts, or bench/JSON output"))
    for m in ITER_BEGIN_RE.finditer(ctx.code):
        name = m.group(1)
        if name in ctx.unordered:
            line = line_of(ctx.code, m.start(), ctx.starts)
            findings.append(Finding(
                ctx.rel, line, "unordered-iteration",
                f"iterator walk of unordered container '{name}': iteration "
                "order is implementation-defined"))


RELEASE_CALL_RE = re.compile(r"(?:\.|->)\s*(Release|ReleaseBatch)\s*\(")


def check_release_layering(ctx, findings, allowed_modules):
    mod = ctx.module()
    if mod is None or mod in allowed_modules:
        return
    for m in RELEASE_CALL_RE.finditer(ctx.code):
        line = line_of(ctx.code, m.start(), ctx.starts)
        findings.append(Finding(
            ctx.rel, line, "release-layering",
            f"mechanism {m.group(1)}() called from module '{mod}', which "
            "does not link eep_mechanisms; only the accountant-charging "
            f"layers ({', '.join(sorted(allowed_modules))}) may draw "
            "release noise"))


# Mutations are attributed to the ROOT of the access chain: in
# `cell.contributions.push_back(...)` the mutated object is `cell`, so a
# body-local `cell` makes the write private even though `contributions`
# is a member. Plain writes to locals are filtered by body_local_names.
CHAIN = r"(?<![\w.>])([A-Za-z_]\w*)(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*"
MUTATION_RES = [
    (re.compile(CHAIN + r"\s*(?:\[[^\]\n]*\]\s*)+(?:=(?!=)|\+=|-=|\*=|/=|"
                r"\|=|&=|\^=|\+\+|--)"),
     "element write through '{name}[...]'"),
    (re.compile(CHAIN + r"\s*(?:\.|->)\s*(?:push_back|emplace_back|insert|"
                r"clear|resize|assign|erase|pop_back)\s*\("),
     "container mutation rooted at '{name}'"),
    (re.compile(CHAIN + r"\s*(?:\+=|-=|\*=|/=|\|=|&=|\^=)"),
     "compound assignment rooted at '{name}'"),
    (re.compile(r"(?:\+\+|--)\s*" + CHAIN), "increment rooted at '{name}'"),
    (re.compile(CHAIN + r"\s*(?:\+\+|--)(?!\w)"), "increment of '{name}'"),
]


def check_worker_shared_mutation(ctx, findings):
    for region in ctx.regions:
        locals_ = body_local_names(region)
        seen = set()
        for rex, what in MUTATION_RES:
            for m in rex.finditer(region.body):
                name = m.group(1)
                if name in locals_ or name in ctx.atomics:
                    continue
                if "+=" in m.group(0) and name in ctx.floats:
                    continue  # worker-float-accumulation owns this site

                if not (region.by_ref_default or name in region.captures):
                    continue
                pos = region.body_offset + m.start()
                line = line_of(ctx.code, pos, ctx.starts)
                if (name, line) in seen:
                    continue
                seen.add((name, line))
                findings.append(Finding(
                    ctx.rel, line, "worker-shared-mutation",
                    what.format(name=name) + " on captured state inside a "
                    "worker region; make it atomic, thread-local, or "
                    "annotate the disjoint-write partition "
                    "(// eep-lint: disjoint-writes -- <why>)"))


FLOAT_ACCUM_RE = re.compile(r"\b(\w+)(?:\s*\[[^\]\n]*\])?\s*\+=")


def check_worker_float_accumulation(ctx, findings):
    for region in ctx.regions:
        locals_ = body_local_names(region)
        for m in FLOAT_ACCUM_RE.finditer(region.body):
            name = m.group(1)
            if name not in ctx.floats or name in locals_:
                continue
            if not (region.by_ref_default or name in region.captures):
                continue
            pos = region.body_offset + m.start()
            line = line_of(ctx.code, pos, ctx.starts)
            findings.append(Finding(
                ctx.rel, line, "worker-float-accumulation",
                f"float accumulation into '{name}' inside a worker region: "
                "FP addition is not associative, so worker merge order "
                "would leak into results; accumulate per-worker partials "
                "and merge in a fixed serial order "
                "(// eep-lint: blessed-merge -- <why> if this site is one)"))


# Matches both the stream/FILE APIs themselves and `#include <fstream>`
# (the include is as reliable a tell as a use, and survives sanitize()
# since angle-bracket includes are not string literals).
RAW_FILE_IO_RE = re.compile(
    r"\b(?:std::)?[io]?fstream\b|\bfopen\s*\(|\bfreopen\s*\(|::open\s*\(")


def check_raw_file_io(ctx, findings):
    rel = ctx.rel.replace(os.sep, "/")
    if rel.startswith("src/common/"):
        return  # the file layer itself and its peers own the raw syscalls
    for m in RAW_FILE_IO_RE.finditer(ctx.code):
        line = line_of(ctx.code, m.start(), ctx.starts)
        findings.append(Finding(
            ctx.rel, line, "raw-file-io",
            f"'{m.group(0).strip()}' bypasses the Status-returning file "
            "layer (common/file.h): open/write/fsync failures go unreported "
            "and failpoints cannot reach this I/O; route it through Env "
            "(// eep-lint: suppress(raw-file-io) -- <why> if it must stay "
            "raw)"))


QUEUE_GROWTH_RE = re.compile(
    r"(?<![\w.>])(\w+)\s*\.\s*(push_back|emplace_back|push_front|"
    r"emplace_front|push|emplace|insert)\s*\(")


def check_unbounded_queue(ctx, findings):
    if not ctx.queues:
        return
    for m in QUEUE_GROWTH_RE.finditer(ctx.code):
        name = m.group(1)
        if name not in ctx.queues:
            continue
        # A .size() comparison on the same name anywhere in the TU (paired
        # header included) is taken as the capacity gate for every push.
        guard = re.compile(
            r"\b%(n)s\s*\.\s*size\s*\(\s*\)\s*(?:[<>]=?|==|!=)|"
            r"(?:[<>]=?|==|!=)\s*%(n)s\s*\.\s*size\s*\(" %
            {"n": re.escape(name)})
        if guard.search(ctx.decl_code):
            continue
        line = line_of(ctx.code, m.start(), ctx.starts)
        findings.append(Finding(
            ctx.rel, line, "unbounded-queue",
            f"'{name}.{m.group(2)}()' grows a queue-like container with no "
            ".size() capacity check in this translation unit: an unbounded "
            "work queue turns overload into memory exhaustion instead of "
            "load shedding; gate the push on a capacity bound or annotate "
            "the bound (// eep-lint: bounded-by -- <why>)"))


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([\w./-]+)"', re.M)


def check_module_layering(ctx, findings, closure):
    mod = ctx.module()
    if mod is None or mod not in closure:
        return
    allowed = closure[mod] | {mod}
    # Include paths are string literals, which sanitize() blanks — scan the
    # raw text instead (it is position-identical to the sanitized code) and
    # use the sanitized code only to drop commented-out includes.
    for m in INCLUDE_RE.finditer(ctx.text):
        if "#" not in ctx.code[m.start():m.end()]:
            continue
        target = m.group(1).split("/")[0]
        if target in closure and target not in allowed:
            line = line_of(ctx.code, m.start(), ctx.starts)
            findings.append(Finding(
                ctx.rel, line, "module-layering",
                f"module '{mod}' includes \"{m.group(1)}\" but does not "
                f"depend on '{target}' in the src/*/CMakeLists.txt DAG "
                f"(allowed: {', '.join(sorted(allowed))})"))


# Rule id -> (checker, set of top-level dirs it applies to; None = all).
def build_checkers(closure):
    allowed_release = {m for m, deps in closure.items()
                       if "mechanisms" in deps} | {"mechanisms"}

    return {
        "rng-source": (check_rng_source, None),
        "worker-shared-rng": (check_worker_shared_rng, None),
        "unordered-iteration": (check_unordered_iteration, {"src", "bench"}),
        "release-layering": (
            lambda ctx, f: check_release_layering(ctx, f, allowed_release),
            {"src"}),
        "worker-shared-mutation": (check_worker_shared_mutation, None),
        "worker-float-accumulation": (check_worker_float_accumulation, None),
        "module-layering": (
            lambda ctx, f: check_module_layering(ctx, f, closure), {"src"}),
        "raw-file-io": (check_raw_file_io, {"src"}),
        "unbounded-queue": (check_unbounded_queue, {"src", "bench"}),
    }

"""Interprocedural taint dataflow over the symbol index.

Per-function summaries (does the return value carry raw counts, which
parameters flow to an output sink, where does the function draw release
noise, where does it charge the accountant) are computed by a lexical
abstract interpretation of each body and composed to a global fixpoint
over the call graph — the "precomputed summaries, incrementally composed"
style of the FO+MOD line of work, applied to privacy flows.

Label domain: "SRC" (a raw, un-noised count or a confidential column) and
"P<i>" (value derived from parameter i — resolved against the actual
arguments at each callsite). Taint propagates through member chains
unless the final member is on the benign allowlist (schema/key/metadata
accessors yield nothing confidential); a mechanism Release/ReleaseBatch
(or the legacy SDL ReleaseCell infusion) is the sanitizer; a
`// eep-lint: declassify -- why` annotation is a line-scoped barrier for
aggregate error statistics whose use is accepted policy.
"""
import re

from lexing import match_brace
from registry import Finding
from symbols import CALL_RE, CPP_KEYWORDS

# Types whose values are confidential by construction.
SOURCE_TYPES = {
    "GroupedCounts", "GroupedCell", "EstabContribution", "ContributionSpan",
    "MarginalQuery", "MarginalCell", "LodesDataset",
}
SOURCE_TYPE_RE = re.compile(r"\b(%s)\b" % "|".join(sorted(SOURCE_TYPES)))

# Functions whose name alone marks the return value as raw counts
# (key->count maps built by the roll-up/group-by cache layers).
SOURCE_NAME_RE = re.compile(r"KeyCounts$")

# Member accesses that yield schema/key/metadata, never count values.
BENIGN_MEMBERS = {
    "spec", "codec", "key", "keys", "place_code", "estab_id", "name",
    "names", "schema", "header", "AllColumns", "Describe", "ok", "status",
    "size", "empty", "WorkerDomainSize", "ToString", "columns", "places",
    "attrs", "label", "labels", "description", "num_cells",
}

SANITIZER_RE = re.compile(r"(?:\.|->)\s*(Release|ReleaseBatch|ReleaseCell)"
                          r"\s*\(")
CHARGE_RE = re.compile(r"(?:\.|->)\s*(Charge\w*)\s*\(")
# Sink calls by name; WriteCsv is receiver-checked (a tainted table object
# writing itself out).
SINK_FUNCS = {"WriteRow", "WriteHeader", "WriteCsvFile", "AddRow",
              "WriteCsv"}
STDOUT_RE = re.compile(
    r"\b(?:std::)?printf\s*\(|\bfprintf\s*\(\s*stdout\s*,|\bputs\s*\(|"
    r"\b(?:std::)?cout\b")
RETURN_RE = re.compile(r"^\s*return\b(.*)$", re.S)
FOR_RANGE_RE = re.compile(
    r"^\s*for\s*\(\s*(.*?)\s*(?<!:):(?!:)\s*(.*)\)\s*$", re.S)
GROW_RE = re.compile(
    r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|insert|assign|Add)"
    r"\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class Summary:
    def __init__(self):
        self.returns = frozenset()
        self.sink_params = frozenset()

    def key(self):
        return (self.returns, self.sink_params)


def is_source_type(type_text):
    return bool(SOURCE_TYPE_RE.search(type_text or ""))


def split_statements(body, base):
    """(text, absolute position) chunks between ';' '{' '}' boundaries."""
    stmts = []
    last = 0
    for i, c in enumerate(body):
        if c in ";{}":
            seg = body[last:i]
            if seg.strip():
                stmts.append((seg, base + last))
            last = i + 1
    seg = body[last:]
    if seg.strip():
        stmts.append((seg, base + last))
    return stmts


def split_args(text):
    """Top-level comma split of a call argument list, with offsets."""
    parts = []
    depth = 0
    last = 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append((text[last:i], last))
            last = i + 1
    if text[last:].strip():
        parts.append((text[last:], last))
    return parts


def chain_members(text, pos):
    """From the end of a root identifier at `pos`, collect the member names
    of the access chain, skipping balanced () and [] groups."""
    members = []
    i = pos
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i < n and text[i] in "([":
            i = match_brace(text, i)
            continue
        if i < n and text[i] == ".":
            i += 1
        elif i + 1 < n and text[i] == "-" and text[i + 1] == ">":
            i += 2
        else:
            break
        while i < n and text[i].isspace():
            i += 1
        m = IDENT_RE.match(text, i)
        if not m:
            break
        members.append(m.group(0))
        i = m.end()
    return members, i


class FlowEngine:
    def __init__(self, index, closure, ctx_by_rel):
        self.index = index
        self.closure = closure
        self.ctx_by_rel = ctx_by_rel
        self.summaries = {fn: Summary() for fn in index.functions}
        # Modules whose link closure includes mechanisms must account for
        # every noise draw; the mechanism layer itself only implements them.
        self.charged_modules = {m for m, deps in closure.items()
                                if "mechanisms" in deps}
        self._stmt_cache = {}
        # Release/charge sites are purely lexical; scanned once per body.
        self._release_sites = {}   # fn -> [(pos, kind)]
        self._charge_sites = {}    # fn -> [pos]
        for fn in index.functions:
            self._release_sites[fn] = [
                (fn.body_offset + m.start(), m.group(1))
                for m in SANITIZER_RE.finditer(fn.body)
                if m.group(1) in ("Release", "ReleaseBatch")]
            self._charge_sites[fn] = [
                fn.body_offset + m.start()
                for m in CHARGE_RE.finditer(fn.body)]

    # -- per-function interpretation ------------------------------------

    def _statements(self, fn):
        cached = self._stmt_cache.get(fn)
        if cached is None:
            cached = split_statements(fn.body, fn.body_offset)
            self._stmt_cache[fn] = cached
        return cached

    def _has_declassify(self, fn, abs_pos, length=1):
        ctx = fn.ctx
        first = ctx.line_at(abs_pos)
        last = ctx.line_at(min(abs_pos + max(length - 1, 0),
                               len(ctx.code) - 1))
        for line in range(first, last + 1):
            annot = ctx.annotations.get(line)
            if annot and annot[2] == "declassify":
                return line
        return None

    def _mark_declassified(self, fn, line, labels):
        if labels:
            fn.ctx.used_annotations.add(line)

    def _candidates(self, fn, short):
        out = []
        for target in self.index.by_name.get(short, ()):
            if target is not fn and self.index._visible(fn, target):
                out.append(target)
        return out

    def eval_expr(self, fn, taint, text, base, emit=None):
        """Label set of an expression. Consumes sanitizer and resolved-call
        spans so their arguments don't leak into the generic chain scan."""
        labels = set()
        consumed = text
        # Sanitizers clear whatever flows through them.
        while True:
            m = SANITIZER_RE.search(consumed)
            if not m:
                break
            span_end = match_brace(consumed, consumed.find("(", m.end() - 1))
            consumed = consumed[:m.start()] + " " * (span_end - m.start()) + \
                consumed[span_end:]
        # Resolved calls: replace with the callee summary applied to the
        # actual arguments.
        while True:
            matched = None
            for m in CALL_RE.finditer(consumed):
                short = m.group(2)
                if short in CPP_KEYWORDS:
                    continue
                cands = self._candidates(fn, short)
                if m.group(1) == "::" and cands:
                    # `Qualifier::name(...)`: bind only to definitions of
                    # that class — a short-name union over every class's
                    # overload (e.g. every factory named Create) would smear
                    # one class's param transfer onto another's callsites.
                    qm = re.search(r"([A-Za-z_]\w*)\s*$",
                                   consumed[:m.start()])
                    if qm:
                        qual = qm.group(1)
                        in_class = [t for t in cands if "::" in t.qual and
                                    t.qual.split("::")[-2] == qual]
                        if in_class:
                            cands = in_class
                        else:
                            # Qualifier is a namespace: free functions only.
                            cands = [t for t in cands if "::" not in t.qual]
                if cands:
                    matched = (m, cands)
                    break
            if not matched:
                break
            m, cands = matched
            open_paren = consumed.find("(", m.end() - 1)
            span_end = match_brace(consumed, open_paren)
            args = split_args(consumed[open_paren + 1:span_end - 1])
            for target in cands:
                summary = self.summaries[target]
                ret = summary.returns
                if "SRC" in ret or is_source_type(target.ret_type) or \
                        SOURCE_NAME_RE.search(target.name):
                    labels.add("SRC")
                for label in ret:
                    if label.startswith("P"):
                        i = int(label[1:])
                        if i < len(args):
                            labels |= self.eval_expr(
                                fn, taint, args[i][0],
                                base + open_paren + 1 + args[i][1])
                # Tainted argument handed to a parameter the callee sinks.
                for i in sorted(summary.sink_params):
                    if i < len(args):
                        arg_labels = self.eval_expr(
                            fn, taint, args[i][0],
                            base + open_paren + 1 + args[i][1])
                        self._note_sink(fn, taint, arg_labels,
                                        base + m.start(), emit,
                                        f"argument {i + 1} of "
                                        f"{target.name}()")
            consumed = consumed[:m.start()] + " " * (span_end - m.start()) + \
                consumed[span_end:]
        # Generic member-chain scan of whatever is left.
        for m in IDENT_RE.finditer(consumed):
            root = m.group(0)
            if root in CPP_KEYWORDS:
                continue
            prev = consumed[m.start() - 1] if m.start() else ""
            if prev and prev in ".:" or (prev == ">" and m.start() >= 2 and
                                         consumed[m.start() - 2] == "-"):
                continue  # member or qualified name, not a chain root
            root_labels = taint.get(root)
            if not root_labels:
                continue
            members, _end = chain_members(consumed, m.end())
            if members and members[-1] in BENIGN_MEMBERS:
                continue
            labels |= root_labels
        return labels

    def _note_sink(self, fn, taint, labels, abs_pos, emit, what):
        """A set of labels reached a sink at abs_pos."""
        if not labels:
            return
        summary = self.summaries[fn]
        params = {int(l[1:]) for l in labels if l.startswith("P")}
        if params - set(summary.sink_params):
            summary.sink_params = frozenset(set(summary.sink_params) | params)
        if "SRC" not in labels or emit is None:
            return
        if fn.top not in ("src", "examples"):
            return
        ctx = fn.ctx
        line = ctx.line_at(abs_pos)
        declassified = self._has_declassify(fn, abs_pos)
        if declassified is not None:
            self._mark_declassified(fn, declassified, labels)
            return
        emit.append(Finding(
            ctx.rel, line, "raw-count-egress",
            f"raw (un-noised) count reaches an output sink ({what}); route "
            "it through a mechanisms:: Release/ReleaseBatch, or annotate "
            "the site (// eep-lint: declassify -- <why> for accepted "
            "aggregate statistics, // eep-lint: custodian-only -- <why> "
            "for data-custodian tooling)"))

    def analyze(self, fn, emit=None):
        """One pass over fn's body; updates the summary. Returns True when
        the summary changed."""
        taint = {}
        for i, (ptype, pname) in enumerate(fn.params):
            if not pname:
                continue
            labels = {f"P{i}"}
            if is_source_type(ptype):
                labels.add("SRC")
            taint[pname] = frozenset(labels)
        # Locals declared with a source type are confidential wherever the
        # value came from.
        for m in re.finditer(
                r"\b(?:const\s+)?[\w:]*(%s)\b[\w:<>,\s]*?[&*\s]"
                r"([A-Za-z_]\w*)\s*[;={(,]" % "|".join(sorted(SOURCE_TYPES)),
                fn.body):
            taint[m.group(2)] = frozenset(
                taint.get(m.group(2), frozenset()) | {"SRC"})
        summary = self.summaries[fn]
        before = summary.key()
        returns = set(summary.returns)

        statements = self._statements(fn)
        for _round in range(4):
            changed = False
            for text, pos in statements:
                changed |= self._apply_statement(fn, taint, text, pos,
                                                 returns, emit=None)
            if not changed:
                break
        if emit is not None:
            for text, pos in statements:
                self._apply_statement(fn, taint, text, pos, returns,
                                      emit=emit)
            self._scan_sinks(fn, taint, emit)
        else:
            self._scan_sinks(fn, taint, emit=None)
        summary.returns = frozenset(returns)
        return summary.key() != before

    def _apply_statement(self, fn, taint, text, pos, returns, emit):
        changed = False
        declassify_line = self._has_declassify(fn, pos, len(text))

        sm = SANITIZER_RE.search(text)
        if sm:
            # Out-params of a release batch come back sanitized.
            open_paren = text.find("(", sm.end() - 1)
            span_end = match_brace(text, open_paren)
            for am in re.finditer(r"&\s*([A-Za-z_]\w*)",
                                  text[open_paren:span_end]):
                if taint.get(am.group(1)):
                    taint[am.group(1)] = frozenset()
                    changed = True
            lhs = self._assign_lhs(text[:sm.start()])
            if lhs and taint.get(lhs):
                taint[lhs] = frozenset()
                changed = True
            return changed

        cm = CHARGE_RE.search(text)
        if cm:
            if emit is not None:
                bare = re.match(
                    r"\s*(?:\(\s*void\s*\)\s*)?[A-Za-z_][\w.>-]*"
                    r"(?:\.|->)\s*Charge\w*\s*\(", text)
                if bare and not text[:bare.start()].strip():
                    end = match_brace(text, text.find("(", bare.end() - 1))
                    if not text[end:].strip():
                        emit.append(Finding(
                            fn.ctx.rel, fn.ctx.line_at(pos + cm.start()),
                            "unaccounted-release",
                            f"status of {cm.group(1)}() is discarded: a "
                            "refused charge must stop the release, so the "
                            "Status has to be checked (EEP_RETURN_NOT_OK "
                            "or an explicit .ok() branch)"))
            return changed

        rm = RETURN_RE.match(text)
        if rm:
            if declassify_line is not None:
                self._mark_declassified(
                    fn, declassify_line,
                    self.eval_expr(fn, taint, rm.group(1), pos))
                return changed
            new = self.eval_expr(fn, taint, rm.group(1), pos, emit)
            if new - set(returns):
                returns |= new
                changed = True
            return changed

        fr = FOR_RANGE_RE.match(text)
        if fr:
            decl_idents = IDENT_RE.findall(fr.group(1))
            if decl_idents:
                name = decl_idents[-1]
                labels = self.eval_expr(fn, taint, fr.group(2),
                                        pos + fr.start(2))
                if declassify_line is not None:
                    self._mark_declassified(fn, declassify_line, labels)
                    labels = set()
                if labels - set(taint.get(name, frozenset())):
                    taint[name] = frozenset(
                        set(taint.get(name, frozenset())) | labels)
                    changed = True
            return changed

        eq = self._find_assign(text)
        if eq is not None:
            lhs_text, rhs_text = text[:eq[0]], text[eq[0] + eq[1]:]
            root = self._assign_lhs(lhs_text)
            if root:
                labels = self.eval_expr(fn, taint, rhs_text,
                                        pos + eq[0] + eq[1], emit)
                if declassify_line is not None:
                    self._mark_declassified(fn, declassify_line, labels)
                    labels = set()
                member_or_compound = ("." in lhs_text or "->" in lhs_text
                                      or eq[1] == 2)
                if member_or_compound:
                    merged = frozenset(
                        set(taint.get(root, frozenset())) | labels)
                else:
                    merged = frozenset(labels)
                if merged != taint.get(root, frozenset()):
                    taint[root] = merged
                    changed = True
            return changed

        gm = GROW_RE.search(text)
        if gm:
            root_m = None
            for m in IDENT_RE.finditer(text[:gm.start()]):
                root_m = m
            if root_m:
                root = text[:gm.start()][root_m.start():root_m.end()]
                open_paren = text.find("(", gm.end() - 1)
                span_end = match_brace(text, open_paren)
                labels = self.eval_expr(
                    fn, taint, text[open_paren + 1:span_end - 1],
                    pos + open_paren + 1, emit)
                if declassify_line is not None:
                    self._mark_declassified(fn, declassify_line, labels)
                    labels = set()
                if labels - set(taint.get(root, frozenset())):
                    taint[root] = frozenset(
                        set(taint.get(root, frozenset())) | labels)
                    changed = True
        return changed

    @staticmethod
    def _find_assign(text):
        """(offset, operator length) of a top-level = or compound-assign."""
        depth = 0
        for i, c in enumerate(text):
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif depth == 0 and c == "=":
                prev = text[i - 1] if i else ""
                nxt = text[i + 1] if i + 1 < len(text) else ""
                if nxt == "=" or (prev and prev in "=!<>"):
                    continue
                if prev and prev in "+-*/|&^":
                    return (i - 1, 2)
                return (i, 1)
        return None

    @staticmethod
    def _assign_lhs(lhs_text):
        """Root identifier being assigned: the root of the last access
        chain on the left-hand side."""
        no_sub = re.sub(r"\[[^\[\]]*\]", "", lhs_text)
        chains = re.findall(
            r"(?<![\w.>])([A-Za-z_]\w*)(?:\s*(?:\.|->)\s*[A-Za-z_]\w*"
            r"(?:\(\s*\))?)*\s*$", no_sub.rstrip())
        return chains[-1] if chains else None

    # -- sinks -----------------------------------------------------------

    def _stdout_eligible(self, fn):
        return fn.top == "examples" or fn.module in ("release", "eval")

    def _scan_sinks(self, fn, taint, emit):
        body = fn.body
        for m in CALL_RE.finditer(body):
            short = m.group(2)
            if short not in SINK_FUNCS:
                continue
            open_paren = body.find("(", m.end() - 1)
            span_end = match_brace(body, open_paren)
            for arg, off in split_args(body[open_paren + 1:span_end - 1]):
                labels = self.eval_expr(fn, taint, arg,
                                        fn.body_offset + open_paren + 1 + off)
                self._note_sink(fn, taint, labels,
                                fn.body_offset + m.start(), emit,
                                f"argument of {short}()")
            if m.group(1) in (".", "->"):
                # Receiver of a method sink (table.WriteCsv(path)).
                recv = self._receiver_before(body, m.start())
                if recv:
                    labels = self.eval_expr(fn, taint, recv,
                                            fn.body_offset + m.start())
                    self._note_sink(fn, taint, labels,
                                    fn.body_offset + m.start(), emit,
                                    f"receiver of .{short}()")
        if not self._stdout_eligible(fn):
            return
        for m in STDOUT_RE.finditer(body):
            if "cout" in m.group(0):
                for text, pos in self._statements(fn):
                    if pos <= fn.body_offset + m.start() < pos + len(text):
                        labels = self.eval_expr(fn, taint, text, pos)
                        self._note_sink(fn, taint, labels, pos, emit,
                                        "operand of std::cout <<")
                        break
                continue
            open_paren = body.find("(", m.end() - 1)
            if open_paren == -1:
                continue
            span_end = match_brace(body, open_paren)
            labels = self.eval_expr(fn, taint,
                                    body[open_paren + 1:span_end - 1],
                                    fn.body_offset + open_paren + 1)
            self._note_sink(fn, taint, labels,
                            fn.body_offset + m.start(), emit,
                            "argument of printf-family stdout write")

    @staticmethod
    def _receiver_before(body, call_pos):
        """Access chain immediately preceding a method sink call."""
        i = call_pos - 1
        while i >= 0 and body[i].isspace():
            i -= 1
        end = i + 1
        depth = 0
        while i >= 0:
            c = body[i]
            if c in ")]":
                depth += 1
            elif c in "([":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and not (c.isalnum() or c in "_.>-"):
                break
            i -= 1
        return body[i + 1:end].strip()

    # -- driver ----------------------------------------------------------

    def run(self):
        """Global fixpoint, then a finding-emitting evaluation pass."""
        for _round in range(10):
            changed = False
            for fn in self.index.functions:
                changed |= self.analyze(fn, emit=None)
            if not changed:
                break
        findings = []
        for fn in self.index.functions:
            self.analyze(fn, emit=findings)
        findings.extend(self._check_unaccounted())
        # The name-based and summary-based sink scans can both fire for the
        # same site; keep one finding per (path, line, rule).
        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
        unique = []
        seen = set()
        for f in findings:
            if (f.path, f.line, f.rule) not in seen:
                seen.add((f.path, f.line, f.rule))
                unique.append(f)
        return unique

    # -- unaccounted-release ---------------------------------------------

    def _charge_before(self, fn, pos):
        return any(p < pos for p in self._charge_sites.get(fn, ()))

    def _guarded_by_callers(self, fn, visiting):
        """True when every src-module caller charges the accountant before
        the callsite, directly or transitively."""
        if fn in visiting:
            return False
        callers = [(c, pos) for c, pos in self.index.callers.get(fn, ())
                   if c.module is not None]
        if not callers:
            return False
        visiting = visiting | {fn}
        for caller, pos in callers:
            if self._charge_before(caller, pos):
                continue
            if not self._guarded_by_callers(caller, visiting):
                return False
        return True

    def _check_unaccounted(self):
        findings = []
        for fn in self.index.functions:
            if fn.module not in self.charged_modules:
                continue
            for pos, kind in self._release_sites.get(fn, ()):
                if self._charge_before(fn, pos):
                    continue
                if self._guarded_by_callers(fn, frozenset()):
                    continue
                findings.append(Finding(
                    fn.ctx.rel, fn.ctx.line_at(pos), "unaccounted-release",
                    f"{kind}() draws release noise but no path into "
                    f"{fn.name}() charges the PrivacyAccountant first; "
                    "charge (and check the Status) before the noise draw, "
                    "or annotate a measurement context "
                    "(// eep-lint: measurement-harness -- <why>)"))
        return findings

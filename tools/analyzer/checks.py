"""The analyzer's per-TU checks and the cross-TU symbol context.

Checks implemented here (check name -> function):

  guarded-ref-escape  aliases to GUARDED_BY state escaping their lock
  hot-loop-alloc      allocation inside loops of `// analyzer: hot` fns
  unordered-iter      iteration order of unordered containers leaking

The fourth check, lock-order-cycle, needs the whole-program acquisition
graph and lives in tools/analyzer/lockgraph.py. A discarded Status or
Result is not checked here: it fails to compile (-Werror=unused-result
on the [[nodiscard]] classes in util/status.h).

Every check consumes only the normalized model (model.py) plus the
Scope type resolver (cpputil.py); nothing here looks at raw source
except for the comment-run suppression geometry of
model.comment_run_covers.
"""

import re

from cpputil import (Scope, chain_root, extract_calls, is_heap_container,
                     is_map_like, is_string, is_unordered, top_level_assign,
                     type_head)
from model import (Block, ExprStmt, Finding, If, Loop, Return, VarDecl,
                   comment_run_covers, iter_stmts)

# Mutating container entry points that may reallocate per call.
GROW_METHODS = {"push_back", "emplace_back", "push_front", "emplace_front",
                "insert", "emplace", "push", "append", "resize"}

ALIAS_METHODS = ("begin", "end", "cbegin", "cend", "rbegin", "rend",
                 "data", "c_str", "front", "back")


class Context:
    """Cross-TU symbol tables: every class (including nested and
    function-local ones) and every function declaration/definition seen
    across the parsed tree."""

    def __init__(self, tus):
        self.tus = tus
        self._classes = {}     # name and qname -> ClassDecl
        self._functions = {}   # unqualified name -> [FunctionDecl]
        for tu in tus:
            for cls in tu.all_classes():
                self._classes.setdefault(cls.name, cls)
                self._classes.setdefault(cls.qname, cls)
            for fn in tu.all_functions():
                self._functions.setdefault(fn.name, []).append(fn)

    def class_by_name(self, name):
        return self._classes.get(name)

    def class_of_type(self, type_text):
        if not type_text:
            return None
        head = type_head(type_text)
        if not head or head.startswith("std::"):
            return None
        cls = self._classes.get(head)
        if cls is None:
            cls = self._classes.get(head.split("::")[-1])
        return cls

    def functions_named(self, name):
        return self._functions.get(name, [])

    def method_return(self, obj_type, method):
        cls = self.class_of_type(obj_type)
        if cls is not None:
            rets = {m.return_type for m in cls.methods
                    if m.name == method and m.return_type}
            if len(rets) == 1:
                return rets.pop()
        # Fall back to a unique global answer (covers out-of-line
        # definitions when the header declaration wasn't matched).
        rets = {f.return_type for f in self.functions_named(method)
                if f.return_type}
        return rets.pop() if len(rets) == 1 else ""


def _stmt_texts(body):
    """Yields (line, text) for every expression-bearing statement in a
    body subtree: expression statements, declarations (with inits),
    return expressions, if conditions, and loop headers."""
    for s in iter_stmts(body):
        if isinstance(s, ExprStmt):
            yield s.line, s.text
        elif isinstance(s, VarDecl):
            yield s.line, s.text
        elif isinstance(s, Return):
            if s.expr_text:
                yield s.line, s.expr_text
        elif isinstance(s, If):
            yield s.line, s.cond_text
        elif isinstance(s, Loop):
            yield s.line, s.header_text


def _owner_class(ctx, tu, fn):
    if not fn.owner:
        return None
    return ctx.class_by_name(fn.owner)


def _returns_alias(return_type):
    r = re.sub(r"\bconst\b", " ", return_type or "").strip()
    if not r:
        return False
    if "iterator" in r:
        return True
    return r.endswith("&") or r.endswith("*")


def _alias_of_guarded(text, guarded_names):
    """True if `text` takes the address of, or an iterator/pointer into,
    any of the guarded fields."""
    for name in guarded_names:
        if re.search(rf"&\s*{re.escape(name)}\b", text):
            return name
        if re.search(rf"\b{re.escape(name)}\s*(?:\.|->)\s*"
                     rf"(?:{'|'.join(ALIAS_METHODS)})\s*\(", text):
            return name
    return None


# Shared with the lifetime pass; kept importable under the old name.
_top_level_assign = top_level_assign


def check_guarded_ref_escape(tu, ctx):
    findings = []
    for fn in tu.all_functions():
        if fn.body is None:
            continue
        owner = _owner_class(ctx, tu, fn)
        guarded = {}
        if owner is not None:
            for name, field in owner.guarded_fields().items():
                guarded[name] = f"{owner.name}::{name}"
        for gname in tu.global_guards:
            guarded[gname] = gname
        if not guarded:
            continue
        param_types = {p.name: p.type_text for p in fn.params if p.name}
        ret_escapes = _returns_alias(fn.return_type)
        for s in iter_stmts(fn.body):
            if isinstance(s, Return) and s.expr_text:
                root = chain_root(s.expr_text)
                if ret_escapes and root in guarded:
                    findings.append(Finding(
                        tu.path, s.line, "guarded-ref-escape",
                        f"{fn.qname} returns {fn.return_type.strip()} "
                        f"aliasing GUARDED_BY field {guarded[root]}; the "
                        "alias outlives the lock — return a by-value "
                        "snapshot instead"))
                else:
                    hit = _alias_of_guarded(s.expr_text, guarded)
                    if hit is not None:
                        findings.append(Finding(
                            tu.path, s.line, "guarded-ref-escape",
                            f"{fn.qname} returns a pointer/iterator into "
                            f"GUARDED_BY field {guarded[hit]}"))
            elif isinstance(s, ExprStmt):
                eq = _top_level_assign(s.text)
                if eq < 0:
                    continue
                lhs, rhs = s.text[:eq], s.text[eq + 1:]
                hit = _alias_of_guarded(rhs, guarded)
                if hit is None:
                    continue
                lroot = chain_root(lhs)
                ltype = param_types.get(lroot, "")
                if "*" in ltype or "&" in ltype:
                    findings.append(Finding(
                        tu.path, s.line, "guarded-ref-escape",
                        f"{fn.qname} stores an alias of GUARDED_BY field "
                        f"{guarded[hit]} into out-parameter {lroot}"))
    return findings


def _loops_in(body):
    for s in iter_stmts(body):
        if isinstance(s, Loop):
            yield s


def check_hot_loop_alloc(tu, ctx):
    findings = []
    seen = set()

    def report(line, msg):
        key = (line, msg)
        if key not in seen:
            seen.add(key)
            findings.append(Finding(tu.path, line, "hot-loop-alloc", msg))

    for fn in tu.all_functions():
        if fn.body is None or not fn.is_hot:
            continue
        scope = Scope(ctx, tu, fn, _owner_class(ctx, tu, fn))
        fn_flat = re.sub(r"\s+", "",
                         " ; ".join(t for _, t in _stmt_texts(fn.body)))
        for loop in _loops_in(fn.body):
            for s in iter_stmts(loop.body):
                if isinstance(s, VarDecl):
                    # References/pointers bind, they don't construct.
                    if is_heap_container(s.type_text) and \
                            "&" not in s.type_text and \
                            "*" not in s.type_text:
                        report(s.line,
                               f"constructs {type_head(s.type_text)} per "
                               "iteration — hoist it out of the loop and "
                               "clear()/reuse")
                    _scan_alloc_text(s.text, s.line, scope, fn_flat, report)
                elif isinstance(s, ExprStmt):
                    _scan_alloc_text(s.text, s.line, scope, fn_flat, report)
                elif isinstance(s, If):
                    _scan_alloc_text(s.cond_text, s.line, scope, fn_flat,
                                     report)
                elif isinstance(s, Loop):
                    _scan_alloc_text(s.header_text, s.line, scope, fn_flat,
                                     report)
    return findings


def _scan_alloc_text(text, line, scope, fn_flat, report):
    if re.search(r"\bnew\b", text):
        report(line, "operator new in a hot loop")
    for path, _args, _pos in extract_calls(text):
        method = re.split(r"\.|->", path)[-1]
        if method not in GROW_METHODS:
            continue
        sep = path[: len(path) - len(method)]
        if not sep:
            continue  # a free function that happens to share the name
        obj = sep[:-2] if sep.endswith("->") else sep[:-1]
        if not obj:
            continue
        if re.search(r"(?<![\w\].>])" + re.escape(obj) +
                     r"(?:\.|->)reserve\(", fn_flat):
            continue
        report(line, f"{method}() on {obj} without a visible reserve() "
                     "in this function may reallocate per iteration")
    for m in re.finditer(r"\[", text):
        base_m = re.search(r"((?:[A-Za-z_]\w*(?:\.|->|::))*"
                           r"[A-Za-z_]\w*(?:\(\))?)\s*$", text[:m.start()])
        if not base_m:
            continue
        base_type = scope.resolve(base_m.group(1))
        if is_map_like(base_type):
            report(line, f"map operator[] on {base_m.group(1)} "
                         "default-constructs on miss — use find()/at() "
                         "or pre-populate outside the loop")
    if re.search(r'""\s*\+|\+\s*""', text) or \
            re.search(r"[\w\)\]]\s*\+=\s*\"\"", text):
        report(line, "string concatenation in a hot loop — build once "
                     "outside or use a preallocated buffer")
    else:
        m = re.search(r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*\+=", text)
        if m and is_string(scope.resolve(m.group(1))):
            report(line, f"append to std::string {m.group(1)} in a hot "
                         "loop — reserve or build outside")


def check_unordered_iter(tu, ctx):
    findings = []
    for fn in tu.all_functions():
        if fn.body is None:
            continue
        scope = Scope(ctx, tu, fn, _owner_class(ctx, tu, fn))
        for s in iter_stmts(fn.body):
            if isinstance(s, Loop) and s.kind == "range_for":
                t = scope.resolve(s.range_expr)
                if is_unordered(t) and not comment_run_covers(
                        s.line, tu.determinism_lines, tu.raw_lines):
                    findings.append(Finding(
                        tu.path, s.line, "unordered-iter",
                        f"range-for over {type_head(t)} "
                        f"({s.range_expr}) leaks hash-table order — sort "
                        "first or add a `// determinism:` justification"))
            else:
                texts = []
                if isinstance(s, (ExprStmt, VarDecl)):
                    texts.append(s.text)
                for text in texts:
                    for m in re.finditer(
                            r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)"
                            r"\s*(?:\.|->)\s*c?begin\s*\(", text):
                        t = scope.resolve(m.group(1))
                        if is_unordered(t) and not comment_run_covers(
                                s.line, tu.determinism_lines, tu.raw_lines):
                            findings.append(Finding(
                                tu.path, s.line, "unordered-iter",
                                f"iterator over {type_head(t)} "
                                f"({m.group(1)}) observes hash-table "
                                "order"))
    return findings


# check name -> per-TU implementation. lock-order-cycle, race-infer,
# missing-guarded-by, and blocking-under-lock are whole-program and are
# invoked separately by the driver (see lockgraph.py / raceinfer.py /
# dataflow.py).
import dataflow                                              # noqa: E402
import lifetimes                                             # noqa: E402

PER_TU_CHECKS = {
    "guarded-ref-escape": check_guarded_ref_escape,
    "hot-loop-alloc": check_hot_loop_alloc,
    "unordered-iter": check_unordered_iter,
    "unordered-output-flow": dataflow.check_unordered_output_flow,
    "view-escape": lifetimes.check_view_escape,
}

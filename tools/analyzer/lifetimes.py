"""Interprocedural lifetime pass (DESIGN.md §17): dangling views,
iterator invalidation, and view-escape contracts.

Three checks over the normalized AST shared by both frontends:

  dangling-view     a view (string_view, span, iterator, reference,
                    pointer) bound to a temporary, a local, or a
                    by-value parameter and then returned or stored in a
                    field. Borrow summaries propagate through the call
                    graph (callgraph.py resolution when available,
                    Context otherwise), so a helper that merely forwards
                    a view — `string_view Trim(const string& s)` — is
                    transparent and `return Trim(local)` is caught at
                    the caller.
  iter-invalidation a live iterator/reference into a container across a
                    call that may mutate it: the std container mutators
                    and any non-const method of a known user class
                    (cpputil.is_mutating_method), interprocedurally
                    through one call level via per-function
                    parameter-mutation summaries. Range-for and
                    iterator-for loops are checked against mutations of
                    the iterated container inside the loop body.
  view-escape       the contract language for long-lived structures:
                    every view-typed field must carry
                    `// analyzer: borrows(<member>) -- <reason>` (the
                    reason is mandatory, exactly like allow()), an
                    owns() on a view field is a contradiction, and a
                    contract naming an unknown member is reported.
                    Registered per-TU via checks.PER_TU_CHECKS.

The storage lattice classifies what a view expression points into:

  safe < field < param < unknown | local < param-value < temporary

The left group never dangles on escape (globals, this-fields, caller
storage through reference/view parameters); the right group always does.
`unknown` stays silent — resolver gaps cause missed findings, never
false positives, matching every other check in this analyzer.

run() also assembles build/lifetime_report.json
(schema "infoshield-lifetime-report/1"): a per-TU view inventory —
view fields with their contract state, view-returning functions with
their borrow summaries — plus verdict counts, mirroring the race
report's shape.
"""

import collections
import re

from cpputil import (CHAIN_TOKEN_RE, CONTAINER_MUTATORS, Scope, bare_type,
                     chain_root, dealias, element_type, extract_calls,
                     find_balanced, is_heap_container, is_map_like,
                     is_mutating_method, is_owning, is_view,
                     split_top_level, std_method_return, top_level_assign,
                     type_head)
from model import (ExprStmt, Finding, If, Loop, Return, VarDecl,
                   contract_names_for, iter_stmts)

REPORT_SCHEMA = "infoshield-lifetime-report/1"

# Storage classes for the bytes a view expression aliases.
SAFE = "safe"              # globals, static storage
FIELD = "field"            # `this`-rooted: lives as long as the object
PARAM = "param"            # caller storage through a ref/ptr/view param
LOCAL = "local"            # this frame's storage: dies on return
PARAM_VALUE = "param-value"  # by-value parameter: dies on return
TEMPORARY = "temporary"    # dies at the end of the full expression
UNKNOWN = "unknown"

ESCAPING = (LOCAL, PARAM_VALUE, TEMPORARY)

# Severity order for merging classifications through a call summary.
_RANK = {SAFE: 0, FIELD: 1, PARAM: 2, UNKNOWN: 3, LOCAL: 4,
         PARAM_VALUE: 5, TEMPORARY: 6}

# std methods that alias the receiver's storage even when the return
# type cannot be resolved.
ALIAS_STEPS = {"begin", "end", "cbegin", "cend", "rbegin", "rend",
               "data", "c_str", "front", "back", "at", "substr"}

ITER_BIND_RE = re.compile(
    r"^((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(begin|cbegin|end|cend|rbegin|rend|front|back|data|at)\s*\(")

FOR_HEADER_BIND_RE = re.compile(
    r"\(\s*(?:const\s+)?(?:auto|[\w:<>, ]+?)[&*\s]*([A-Za-z_]\w*)\s*=\s*"
    r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")

LAMBDA_REF_CAPTURE_RE = re.compile(r"^\s*\[\s*([^\]]*&[^\]]*)\]")


class Origin:
    """Where a view over an expression would point."""

    __slots__ = ("kind", "name", "type_text")

    def __init__(self, kind, name="", type_text=""):
        self.kind = kind
        self.name = name
        self.type_text = type_text


def iter_stmts_no_lambda(block):
    """Like model.iter_stmts but does not descend into lambda bodies: a
    statement inside a closure belongs to the closure's frame, not the
    enclosing function's (its returns are the lambda's returns, its
    locals die with the lambda call). Lambda escape itself is handled
    expression-side by the ref-capture checks."""
    from model import Block, If
    for s in block.stmts:
        if isinstance(s, Block) and s.kind == "lambda":
            continue
        yield s
        if isinstance(s, Block):
            yield from iter_stmts_no_lambda(s)
        elif isinstance(s, Loop):
            yield from iter_stmts_no_lambda(s.body)
        elif isinstance(s, If):
            yield from iter_stmts_no_lambda(s.then_block)
            if s.else_block is not None:
                yield from iter_stmts_no_lambda(s.else_block)
        # ExprStmt/VarDecl children are lambda blocks: skipped.


def _worst(origins):
    best = None
    for o in origins:
        if best is None or _RANK[o.kind] > _RANK[best.kind]:
            best = o
    return best or Origin(UNKNOWN)


def _is_ref_or_ptr(type_text):
    t = (type_text or "").rstrip()
    return t.endswith("&") or t.endswith("*")


def _returns_viewish(return_type):
    return is_view(return_type) or _is_ref_or_ptr(
        re.sub(r"\bconst\b", " ", return_type or "").strip())


class _Classifier:
    """Chain-walking storage classifier. `summaries` maps function keys
    (unqualified free-function names) to borrow summaries so call
    results classify as whatever the callee's return borrows."""

    def __init__(self, ctx, summaries, cg=None):
        self.ctx = ctx
        self.summaries = summaries
        self.cg = cg

    def classify(self, expr, scope, depth=0):
        if depth > 6 or not expr:
            return Origin(UNKNOWN)
        e = expr.strip()
        while e.startswith("(") and find_balanced(e, 0) == len(e) - 1:
            e = e[1:-1].strip()
        # Explicit view construction aliases its first argument:
        # std::string_view(s), std::span<T>(buf).
        m = re.match(r"^(?:std::)?(?:string_view|span)\s*(?:<[^<>]*>)?"
                     r"\s*\(", e)
        if m:
            close = find_balanced(e, m.end() - 1)
            if close == len(e) - 1:
                args = split_top_level(e[m.end():close])
                if args and args[0].strip():
                    return self.classify(args[0], scope, depth + 1)
        e = e.lstrip("&*!").strip()
        m = CHAIN_TOKEN_RE.match(e)
        if not m:
            return Origin(UNKNOWN)
        root = m.group(1)
        i = m.end()
        rest = e[i:].lstrip()
        origin = self._root_origin(root, scope, depth)
        if origin is None:
            if rest.startswith("("):
                open_pos = e.find("(", i)
                close = find_balanced(e, open_pos)
                if close < 0:
                    return Origin(UNKNOWN)
                args = split_top_level(e[open_pos + 1:close])
                origin = self._call_origin(root, args, scope, depth)
                i = close + 1
            else:
                return Origin(UNKNOWN)
        return self._walk_chain(e, i, origin, scope, depth)

    def _root_origin(self, root, scope, depth):
        """Origin of a bare identifier, or None when it is not a
        variable in scope (likely a function name)."""
        if root == "this":
            return Origin(FIELD, "this")
        for p in scope.fn.params:
            if p.name == root:
                t = dealias(p.type_text, scope.tu.aliases)
                if is_view(t) or "&" in t or "*" in t:
                    # Views and references bind caller storage.
                    return Origin(PARAM, root, t)
                return Origin(PARAM_VALUE, root, t)
        if root in scope.vars:
            raw = scope.vars[root]
            t = dealias(raw, scope.tu.aliases)
            if re.search(r"\bstatic\b", raw):
                # Static locals have program lifetime.
                return Origin(SAFE, root, t)
            if t.startswith("__range_elem__:"):
                # Range-for binding: aliases the iterated range.
                rng = t.split(":", 1)[1]
                inner = self.classify(rng, scope, depth + 1)
                elem = element_type(scope.resolve(rng))
                return Origin(inner.kind, inner.name or root, elem)
            if is_view(t) or "&" in t or "*" in t or \
                    bare_type(t).startswith("auto"):
                resolved = scope.type_of_name(root)
                if bare_type(t).startswith("auto") and \
                        "&" not in t and "*" not in t and \
                        resolved and not is_view(resolved):
                    # `auto copy = f();` with a resolvable by-value
                    # type owns its value; unresolvable auto falls
                    # through to the init (miss toward silence).
                    return Origin(LOCAL, root, resolved)
                init = scope.inits.get(root, "")
                if not init:
                    return Origin(UNKNOWN, root, resolved)
                inner = self.classify(init, scope, depth + 1)
                return Origin(inner.kind, inner.name or root, resolved)
            return Origin(LOCAL, root, t)
        if scope.owner is not None and root in scope.owner.fields:
            t = dealias(scope.owner.fields[root].type_text,
                        scope.tu.aliases)
            return Origin(FIELD, root, t)
        if root in scope.tu.globals:
            return Origin(SAFE, root,
                          dealias(scope.tu.globals[root],
                                  scope.tu.aliases))
        return None

    def _call_origin(self, name, args, scope, depth):
        """Origin of `name(args...)` — a free-function call at the root
        of a chain, resolved through the call graph summaries."""
        if self.cg is not None and name in self.cg.by_name:
            # Call-graph resolution: exactly the nodes the race
            # inference walks, so laundering helpers resolve the same
            # way there and here.
            fns = [self.cg.walk_by_id[nid].fn
                   for nid in self.cg.by_name[name]]
        else:
            fns = self.ctx.functions_named(name)
        rets = {dealias(f.return_type, scope.tu.aliases)
                for f in fns if f.return_type}
        rt = rets.pop() if len(rets) == 1 else ""
        if not rt:
            return Origin(UNKNOWN, name)
        if _returns_viewish(rt) or is_view(rt):
            summ = self.summaries.get(name)
            if summ is None:
                return Origin(UNKNOWN, name, rt)
            origins = []
            for idx in sorted(summ["borrows_params"]):
                if idx < len(args):
                    inner = self.classify(args[idx], scope, depth + 1)
                    origins.append(Origin(inner.kind,
                                          inner.name or name, rt))
            if summ["borrows_other"]:
                # Fields/globals of the callee outlive this frame.
                origins.append(Origin(SAFE, name, rt))
            if summ["dangles"]:
                # The callee is flagged at its own definition; do not
                # double-report every caller.
                origins.append(Origin(UNKNOWN, name, rt))
            return _worst(origins) if origins else Origin(UNKNOWN, name, rt)
        # Any by-value result is a temporary of this full expression.
        return Origin(TEMPORARY, name, rt)

    def _walk_chain(self, e, i, origin, scope, depth):
        pending = None
        while i < len(e):
            c = e[i]
            if c in " \t\n":
                i += 1
                continue
            if c in ".-":
                skip = 1 if c == "." else 2
                mm = re.match(r"\s*([A-Za-z_]\w*)", e[i + skip:])
                if not mm:
                    return Origin(UNKNOWN, origin.name)
                pending = mm.group(1)
                i += skip + mm.end()
                continue
            if c == "(":
                close = find_balanced(e, i)
                if close < 0:
                    return Origin(UNKNOWN, origin.name)
                if pending is not None:
                    origin = self._method_step(origin, pending, scope)
                    pending = None
                i = close + 1
                continue
            if c == "[":
                close = find_balanced(e, i, "[", "]")
                if close < 0:
                    return Origin(UNKNOWN, origin.name)
                if pending is not None:
                    origin = self._member_step(origin, pending, scope)
                    pending = None
                elem = element_type(origin.type_text) \
                    if origin.type_text else ""
                origin = Origin(origin.kind, origin.name, elem)
                i = close + 1
                continue
            break  # an operator ends the alias chain
        if pending is not None:
            origin = self._member_step(origin, pending, scope)
        return origin

    def _method_step(self, origin, method, scope):
        if origin.kind == UNKNOWN and not origin.type_text:
            return Origin(UNKNOWN, origin.name)
        rt = self.ctx.method_return(origin.type_text, method) or \
            std_method_return(origin.type_text, method)
        rt = dealias(rt, scope.tu.aliases) if rt else ""
        if not rt:
            if method in ALIAS_STEPS:
                # Alias-producing method with an unresolved return type:
                # same storage, unknown type.
                return Origin(origin.kind, origin.name)
            return Origin(UNKNOWN, origin.name)
        if is_view(rt) or _is_ref_or_ptr(rt):
            return Origin(origin.kind, origin.name, rt)
        if is_owning(rt):
            # A by-value owning result (`s.substr(...)` on std::string)
            # is a temporary regardless of the receiver's storage.
            return Origin(TEMPORARY, origin.name, rt)
        return Origin(TEMPORARY, origin.name, rt)

    def _member_step(self, origin, member, scope):
        t = scope._member_type(origin.type_text, member) \
            if origin.type_text else ""
        if not t:
            return Origin(UNKNOWN, origin.name)
        return Origin(origin.kind, origin.name, t)


def _owner_class(ctx, fn):
    if not fn.owner:
        return None
    return ctx.class_by_name(fn.owner)


def build_view_summaries(tus, ctx, cg=None):
    """Borrow summaries for every view/reference-returning free function
    with a body: which parameters its return value borrows, whether it
    returns views of longer-lived storage, and whether it dangles
    outright. Two rounds so a summary can see summaries one call level
    down (the laundering chain the issue names). Call-graph resolution
    (cg.by_name) narrows the candidate set when available."""
    targets = []
    for tu in tus:
        for fn in tu.all_functions():
            if fn.body is None or fn.owner:
                continue
            rt = dealias(fn.return_type, tu.aliases)
            if not _returns_viewish(rt):
                continue
            targets.append((tu, fn))
    summaries = {}
    for _round in range(2):
        for tu, fn in targets:
            scope = Scope(ctx, tu, fn, _owner_class(ctx, fn))
            clf = _Classifier(ctx, summaries, cg)
            param_index = {p.name: i for i, p in enumerate(fn.params)
                           if p.name}
            borrows_params = set()
            borrows_other = False
            dangles = False
            for s in iter_stmts_no_lambda(fn.body):
                if not isinstance(s, Return) or not s.expr_text:
                    continue
                o = clf.classify(s.expr_text, scope)
                if o.kind == PARAM and o.name in param_index:
                    borrows_params.add(param_index[o.name])
                elif o.kind in (SAFE, FIELD):
                    borrows_other = True
                elif o.kind in ESCAPING:
                    dangles = True
            summaries[fn.name] = {
                "borrows_params": borrows_params,
                "borrows_other": borrows_other,
                "dangles": dangles,
                "qname": fn.qname,
                "return_type": dealias(fn.return_type, tu.aliases),
            }
    return summaries


def _norm_path(expr):
    """Canonical container identity for invalidation matching: the full
    member path with whitespace squeezed and -> folded to `.` — so
    `result.labels` and `result.suspicious` are distinct containers but
    `p->v` and `p . v` are the same one."""
    return re.sub(r"\s+", "", expr or "").replace("->", ".")


def _stmt_use_texts(s):
    """Expression texts of one statement, for liveness scanning."""
    if isinstance(s, ExprStmt):
        return [s.text]
    if isinstance(s, VarDecl):
        return [s.init_text]
    if isinstance(s, Return):
        return [s.expr_text] if s.expr_text else []
    if isinstance(s, If):
        return [s.cond_text]
    if isinstance(s, Loop):
        return [s.header_text]
    return []


def check_dangling_view(tu, ctx, summaries, cg=None):
    """Per-function dangling-view findings: escaping returns, view
    locals bound to temporaries, and view/pointer fields assigned
    frame-local storage."""
    findings = []
    clf = _Classifier(ctx, summaries, cg)
    for fn in tu.all_functions():
        if fn.body is None:
            continue
        owner = _owner_class(ctx, fn)
        scope = Scope(ctx, tu, fn, owner)
        rt = dealias(fn.return_type, tu.aliases)
        viewish_ret = _returns_viewish(rt)
        for s in iter_stmts_no_lambda(fn.body):
            if isinstance(s, Return) and s.expr_text:
                cap = LAMBDA_REF_CAPTURE_RE.match(s.expr_text)
                if cap is not None and ("function" in rt or rt == "auto"):
                    findings.append(Finding(
                        tu.path, s.line, "dangling-view",
                        f"{fn.qname} returns a lambda capturing "
                        f"[{cap.group(1).strip()}] by reference — the "
                        "captured frame dies with this call; capture by "
                        "value"))
                    continue
                if not viewish_ret:
                    continue
                o = clf.classify(s.expr_text, scope)
                if o.kind in ESCAPING:
                    what = {LOCAL: f"local `{o.name}`",
                            PARAM_VALUE: f"by-value parameter `{o.name}`",
                            TEMPORARY: f"a temporary (via {o.name})"}
                    findings.append(Finding(
                        tu.path, s.line, "dangling-view",
                        f"{fn.qname} returns {rt} aliasing "
                        f"{what[o.kind]} — the storage dies when this "
                        "frame unwinds; return an owning value or borrow "
                        "caller storage"))
            elif isinstance(s, VarDecl):
                t = dealias(s.type_text, tu.aliases)
                if not is_view(t) or "&" in t or "*" in t:
                    continue  # const-ref binding extends temporaries
                init = scope.inits.get(s.name, "")
                if not init:
                    continue
                o = clf.classify(init, scope)
                if o.kind == TEMPORARY:
                    findings.append(Finding(
                        tu.path, s.line, "dangling-view",
                        f"{fn.qname} binds {type_head(t)} `{s.name}` to "
                        f"a temporary (via {o.name}) that dies at the "
                        "end of this statement — bind the owning value "
                        "to a named local first"))
            elif isinstance(s, ExprStmt) and owner is not None:
                eq = top_level_assign(s.text)
                if eq < 0:
                    continue
                lhs = s.text[:eq].strip()
                rhs = s.text[eq + 1:].strip()
                froot = chain_root(lhs)
                field = owner.fields.get(froot)
                if field is None:
                    continue
                ft = dealias(field.type_text, tu.aliases)
                if not (is_view(ft) or _is_ref_or_ptr(ft) or
                        "function" in ft):
                    continue
                cap = LAMBDA_REF_CAPTURE_RE.match(rhs)
                if cap is not None and "function" in ft:
                    findings.append(Finding(
                        tu.path, s.line, "dangling-view",
                        f"{fn.qname} stores a lambda capturing "
                        f"[{cap.group(1).strip()}] by reference into "
                        f"field {owner.name}::{froot} — the closure "
                        "outlives the captured frame"))
                    continue
                o = clf.classify(rhs, scope)
                if o.kind in ESCAPING:
                    what = {LOCAL: f"local `{o.name}`",
                            PARAM_VALUE: f"by-value parameter `{o.name}`",
                            TEMPORARY: f"a temporary (via {o.name})"}
                    findings.append(Finding(
                        tu.path, s.line, "dangling-view",
                        f"{fn.qname} stores a view of {what[o.kind]} "
                        f"into field {owner.name}::{froot} — the field "
                        "outlives the storage it points at"))
    return findings


def build_mutation_summaries(tus, ctx):
    """fn name -> set of parameter indices whose container the body
    mutates through a non-const reference/pointer. One call level, per
    the contract in the module docstring; ambiguous overloads union
    (conservative toward reporting, exercised only when an iterator into
    the argument is live across the call)."""
    out = {}
    for tu in tus:
        for fn in tu.all_functions():
            if fn.body is None:
                continue
            muts = set()
            for idx, p in enumerate(fn.params):
                if not p.name:
                    continue
                t = dealias(p.type_text, tu.aliases)
                if "&" not in t and "*" not in t:
                    continue
                if re.search(r"\bconst\b", t) and "*" not in t:
                    continue
                pat = re.compile(rf"\b{re.escape(p.name)}\s*"
                                 rf"(?:\.|->)\s*(\w+)\s*\(")
                for s in iter_stmts_no_lambda(fn.body):
                    for text in _stmt_use_texts(s):
                        for m in pat.finditer(text):
                            if m.group(1) in CONTAINER_MUTATORS:
                                muts.add(idx)
            if muts:
                out.setdefault(fn.name, set()).update(muts)
    return out


def _mutations_in(text, scope, ctx, mut_summaries):
    """Yields (container_root, how) for every mutation `text` performs
    on a container visible in `scope` — direct mutator calls, map
    operator[], and one-level calls that mutate a by-reference
    argument."""
    for path, args_text, _pos in extract_calls(text):
        parts = re.split(r"\.|->", path)
        method = parts[-1]
        if len(parts) > 1:
            obj = path[: len(path) - len(method)].rstrip(".->")
            if not chain_root(obj):
                continue
            t = scope.resolve(obj)
            if is_mutating_method(t, method, ctx):
                yield _norm_path(obj), f"{method}() on {obj}"
        else:
            summ = mut_summaries.get(method)
            if not summ:
                continue
            args = split_top_level(args_text)
            for idx in sorted(summ):
                if idx < len(args):
                    arg = args[idx].strip().lstrip("&")
                    if chain_root(arg):
                        yield _norm_path(arg), \
                            f"{method}() mutating argument {idx + 1}"
    # Map operator[] default-constructs on miss: a mutation.
    for m in re.finditer(r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*\[",
                         text):
        t = scope.resolve(m.group(1))
        if is_map_like(t):
            yield _norm_path(m.group(1)), f"operator[] on map {m.group(1)}"


def check_iter_invalidation(tu, ctx, mut_summaries):
    findings = []
    for fn in tu.all_functions():
        if fn.body is None:
            continue
        scope = Scope(ctx, tu, fn, _owner_class(ctx, fn))
        seen = set()

        def report(line, msg):
            key = (line, msg)
            if key not in seen:
                seen.add(key)
                findings.append(Finding(tu.path, line,
                                        "iter-invalidation", msg))

        # Loops: mutations of the iterated container inside the body.
        for s in iter_stmts_no_lambda(fn.body):
            if not isinstance(s, Loop):
                continue
            bindings = []  # (alias or "", container path)
            if s.kind == "range_for":
                if chain_root(s.range_expr) and \
                        is_heap_container(scope.resolve(s.range_expr)):
                    bindings.append(("", _norm_path(s.range_expr),
                                     "range-for"))
            else:
                m = FOR_HEADER_BIND_RE.search(s.header_text)
                if m and is_heap_container(scope.resolve(m.group(2))):
                    bindings.append((m.group(1), _norm_path(m.group(2)),
                                     "iterator-for"))
            for alias, root, loop_kind in bindings:
                for inner in iter_stmts_no_lambda(s.body):
                    for text in _stmt_use_texts(inner):
                        if alias and re.match(
                                rf"^\s*{re.escape(alias)}\s*=[^=]", text):
                            continue  # `it = c.erase(it)` refreshes
                        for mroot, how in _mutations_in(
                                text, scope, ctx, mut_summaries):
                            if mroot == root:
                                report(inner.line,
                                       f"{fn.qname} mutates `{root}` "
                                       f"({how}) while the {loop_kind} "
                                       f"at line {s.line} iterates it — "
                                       "iterators/references into it "
                                       "are invalidated")

        # Straight-line: iterator/reference bindings live across a
        # mutation of their container, in source order.
        ordered = list(iter_stmts_no_lambda(fn.body))
        bindings = []  # (alias, container path, stmt index, line)
        for idx, s in enumerate(ordered):
            if not isinstance(s, VarDecl):
                continue
            # Per-statement init, NOT scope.inits: that map is name-
            # flattened and a reused local name across disjoint scopes
            # would pick up the wrong initializer.
            init = s.init_text
            if init.startswith("="):
                init = init[1:]
            elif init.startswith("(") or init.startswith("{"):
                init = init[1:-1] if len(init) >= 2 else ""
            init = init.strip()
            is_ref = "&" in s.type_text or "*" in s.type_text
            m = ITER_BIND_RE.match(init)
            if m is not None and m.group(2) in ("front", "back", "data",
                                                "at") and not is_ref:
                m = None  # `int v = s.back();` copies the element
            ref_bind = None
            if m is None and is_ref:
                sub = re.match(r"^((?:[A-Za-z_]\w*(?:\.|->))*"
                               r"[A-Za-z_]\w*)\s*\[", init)
                if sub:
                    ref_bind = sub.group(1)
            target = m.group(1) if m else ref_bind
            if target is None:
                continue
            if not is_heap_container(scope.resolve(target)):
                continue
            if chain_root(target):
                bindings.append((s.name, _norm_path(target), idx, s.line))
        for alias, root, bind_idx, bind_line in bindings:
            use_re = re.compile(rf"\b{re.escape(alias)}\b")
            rebind_re = re.compile(rf"^\s*{re.escape(alias)}\s*=[^=]")
            for midx in range(bind_idx + 1, len(ordered)):
                mstmt = ordered[midx]
                hit = None
                for text in _stmt_use_texts(mstmt):
                    if rebind_re.match(text):
                        hit = "rebind"
                        break
                    for mroot, how in _mutations_in(
                            text, scope, ctx, mut_summaries):
                        if mroot == root:
                            hit = how
                            break
                    if hit:
                        break
                if hit == "rebind":
                    break  # alias reseated; this binding is dead
                if hit is None:
                    continue
                # Mutation found: is the alias used afterwards?
                for uidx in range(midx + 1, len(ordered)):
                    used = None
                    for text in _stmt_use_texts(ordered[uidx]):
                        if rebind_re.match(text):
                            used = "rebind"
                            break
                        if use_re.search(text):
                            used = "use"
                            break
                    if used == "rebind":
                        break
                    if used == "use":
                        report(mstmt.line,
                               f"{fn.qname}: `{alias}` (bound into "
                               f"`{root}` at line {bind_line}) is used "
                               f"at line {ordered[uidx].line} after "
                               f"{hit} may invalidate it")
                        break
                break  # first live mutation is the finding; move on
    return findings


def view_field_inventory(tu, ctx):
    """[(cls, field, dealiased type, contract)] for every view-typed
    field in the TU; contract is 'borrows', 'owns', or 'unannotated'."""
    out = []
    for cls in tu.all_classes():
        for name in sorted(cls.fields):
            field = cls.fields[name]
            t = dealias(field.type_text, tu.aliases)
            bare = re.sub(r"\bconst\b", " ", t).strip()
            if not (is_view(t) or bare.endswith("&") or bare.endswith("*")):
                continue
            borrows = contract_names_for(field.line, tu.borrows,
                                         tu.raw_lines)
            owns = contract_names_for(field.line, tu.owns, tu.raw_lines)
            if name in owns:
                contract = "owns"
            elif name in borrows:
                contract = "borrows"
            else:
                contract = "unannotated"
            out.append((cls, field, t, contract))
    return out


def check_view_escape(tu, ctx):
    """Per-TU contract check (registered in checks.PER_TU_CHECKS): view
    fields need a borrows() contract, owns() on a view is a
    contradiction, contracts must name real members, and borrows()
    carries a mandatory reason."""
    findings = []
    for cls, field, t, contract in view_field_inventory(tu, ctx):
        if contract == "owns":
            findings.append(Finding(
                tu.path, field.line, "view-escape",
                f"{cls.name}::{field.name} ({t}) is a non-owning view "
                "declared owns() — a view cannot own its storage; "
                "declare borrows(...) or store an owning type"))
        elif contract == "unannotated":
            findings.append(Finding(
                tu.path, field.line, "view-escape",
                f"{cls.name}::{field.name} ({t}) is a non-owning view "
                "with no lifetime contract — annotate `// analyzer: "
                f"borrows({field.name}) -- <why the owner outlives it>` "
                "or own the storage"))
    # Contract hygiene: names must exist, borrows() must say why.
    known = set()
    for cls in tu.all_classes():
        known.update(cls.fields)
    for fn in tu.all_functions():
        known.update(p.name for p in fn.params if p.name)
    for line, names in sorted(tu.owns.items()):
        for name in sorted(names - known):
            findings.append(Finding(
                tu.path, line, "view-escape",
                f"owns({name}) names no field or parameter in this TU"))
    for line, names in sorted(tu.borrows.items()):
        for name in sorted(names - known):
            findings.append(Finding(
                tu.path, line, "view-escape",
                f"borrows({name}) names no field or parameter in this "
                "TU"))
    for line in sorted(tu.borrows_noreason):
        findings.append(Finding(
            tu.path, line, "view-escape",
            "borrows(...) without `-- <reason>`; the reason is the "
            "contract — say why the owner outlives the view"))
    return findings


def run(tus, ctx, cg=None):
    """Whole-program lifetime pass: dangling-view + iter-invalidation
    findings and the lifetime report. view-escape runs per-TU through
    the ordinary check registry; its inventory is folded into the
    report here."""
    summaries = build_view_summaries(tus, ctx, cg)
    mut_summaries = build_mutation_summaries(tus, ctx)
    findings = []
    tus_out = {}
    summary = collections.Counter()
    for tu in tus:
        dv = check_dangling_view(tu, ctx, summaries, cg)
        ii = check_iter_invalidation(tu, ctx, mut_summaries)
        findings.extend(dv)
        findings.extend(ii)
        fields = view_field_inventory(tu, ctx)
        fns = []
        for fn in tu.all_functions():
            if fn.owner or fn.body is None:
                continue
            summ = summaries.get(fn.name)
            if summ is None:
                continue
            verdict = "dangling" if summ["dangles"] else (
                "borrows-params" if summ["borrows_params"] else (
                    "borrows-longer-lived" if summ["borrows_other"]
                    else "unknown"))
            fns.append({
                "function": summ["qname"],
                "return_type": summ["return_type"],
                "borrows_params": sorted(summ["borrows_params"]),
                "verdict": verdict,
            })
            summary[f"fn_{verdict.replace('-', '_')}"] += 1
        for _cls, _field, _t, contract in fields:
            summary[f"field_{contract}"] += 1
        summary["dangling_view"] += len(dv)
        summary["iter_invalidation"] += len(ii)
        if not fields and not fns and not dv and not ii:
            continue
        tus_out[tu.path] = {
            "view_fields": [{
                "field": f"{cls.name}::{field.name}",
                "type": t,
                "line": field.line,
                "contract": contract,
            } for cls, field, t, contract in fields],
            "view_returning_functions": fns,
            "findings": [f"{f.line}: [{f.check}] {f.message}"
                         for f in sorted(dv + ii,
                                         key=lambda f: f.line)],
        }
    report = {
        "schema": REPORT_SCHEMA,
        "frontends": dict(collections.Counter(tu.frontend for tu in tus)),
        "tus": tus_out,
        "summary": dict(sorted(summary.items())),
    }
    return findings, report

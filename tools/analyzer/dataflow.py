"""unordered-output-flow (per-TU taint): hash-table iteration order
reaching a serialization sink breaks the repo's byte-identical output
contract. Loop bindings over unordered containers are taint sources;
taint propagates through locals (including the launder-through-a-vector
pattern: push_back of a tainted binding taints the vector);
std::sort/std::stable_sort over a tainted value clears it; sinks are
Write*/Emit*/Print*/Serialize*/Dump*/*Json*/*Csv*/*Html* calls and <<
into a file/console stream. Unlike unordered-iter, this check
deliberately ignores `// determinism:` comments: those justify
*iterating*; this check verifies the justification's usual claim —
"sorted before output" — actually holds on the path to the sink.
Suppress with
`// analyzer: allow(unordered-output-flow) -- <reason>` when order
provably cannot reach bytes (e.g. the sink input is re-sorted by the
callee)."""

import re

from cpputil import (Scope, chain_root, extract_calls, is_unordered,
                     type_head)
from model import (Block, ExprStmt, Finding, If, Loop, Return, VarDecl)

SINK_NAME_RE = re.compile(
    r"^(?:Write|Emit|Print|Serialize|Dump)\w*$|Json|Csv|Html")

SORT_RE = re.compile(r"\bstd::(?:stable_)?sort\s*\(")

STREAM_HEADS = ("std::ostream", "std::ofstream", "std::fstream")

STD_STREAMS_RE = re.compile(r"\bstd::c(?:out|err|log)\b")

MUTATING_APPEND = ("push_back", "emplace_back", "insert", "emplace",
                   "append", "push", "push_front", "emplace_front")


def _binding_names(binding):
    """'const auto& [k, v]' -> ['k', 'v']; 'const Row& row' -> ['row']."""
    m = re.search(r"\[([^\]]*)\]\s*$", binding)
    if m:
        return [n.strip() for n in m.group(1).split(",") if n.strip()]
    m = re.search(r"([A-Za-z_]\w*)\s*$", binding)
    return [m.group(1)] if m else []


def _ident_in(name, text):
    return re.search(rf"(?<![\w.]){re.escape(name)}\b", text) is not None


def check_unordered_output_flow(tu, ctx):
    findings = []
    for fn in tu.all_functions():
        if fn.body is None:
            continue
        owner = ctx.class_by_name(fn.owner) if fn.owner else None
        scope = Scope(ctx, tu, fn, owner)
        tainted = {}   # local name -> human description of the source

        def sink_hits(text, line, bindings):
            live = dict(tainted)
            live.update(bindings)
            if not live:
                return
            for path_, args, _pos in extract_calls(text):
                callee = re.split(r"::|\.|->", path_)[-1]
                if not SINK_NAME_RE.search(callee):
                    continue
                for name, src in sorted(live.items()):
                    if _ident_in(name, args):
                        findings.append(Finding(
                            tu.path, line, "unordered-output-flow",
                            f"{fn.qname} passes {name} (carrying "
                            f"iteration order of {src}) to sink "
                            f"{callee}() without an intervening sort — "
                            "hash-table order reaches serialized bytes"))
                        break
            if "<<" in text:
                lhs = text.split("<<", 1)[0].strip()
                rhs = text.split("<<", 1)[1]
                is_stream = bool(STD_STREAMS_RE.search(lhs)) or \
                    type_head(scope.resolve(lhs)) in STREAM_HEADS
                if is_stream:
                    for name, src in sorted(live.items()):
                        if _ident_in(name, rhs):
                            findings.append(Finding(
                                tu.path, line, "unordered-output-flow",
                                f"{fn.qname} streams {name} (carrying "
                                f"iteration order of {src}) to "
                                f"{lhs or 'a stream'} without an "
                                "intervening sort"))
                            break

        def flow(text, line, bindings, decl_name=None):
            if SORT_RE.search(text):
                for name in list(tainted):
                    if _ident_in(name, text):
                        del tainted[name]
                return
            m = re.match(r"\s*([A-Za-z_]\w*)\s*\.\s*sort\s*\(", text)
            if m:
                tainted.pop(m.group(1), None)
                return
            sink_hits(text, line, bindings)
            live = dict(tainted)
            live.update(bindings)
            # Propagation: a decl initialized from taint, an append of a
            # tainted value, or a plain assignment from taint.
            if decl_name:
                init = text
                for name, src in live.items():
                    if name != decl_name and _ident_in(name, init):
                        tainted[decl_name] = src
                        break
                return
            for path_, args, _pos in extract_calls(text):
                parts = re.split(r"\.|->", path_)
                if len(parts) >= 2 and parts[-1] in MUTATING_APPEND:
                    target = parts[0]
                    for name, src in live.items():
                        if name != target and _ident_in(name, args):
                            tainted[target] = src
                            break
            eq = _assign_pos(text)
            if eq >= 0:
                target = chain_root(text[:eq])
                rhs = text[eq + 1:]
                hit = None
                for name, src in live.items():
                    if name != target and _ident_in(name, rhs):
                        hit = src
                        break
                if target:
                    if hit:
                        tainted[target] = hit
                    else:
                        tainted.pop(target, None)  # overwritten clean

        def visit(block, bindings):
            for s in block.stmts:
                if isinstance(s, Loop) and s.kind == "range_for":
                    t = scope.resolve(s.range_expr)
                    root = chain_root(s.range_expr)
                    src = None
                    if is_unordered(t):
                        src = f"{type_head(t)} ({s.range_expr})"
                    elif root in tainted:
                        src = tainted[root]
                    elif root in bindings:
                        src = bindings[root]
                    nb = dict(bindings)
                    if src:
                        for b in _binding_names(s.binding):
                            nb[b] = src
                    visit(s.body, nb)
                elif isinstance(s, Loop):
                    flow(s.header_text, s.line, bindings)
                    nb = dict(bindings)
                    m = re.search(
                        r"(?:auto|[\w:]+)\s*&?\s*([A-Za-z_]\w*)\s*=\s*"
                        r"([\w.>-]+)\s*\.\s*c?begin\s*\(",
                        s.header_text)
                    if m and is_unordered(scope.resolve(m.group(2))):
                        nb[m.group(1)] = (
                            f"{type_head(scope.resolve(m.group(2)))} "
                            f"({m.group(2)})")
                    visit(s.body, nb)
                elif isinstance(s, If):
                    flow(s.cond_text, s.line, bindings)
                    visit(s.then_block, bindings)
                    if s.else_block is not None:
                        visit(s.else_block, bindings)
                elif isinstance(s, Block):
                    visit(s, bindings)
                elif isinstance(s, VarDecl):
                    flow(s.text, s.line, bindings, decl_name=s.name)
                    for ch in s.children:
                        visit(ch, bindings)
                elif isinstance(s, ExprStmt):
                    flow(s.text, s.line, bindings)
                    for ch in s.children:
                        visit(ch, bindings)
                elif isinstance(s, Return):
                    pass  # callers may sort; returning taint is not a sink

        visit(fn.body, {})
    return findings


def _assign_pos(text):
    depth = 0
    angle = 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "=" and depth == 0 and angle == 0:
            prev = text[i - 1] if i else ""
            nxt = text[i + 1] if i + 1 < len(text) else ""
            if prev not in "=!<>+-*/%&|^" and nxt != "=":
                return i
    return -1

"""Per-function access walker — the dataflow substrate of race
inference (raceinfer.py).

One walk over every function body produces a FnWalk: every field/global
access with the kind of access and the root of its member chain, every
call site with a resolved receiver class when the type resolver can
prove one, and nested lambda walks.

Modeling decisions:

  * Lambda bodies become child FnWalks. A lambda is `launched` when its
    statement hands it to a thread boundary: ThreadPool::ParallelFor or
    ThreadPool::ParallelForPublishing, a std::thread constructor, or an
    emplace into a
    std::vector<std::thread>. Launched lambdas are the thread roots of
    the race inference (callgraph.py).
  * Constructors/destructors are walked (their calls are real) but
    their field accesses are skipped: an object under construction is
    not yet shared.
  * `std::atomic` fields and globals are never recorded, and constants
    are only read.

Ownership (the RacerD idea that kills index-disjoint false positives):
a locality map classifies names the current context can vouch for —
a by-value class local is *owned* (accesses through it are private to
this thread until it escapes), a function parameter is *param*
(pointer/reference arguments bind caller-owned state; the concurrent
event to flag is the address-of at the callsite), and a
reference/pointer local whose initializer draws only on owned/param
names is an *alias* inheriting the weaker of its sources (the
`AlignmentWorkspace& ws = workspace ? *workspace : local;` idiom).
Launched lambdas do NOT inherit the enclosing function's locality map
(captured-by-reference locals and parameters are shared across
workers); same-thread lambdas do. Element writes through a subscript
(`v_[i] = x`) are recorded as element accesses, not container writes:
the repo's fork-join idiom gives each worker a disjoint index range, and
the serial/parallel byte-identity oracles are the check on that claim.

Captured locals: a launched lambda's write to a local of its enclosing
function that it captures by reference (`[&]`, or `&name` in the
capture list) is every worker writing one object, so it is recorded as
a shared access keyed `<enclosing function>::<local>` with root
'local'. A write is an assignment, a compound assignment, `++`/`--`, a
MUTATING_METHODS call or an address-of; subscripted element writes and
`std::atomic` locals stay exempt, as for fields. Only the launched
lambda's own statements are checked, not same-thread lambdas nested in
it.
"""

import re

from cpputil import Scope, extract_calls, split_top_level, type_head
from model import (Block, ExprStmt, If, LocalClass, Loop, Return, VarDecl,
                   iter_stmts)

# Container entry points that mutate the container object itself (as
# opposed to reading through it). A call `field_.push_back(x)` is a
# write access to `field_`.
MUTATING_METHODS = {"push_back", "emplace_back", "push_front",
                    "emplace_front", "insert", "emplace", "push", "pop",
                    "pop_back", "pop_front", "append", "assign", "resize",
                    "reserve", "clear", "erase", "swap", "shrink_to_fit",
                    "Union", "Increment", "MergeFrom"}

# Thread-boundary spellings that launch a lambda onto another thread.
LAUNCH_RE = re.compile(r"\bParallelFor(?:Publishing)?\s*\(|\bstd::thread\b")

CHAIN_RE = re.compile(
    r"(?:this\s*->\s*)?[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*")

IDENT_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "new", "delete", "true", "false", "nullptr", "this",
                  "const", "static", "auto", "void", "int", "bool",
                  "size_t", "double", "float", "char", "else", "do",
                  "case", "default", "break", "continue", "std"}


class Access:
    """One field/global access.

    kind: 'read' | 'write' | 'elem' (subscripted element write —
    assumed index-disjoint, see module docstring).
    root: 'this' (owner-field rooted), 'global', 'var' (through a
    local/capture), 'param' (through a pointer/reference parameter of
    the enclosing function), 'owned' (through a by-value local of
    the current context), or 'local' (a launched lambda's write to a
    local of its enclosing function captured by reference).
    """

    __slots__ = ("key", "line", "kind", "root", "decl_line")

    def __init__(self, key, line, kind, root, decl_line=None):
        self.key = key
        self.line = line
        self.kind = kind
        self.root = root
        self.decl_line = decl_line  # declaration line of a 'local' key

    def __repr__(self):
        return f"Access({self.key}@{self.line} {self.kind} {self.root})"


class CallSite:
    """One call. recv_class is the callee owner class name when the
    receiver's type resolved ('' otherwise); recv_root mirrors
    Access.root for the receiver chain."""

    __slots__ = ("name", "recv_class", "recv_root")

    def __init__(self, name, recv_class, recv_root):
        self.name = name
        self.recv_class = recv_class
        self.recv_root = recv_root


class FnWalk:
    """Everything the downstream analyses need to know about one
    function (or lambda) body."""

    def __init__(self, fn, tu, owner, node_id, is_lambda=False,
                 launched=False, in_ctor=False):
        self.fn = fn
        self.tu = tu
        self.owner = owner
        self.node_id = node_id
        self.is_lambda = is_lambda
        self.launched = launched       # handed to a thread boundary
        self.in_ctor = in_ctor         # ctor/dtor body (or lambda herein)
        self.accesses = []             # [Access]
        self.callsites = []            # [CallSite]
        self.lambdas = []              # [FnWalk]
        # Enclosing-function locals a launched lambda captures by
        # reference: name -> declaration line.
        self.shared_locals = {}

    def walks(self):
        """This walk and every nested lambda walk."""
        yield self
        for lam in self.lambdas:
            yield from lam.walks()


def file_stem(path):
    import posixpath
    return posixpath.basename(path).rsplit(".", 1)[0]


def _is_shared_type(type_text):
    """False for the types whose accesses cannot race: std::atomic
    (every access is atomic) and constants (every access reads)."""
    t = type_text or ""
    if type_head(t).startswith("std::atomic"):
        return False
    return not (re.match(r"\s*(?:static\s+)?const\b", t) or
                "constexpr" in t)


def _split_chain(chain):
    """['a', 'b', 'c'] for 'a.b->c', with this-> stripped (returns
    (parts, had_this))."""
    c = re.sub(r"\s+", "", chain)
    had_this = False
    if c.startswith("this->"):
        had_this = True
        c = c[len("this->"):]
    parts = re.split(r"\.|->", c)
    return [p for p in parts if p], had_this


class _AccessScanner:
    """Extracts field/global accesses from one statement's text."""

    def __init__(self, walk, scope, ctx, owned):
        self.walk = walk
        self.scope = scope
        self.ctx = ctx
        self.owned = owned

    def scan(self, text, line):
        if not text:
            return
        eq = _top_level_assign_pos(text)
        compound = None
        if eq < 0:
            m = _top_level_compound(text)
            if m is not None:
                compound = m
        write_spans = []
        if eq >= 0:
            write_spans.append((0, eq))
        elif compound is not None:
            write_spans.append((0, compound))
        for m in CHAIN_RE.finditer(text):
            chain = m.group(0)
            parts, had_this = _split_chain(chain)
            if not parts or parts[0] in IDENT_KEYWORDS:
                continue
            start, end = m.start(), m.end()
            after = text[end:end + 24]
            # A call: the last component is the method/function name.
            is_call = bool(re.match(r"\s*\(", after))
            method = parts[-1] if is_call and len(parts) > 1 else None
            obj_parts = parts[:-1] if is_call else parts
            if is_call and len(parts) == 1:
                continue  # free function call, no receiver access
            if not obj_parts:
                continue
            kind = "read"
            if is_call and method in MUTATING_METHODS:
                kind = "write"
            elif self._in_spans(start, end, write_spans, text):
                kind = "write"
            elif self._incdec(text, start, end):
                kind = "write"
            elif start > 0 and text[start - 1] == "&" and \
                    (start < 2 or text[start - 2] != "&"):
                kind = "write"  # address taken: the alias can write
            if re.match(r"\s*\[", after) and kind == "write" and \
                    not is_call:
                kind = "elem"  # subscripted element write
            if kind == "write" and not had_this and \
                    obj_parts[0] in self.walk.shared_locals:
                self.walk.accesses.append(Access(
                    f"{self.walk.fn.qname}::{obj_parts[0]}", line, kind,
                    "local", self.walk.shared_locals[obj_parts[0]]))
            self._record(obj_parts, had_this, kind, line)

    def _in_spans(self, start, end, spans, text):
        for lo, hi in spans:
            if start >= lo and end <= hi:
                # Only the trailing chain of the LHS is the target.
                rest = text[end:hi]
                if not re.search(r"[A-Za-z_]", rest):
                    return True
        return False

    def _incdec(self, text, start, end):
        before = text[:start].rstrip()
        after = text[end:].lstrip()
        return before.endswith("++") or before.endswith("--") or \
            after.startswith("++") or after.startswith("--")

    def _record(self, parts, had_this, kind, line):
        """Resolves a member chain to per-step field keys. All steps but
        the last are reads; the last carries `kind`."""
        root = parts[0]
        owner = self.walk.owner
        scope = self.scope
        # Where does the chain start?
        if not had_this and root in self.owned:
            root_kind = self.owned[root]
            cls = self.ctx.class_of_type(scope.type_of_name(root))
            steps = parts[1:]
        elif not had_this and (root in scope.vars):
            root_kind = "var"
            cls = self.ctx.class_of_type(scope.type_of_name(root))
            steps = parts[1:]
        elif owner is not None and root in owner.fields:
            root_kind = "this"
            cls = owner
            steps = parts
        elif not had_this and root in self.walk.tu.globals:
            root_kind = "global"
            gtype = self.walk.tu.globals.get(root, "")
            if _is_shared_type(gtype):
                self.walk.accesses.append(Access(
                    f"{file_stem(self.walk.tu.path)}::{root}", line,
                    kind if len(parts) == 1 else "read", root_kind))
            # Member steps under a global struct: resolve onward.
            cls = self.ctx.class_of_type(gtype)
            steps = parts[1:]
        else:
            return  # unknown root: resolver gap -> silent (no FP)
        if steps and cls is not None:
            self._emit_steps(cls, steps, kind, line, root_kind)

    def _emit_steps(self, cls, steps, kind, line, root_kind):
        cur = cls
        for i, member in enumerate(steps):
            if cur is None:
                return
            field = cur.fields.get(member)
            if field is None:
                return  # method or unknown member: stop the chain
            final = (i == len(steps) - 1)
            if _is_shared_type(field.type_text):
                self.walk.accesses.append(Access(
                    f"{cur.name}::{member}", line,
                    kind if final else "read", root_kind))
            cur = self.ctx.class_of_type(field.type_text)


def _top_level_assign_pos(text):
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


def _top_level_compound(text):
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
        elif c == "=" and depth == 0 and angle == 0 and i > 0:
            if text[i - 1] in "+-*/%&|^" or text[max(0, i - 2):i] in \
                    ("<<", ">>"):
                nxt = text[i + 1] if i + 1 < len(text) else ""
                if nxt != "=":
                    return i
    return None


LAMBDA_OPEN_RE = re.compile(
    r"\[(?P<captures>[^\[\]]*)\]\s*(?:\((?P<params>[^()]*)\)\s*)?"
    r"(?:mutable\s*)?(?:->\s*[\w:<>&*\s]+?\s*)?\{")


def _top_level_lambdas(text):
    """Yields (introducer match, body end) for each lambda at the top
    level of a statement, in source order; the end is the index of the
    body's closing brace, or len(text) when it is missing."""
    pos = 0
    while True:
        m = LAMBDA_OPEN_RE.search(text, pos)
        if m is None:
            return
        depth = 0
        for i in range(m.end() - 1, len(text)):
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
        else:
            yield m, len(text)
            return
        yield m, i
        pos = i


def strip_lambda_bodies(text):
    """Returns `text` with the bodies of inline lambdas emptied to `{}`.
    Capture lists and the surrounding call survive (launch detection
    still sees `ParallelFor(`), but the body statements do not leak into
    the enclosing function's scan."""
    spans = [(m.end(), end) for m, end in _top_level_lambdas(text)]
    if not spans:
        return text
    out = []
    last = 0
    for lo, hi in spans:
        out.append(text[last:lo])
        last = hi
    out.append(text[last:])
    return "".join(out)


def lambda_introducers(text):
    """(captures, params) texts of the lambdas at the top level of a
    statement, in source order — the order the parser lists them as
    the statement's children."""
    return [(m.group("captures"), m.group("params") or "")
            for m, _end in _top_level_lambdas(text)]


def _declared_names(block):
    """name -> line of every local declared in `block`'s subtree
    (declarations and range-for bindings)."""
    names = {}
    for s in iter_stmts(block):
        if isinstance(s, VarDecl):
            names.setdefault(s.name, (s.type_text, s.line))
        elif isinstance(s, Loop) and s.kind == "range_for":
            m = re.search(r"([A-Za-z_]\w*)\s*$", s.binding)
            if m and "[" not in s.binding:
                names.setdefault(m.group(1), ("", s.line))
    return names


def _by_reference_locals(captures, params, body, fn_locals):
    """name -> declaration line of the enclosing function's locals a
    lambda with this capture list, parameter list and body captures by
    reference, std::atomic locals excluded."""
    default_ref = False
    explicit_ref = set()
    by_value = set()
    for item in filter(None, map(str.strip, split_top_level(captures))):
        if item == "&":
            default_ref = True
        elif item in ("=", "this", "*this"):
            continue
        elif item.startswith("&"):
            if "=" not in item:  # `&r = expr` declares a new name
                explicit_ref.add(item[1:].strip())
        else:
            by_value.add(item.split("=")[0].strip())
    own = set(_declared_names(body))
    for param in filter(None, map(str.strip, split_top_level(params))):
        m = re.search(r"([A-Za-z_]\w*)\s*(?:=.*)?$", param)
        if m:
            own.add(m.group(1))
    names = set(fn_locals) if default_ref else set()
    names = (names | (explicit_ref & set(fn_locals))) - by_value - own
    return {name: fn_locals[name][1] for name in names
            if _is_shared_type(fn_locals[name][0])}


def _is_ctor_dtor(fn, owner):
    if owner is None:
        return False
    return fn.name == owner.name or fn.name == f"~{owner.name}"


def walk_function(fn, tu, ctx, owner):
    """Walks one function definition; returns its FnWalk (with nested
    lambda FnWalks attached)."""
    scope = Scope(ctx, tu, fn, owner)
    node_id = f"{tu.path}::{fn.qname}@{fn.line}"
    top = FnWalk(fn, tu, owner, node_id,
                 in_ctor=_is_ctor_dtor(fn, owner))

    def scan_text(walk, owned, text, line):
        """Calls + accesses for one statement text. Inline lambda bodies
        are stripped first: their statements are walked as child
        FnWalks with their own concurrency level, and double-counting
        them here would attribute a worker's accesses to the launching
        thread."""
        text = strip_lambda_bodies(text)
        for path_, _args, _pos in extract_calls(text):
            callee = re.split(r"::|\.|->", path_)[-1]
            recv_class, recv_root = _receiver(path_, callee, scope, ctx,
                                              owner, owned)
            walk.callsites.append(CallSite(callee, recv_class, recv_root))
        if not walk.in_ctor:
            _AccessScanner(walk, scope, ctx, owned).scan(text, line)

    def walk_block(walk, owned, block):
        for s in block.stmts:
            if isinstance(s, VarDecl):
                if "&" not in s.type_text and "*" not in s.type_text:
                    if ctx.class_of_type(s.type_text) is not None:
                        owned[s.name] = "owned"
                else:
                    kind = _alias_kind(s.init_text, scope, owner, owned, tu)
                    if kind is not None:
                        owned[s.name] = kind
                scan_text(walk, owned, s.text, s.line)
                _child_lambdas(walk, owned, s)
            elif isinstance(s, ExprStmt):
                scan_text(walk, owned, s.text, s.line)
                _child_lambdas(walk, owned, s)
            elif isinstance(s, Return):
                if s.expr_text:
                    scan_text(walk, owned, s.expr_text, s.line)
            elif isinstance(s, If):
                scan_text(walk, owned, s.cond_text, s.line)
                walk_block(walk, owned, s.then_block)
                if s.else_block is not None:
                    walk_block(walk, owned, s.else_block)
            elif isinstance(s, Loop):
                scan_text(walk, owned, s.header_text, s.line)
                walk_block(walk, owned, s.body)
            elif isinstance(s, Block):
                walk_block(walk, owned, s)
            elif isinstance(s, LocalClass):
                pass  # its methods are walked as their own functions

    def _child_lambdas(walk, owned, s):
        if not s.children:
            return
        launched = bool(LAUNCH_RE.search(s.text)) or \
            _thread_vector_launch(s.text, scope, ctx)
        intros = lambda_introducers(s.text) if launched else []
        for i, ch in enumerate(s.children):
            lam = FnWalk(fn, tu, owner,
                         f"{walk.node_id}#lambda@{ch.line}",
                         is_lambda=True, launched=launched,
                         in_ctor=walk.in_ctor and not launched)
            if len(intros) == len(s.children):
                lam.shared_locals = _by_reference_locals(
                    intros[i][0], intros[i][1], ch, fn_locals)
            walk.lambdas.append(lam)
            # Launched lambdas run on another thread: no inherited
            # ownership (captured locals are shared).
            lam_owned = {} if launched else dict(owned)
            walk_block(lam, lam_owned, ch)

    fn_locals = _declared_names(fn.body) if fn.body is not None else {}
    if fn.body is not None:
        # The locality map: name -> 'owned' | 'param'. Params are the
        # caller-owned bet; by-value class locals and safe aliases join
        # as the body is walked.
        locality = {p.name: "param" for p in fn.params if p.name}
        walk_block(top, locality, fn.body)
    return top


def _alias_kind(init_text, scope, owner, owned, tu):
    """Locality of a reference/pointer local, judged by its initializer:
    if every identifier that names in-scope state (a local, a field of
    the owner, a global) is itself owned/param, the alias inherits the
    weaker of those kinds; any shared-rooted or unresolved source makes
    the alias untracked (root 'var'). Handles the scratch-buffer idiom
    `AlignmentWorkspace& ws = workspace != nullptr ? *workspace : local;`
    and summary handles like `EncodingSummary& s = enc.summary;`."""
    if not init_text:
        return None
    kinds = set()
    for m in re.finditer(r"[A-Za-z_]\w*", init_text):
        name = m.group(0)
        if name in IDENT_KEYWORDS:
            continue
        prev = init_text[:m.start()].rstrip()
        if prev.endswith((".", "->", "::")):
            continue  # member/namespace step, not a chain root
        if name in owned:
            kinds.add(owned[name])
        elif name in scope.vars or name in tu.globals or \
                (owner is not None and name in owner.fields):
            return None
    if not kinds:
        return None
    return "param" if "param" in kinds else "owned"


def _thread_vector_launch(text, scope, ctx):
    """True when the statement emplaces into a std::vector<std::thread>
    — the `threads.emplace_back([&, w] { ... })` launch idiom of
    ParallelFor itself."""
    for m in re.finditer(r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*"
                         r"(?:\.|->)\s*(?:emplace_back|push_back)\s*\(",
                         text):
        t = scope.resolve(m.group(1))
        if type_head(t) == "std::vector" and "std::thread" in t:
            return True
    return False


def _receiver(path, callee, scope, ctx, owner, owned):
    """(receiver class name, receiver root kind) for a call path like
    'index.Build' / 'ThreadPool::ParallelFor' / 'Build'."""
    prefix = path[: len(path) - len(callee)]
    prefix = prefix.rstrip(".:->")
    prefix = re.sub(r"\s+", "", prefix)
    if not prefix:
        if owner is not None and any(m.name == callee
                                     for m in owner.methods):
            return owner.name, "this"
        return "", ""
    if "::" in path and "." not in prefix and "->" not in prefix:
        cls = ctx.class_by_name(prefix)
        if cls is not None:
            return cls.name, "static"
        return "", ""
    parts, had_this = _split_chain(prefix)
    root_kind = "var"
    if had_this or (owner is not None and parts and
                    parts[0] in owner.fields and
                    parts[0] not in scope.vars):
        root_kind = "this"
    elif parts and parts[0] in owned:
        root_kind = owned[parts[0]]
    t = scope.resolve(prefix)
    cls = ctx.class_of_type(t)
    if cls is not None:
        return cls.name, root_kind
    return "", root_kind


def walk_tree(tus, ctx):
    """Walks every function definition in the analyzed tree. Returns a
    list of top-level FnWalks."""
    walks = []
    for tu in tus:
        for fn in tu.all_functions():
            if fn.body is None:
                continue
            owner = ctx.class_by_name(fn.owner) if fn.owner else None
            walks.append(walk_function(fn, tu, ctx, owner))
    return walks

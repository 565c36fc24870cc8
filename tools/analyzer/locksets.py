"""Per-function lockset/access walker — the dataflow substrate shared by
lock-order analysis (lockgraph.py), race inference (raceinfer.py), and
the blocking-under-lock check (dataflow.py).

One walk over every function body produces a FnWalk: the locks acquired
(with the held-set at each acquisition site — lockgraph replays these
into the acquired-while-held graph), every field/global access with the
lockset held at that point, every call site with its held-set and a
resolved receiver class when the type resolver can prove one, and nested
lambda walks. Keeping a single walker is what stops the lock-order and
race analyses from drifting: they cannot disagree about where a lock is
held because they read the same events.

Modeling decisions, shared with (and lifted from) lockgraph.py:

  * `MutexLock lock(&mu)` scopes release at block end; explicit
    Lock/TryLock/Unlock mutate the running held list.
  * REQUIRES(mu) annotations seed the entry held-set.
  * Lambda bodies get a fresh held-set (the closure may run later on
    another thread) and become child FnWalks. A lambda is `launched`
    when its statement hands it to a thread boundary: ThreadPool::Submit,
    ThreadPool::ParallelFor, a std::thread constructor, or an emplace
    into a std::vector<std::thread>. Launched lambdas are the thread
    roots of the race inference (callgraph.py).
  * Constructors/destructors are walked (their lock edges are real) but
    their field accesses are marked so race inference can treat them as
    single-threaded: an object under construction is not yet shared.

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
workers); same-thread lambdas do. Element writes through a subscript (`v_[i] = x`) are
recorded as element accesses, not container writes: the repo's fork-join
idiom gives each worker a disjoint index range, and the serial/parallel
byte-identity oracles are the check on that claim.
"""

import re

from cpputil import Scope, extract_calls, split_top_level, type_head
from model import (Block, ExprStmt, If, LocalClass, Loop, Return, VarDecl)

LOCK_CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(Lock|TryLock|Unlock)\s*\(")

REQUIRES_RE = re.compile(
    r"\b(?:REQUIRES|EXCLUSIVE_LOCKS_REQUIRED)\s*\(")

LOG_PSEUDO_LOCK = "logging::g_severity_mu"

MUTEX_TYPE_HEADS = ("Mutex", "util::Mutex", "infoshield::Mutex")
MUTEXLOCK_TYPE_HEADS = ("MutexLock", "util::MutexLock",
                        "infoshield::MutexLock")

# Types that synchronize internally (or are the synchronization): field
# accesses on them are never data races at this level of abstraction.
SYNC_TYPE_HEADS = ("Mutex", "util::Mutex", "infoshield::Mutex",
                   "MutexLock", "CondVar", "util::CondVar",
                   "infoshield::CondVar", "ThreadPool",
                   "infoshield::ThreadPool", "std::atomic",
                   "std::once_flag", "std::mutex",
                   "std::condition_variable", "std::thread")

# Container entry points that mutate the container object itself (as
# opposed to reading through it). A call `field_.push_back(x)` is a
# write access to `field_`.
MUTATING_METHODS = {"push_back", "emplace_back", "push_front",
                    "emplace_front", "insert", "emplace", "push", "pop",
                    "pop_back", "pop_front", "append", "assign", "resize",
                    "reserve", "clear", "erase", "swap", "shrink_to_fit",
                    "Union", "Increment", "MergeFrom"}

# Thread-boundary spellings that launch a lambda onto another thread.
LAUNCH_RE = re.compile(r"\b(?:Submit|ParallelFor)\s*\(|\bstd::thread\b")

EXCLUDED_FILES = ("util/mutex.h", "util/mutex.cc",
                  "util/thread_annotations.h")

FUZZ_ENTRY = "LLVMFuzzerTestOneInput"

CHAIN_RE = re.compile(
    r"(?:this\s*->\s*)?[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*")

COMPOUND_ASSIGN_RE = re.compile(r"(\+|-|\*|/|%|&&?|\|\|?|\^|<<|>>)=(?!=)")

IDENT_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "new", "delete", "true", "false", "nullptr", "this",
                  "const", "static", "auto", "void", "int", "bool",
                  "size_t", "double", "float", "char", "else", "do",
                  "case", "default", "break", "continue", "std"}


def is_excluded(path):
    return any(path.endswith(e) for e in EXCLUDED_FILES)


class Access:
    """One field/global access with its lockset.

    kind: 'read' | 'write' | 'elem' (subscripted element access —
    assumed index-disjoint, see module docstring).
    root: 'this' (owner-field rooted), 'global', 'var' (through a
    local/capture), 'param' (through a pointer/reference parameter of
    the enclosing function), or 'owned' (through a by-value local of
    the current context).
    via_guarded: the chain passed through a container field that
    carries its own GUARDED_BY — TSA already polices every path to the
    leaf, so inference defers to the aggregate's annotation.
    """

    __slots__ = ("key", "line", "kind", "held", "window", "root",
                 "via_guarded")

    def __init__(self, key, line, kind, held, window, root,
                 via_guarded=False):
        self.key = key
        self.line = line
        self.kind = kind
        self.held = held
        self.window = window
        self.root = root
        self.via_guarded = via_guarded

    def __repr__(self):
        return (f"Access({self.key}@{self.line} {self.kind} "
                f"held={sorted(self.held)})")


class CallSite:
    """One call with the held-set at the site. recv_class is the callee
    owner class name when the receiver's type resolved ('' otherwise);
    recv_root mirrors Access.root for the receiver chain."""

    __slots__ = ("name", "path", "recv_class", "recv_root", "held",
                 "line", "window")

    def __init__(self, name, path, recv_class, recv_root, held, line,
                 window):
        self.name = name
        self.path = path
        self.recv_class = recv_class
        self.recv_root = recv_root
        self.held = held
        self.line = line
        self.window = window


class Acquire:
    __slots__ = ("name", "held_before", "line", "detail")

    def __init__(self, name, held_before, line, detail):
        self.name = name
        self.held_before = held_before
        self.line = line
        self.detail = detail


class Op:
    """A potentially-blocking operation (I/O, sleep) with the lockset at
    the site — consumed by the blocking-under-lock check."""

    __slots__ = ("desc", "held", "line")

    def __init__(self, desc, held, line):
        self.desc = desc
        self.held = held
        self.line = line


# Direct blocking calls: stdio and sleeps. CHECK/LOG are deliberately
# NOT here (see dataflow.py); CondVar::Wait is excluded by receiver
# type.
BLOCKING_CALL_NAMES = {"fopen", "fclose", "fread", "fwrite", "fprintf",
                       "printf", "fputs", "fputc", "fgets", "fflush",
                       "getline", "perror", "system", "sleep", "usleep",
                       "sleep_for", "sleep_until"}

OSTREAM_HEADS = ("std::ostream", "std::ofstream", "std::fstream")

STD_STREAM_WRITE_RE = re.compile(r"\bstd::c(?:out|err|log)\b\s*<<")

STREAM_LHS_RE = re.compile(
    r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*<<")


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
        self.entry_held = []           # canonical mutexes from REQUIRES
        self.acquires = []             # [Acquire]
        self.accesses = []             # [Access]
        self.callsites = []            # [CallSite]
        self.calls_log = False
        self.log_under_lock = []       # [(held tuple, line, callee)]
        self.ops = []                  # [Op] blocking operations
        self.lambdas = []              # [FnWalk]

    # --- aggregation over this walk plus nested lambdas (the summary
    # shape lockgraph's transitive pass consumes) ---------------------

    def walks(self):
        yield self
        for lam in self.lambdas:
            yield from lam.walks()

    def walks_same_thread(self):
        """Like walks(), but stops at launched lambdas: their bodies run
        on another thread, so their blocking ops are not the caller's."""
        yield self
        for lam in self.lambdas:
            if not lam.launched:
                yield from lam.walks_same_thread()

    def all_acquired(self):
        out = set(self.entry_held)
        for w in self.walks():
            out.update(a.name for a in w.acquires)
        return out

    def all_callee_names(self):
        return {c.name for w in self.walks() for c in w.callsites}

    def all_callsites(self):
        return [c for w in self.walks() for c in w.callsites]

    def any_calls_log(self):
        return any(w.calls_log for w in self.walks())

    def all_log_under_lock(self):
        return [s for w in self.walks() for s in w.log_under_lock]

    def all_acquires(self):
        return [a for w in self.walks() for a in w.acquires]


class Canonicalizer:
    """Maps a mutex (or field) expression to a stable node name:
    Class::field for members, <filestem>::<name> for file-scope
    globals — shared verbatim with the lock-order graph so a GUARDED_BY
    suggestion names the same node the dot graph does."""

    def __init__(self, ctx, tu, fn, owner, scope):
        self.ctx = ctx
        self.tu = tu
        self.fn = fn
        self.owner = owner
        self.scope = scope

    def canon(self, expr):
        e = expr.strip().lstrip("&*").strip()
        e = re.sub(r"^this\s*->\s*", "", e)
        m = re.match(r"^(.*?)(?:\.|->)\s*([A-Za-z_]\w*)$", e, re.DOTALL)
        if m:
            obj, field = m.group(1).strip(), m.group(2)
            t = self.scope.resolve(obj)
            cls = self.ctx.class_of_type(t)
            if cls is not None:
                return f"{cls.name}::{field}"
            return f"?::{e}"
        name = e
        if self.owner is not None and name in self.owner.fields:
            return f"{self.owner.name}::{name}"
        if name in self.tu.globals:
            return f"{file_stem(self.tu.path)}::{name}"
        if name in self.scope.vars:
            return f"{self.fn.qname}::{name}"
        return f"?::{name}"


def file_stem(path):
    import posixpath
    return posixpath.basename(path).rsplit(".", 1)[0]


def is_log_call(name):
    return name.startswith("CHECK") or name == "LOG" or \
        name.startswith("LOG_")


def _is_sync_type(type_text):
    head = type_head(type_text or "")
    if head.startswith("std::atomic"):
        return True
    return head in SYNC_TYPE_HEADS


def _is_const_type(type_text):
    return bool(re.match(r"\s*(?:static\s+)?const\b", type_text or "")) or \
        "constexpr" in (type_text or "")


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

    def scan(self, text, line, held, window):
        if not text:
            return
        held_f = frozenset(held)
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
            self._record(obj_parts, had_this, kind, line, held_f, window,
                         text, start)

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

    def _record(self, parts, had_this, kind, line, held, window, text,
                start):
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
            self._emit(owner, root, parts[1:], kind, line, held, window,
                       root_kind)
            return
        elif not had_this and root in self.walk.tu.globals:
            root_kind = "global"
            key = f"{file_stem(self.walk.tu.path)}::{root}"
            gtype = self.walk.tu.globals.get(root, "")
            if not _is_sync_type(gtype) and not _is_const_type(gtype):
                self.walk.accesses.append(Access(
                    key, line, kind if len(parts) == 1 else "read",
                    held, window, root_kind))
            # Member steps under a global struct: resolve onward.
            cls = self.ctx.class_of_type(gtype)
            steps = parts[1:]
            if steps and cls is not None:
                self._emit_steps(
                    cls, steps, kind, line, held, window, root_kind,
                    via_guarded=bool(
                        self.walk.tu.global_guards.get(root)))
            return
        else:
            return  # unknown root: resolver gap -> silent (no FP)
        if steps and cls is not None:
            self._emit_steps(cls, steps, kind, line, held, window,
                             root_kind)

    def _emit(self, owner, root, rest, kind, line, held, window,
              root_kind):
        field = owner.fields.get(root)
        if field is None:
            return
        final = not rest
        if not (_is_sync_type(field.type_text) or
                _is_const_type(field.type_text)):
            self.walk.accesses.append(Access(
                f"{owner.name}::{root}", line,
                kind if final else "read", held, window, root_kind))
        if rest:
            cls = self.ctx.class_of_type(field.type_text)
            if cls is not None:
                self._emit_steps(cls, rest, kind, line, held, window,
                                 root_kind,
                                 via_guarded=bool(field.guarded_by))

    def _emit_steps(self, cls, steps, kind, line, held, window, root_kind,
                    via_guarded=False):
        cur = cls
        for i, member in enumerate(steps):
            if cur is None:
                return
            field = cur.fields.get(member)
            if field is None:
                return  # method or unknown member: stop the chain
            final = (i == len(steps) - 1)
            if not (_is_sync_type(field.type_text) or
                    _is_const_type(field.type_text)):
                self.walk.accesses.append(Access(
                    f"{cur.name}::{member}", line,
                    kind if final else "read", held, window, root_kind,
                    via_guarded=via_guarded))
            if field.guarded_by:
                via_guarded = True
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
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:->\s*[\w:<>&*\s]+?\s*)?\{")


def strip_lambda_bodies(text):
    """Returns `text` with the bodies of inline lambdas emptied to `{}`.
    Capture lists and the surrounding call survive (launch detection and
    window tracking still see `Submit(` / `ParallelFor(`), but the body
    statements do not leak into the enclosing function's scan."""
    spans = []
    pos = 0
    while True:
        m = LAMBDA_OPEN_RE.search(text, pos)
        if m is None:
            break
        depth = 0
        end = None
        for i in range(m.end() - 1, len(text)):
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end is None:
            spans.append((m.end(), len(text)))
            break
        spans.append((m.end(), end))
        pos = end
    if not spans:
        return text
    out = []
    last = 0
    for lo, hi in spans:
        out.append(text[last:lo])
        last = hi
    out.append(text[last:])
    return "".join(out)


def _is_ctor_dtor(fn, owner):
    if owner is None:
        return False
    return fn.name == owner.name or fn.name == f"~{owner.name}"


def walk_function(fn, tu, ctx, owner):
    """Walks one function definition; returns its FnWalk (with nested
    lambda FnWalks attached)."""
    scope = Scope(ctx, tu, fn, owner)
    canon = Canonicalizer(ctx, tu, fn, owner, scope)
    node_id = f"{tu.path}::{fn.qname}@{fn.line}"
    top = FnWalk(fn, tu, owner, node_id,
                 in_ctor=_is_ctor_dtor(fn, owner))

    for ann in fn.annotations:
        m = REQUIRES_RE.search(ann)
        if m:
            inner = ann[m.end():ann.rfind(")")]
            for arg in split_top_level(inner):
                if arg.strip():
                    top.entry_held.append(canon.canon(arg))

    state = {"window": False}

    def scan_text(walk, owned, text, held, line):
        """Lock events + calls + accesses for one statement text. Inline
        lambda bodies are stripped first: their statements are walked as
        child FnWalks with their own held-set and concurrency level, and
        double-counting them here would attribute a worker's accesses to
        the launching thread."""
        text = strip_lambda_bodies(text)
        for m in LOCK_CALL_RE.finditer(text):
            obj, op = m.group(1), m.group(2)
            name = canon.canon(obj)
            if op == "Unlock":
                if name in held:
                    held.remove(name)
            else:
                walk.acquires.append(Acquire(name, tuple(held), line,
                                             f"{obj}.{op}()"))
                held.append(name)
        for path_, _args, _pos in extract_calls(text):
            callee = re.split(r"::|\.|->", path_)[-1]
            if callee in ("Lock", "TryLock", "Unlock"):
                continue
            if is_log_call(callee):
                walk.calls_log = True
                if held:
                    walk.log_under_lock.append((tuple(held), line, callee))
                continue
            recv_class, recv_root = _receiver(path_, callee, scope, ctx,
                                              owner, owned)
            walk.callsites.append(CallSite(
                callee, path_, recv_class, recv_root, tuple(held), line,
                state["window"]))
            if callee in BLOCKING_CALL_NAMES:
                walk.ops.append(Op(f"{callee}()", tuple(held), line))
        if STD_STREAM_WRITE_RE.search(text):
            walk.ops.append(Op("console stream output", tuple(held), line))
        else:
            m = STREAM_LHS_RE.search(text)
            if m and type_head(scope.resolve(m.group(1))) in OSTREAM_HEADS:
                walk.ops.append(Op(f"stream output to {m.group(1)}",
                                   tuple(held), line))
        if not walk.in_ctor:
            _AccessScanner(walk, scope, ctx, owned).scan(
                text, line, held, state["window"])
        _update_window(text, scope, ctx, state)

    def walk_block(walk, owned, block, held):
        held = list(held)
        for s in block.stmts:
            if isinstance(s, VarDecl):
                if type_head(s.type_text) in MUTEXLOCK_TYPE_HEADS:
                    arg = s.init_text.strip().lstrip("(").rstrip(")")
                    arg = arg.split(",")[0]
                    name = canon.canon(arg)
                    walk.acquires.append(Acquire(
                        name, tuple(held), s.line,
                        f"MutexLock in {fn.qname}"))
                    held.append(name)
                else:
                    if "&" not in s.type_text and "*" not in s.type_text:
                        if ctx.class_of_type(s.type_text) is not None:
                            owned[s.name] = "owned"
                    else:
                        kind = _alias_kind(s.init_text, scope, owner,
                                           owned, tu)
                        if kind is not None:
                            owned[s.name] = kind
                    scan_text(walk, owned, s.text, held, s.line)
                _child_lambdas(walk, owned, s, held)
            elif isinstance(s, ExprStmt):
                scan_text(walk, owned, s.text, held, s.line)
                _child_lambdas(walk, owned, s, held)
            elif isinstance(s, Return):
                if s.expr_text:
                    scan_text(walk, owned, s.expr_text, held, s.line)
            elif isinstance(s, If):
                scan_text(walk, owned, s.cond_text, held, s.line)
                walk_block(walk, owned, s.then_block, held)
                if s.else_block is not None:
                    walk_block(walk, owned, s.else_block, held)
            elif isinstance(s, Loop):
                scan_text(walk, owned, s.header_text, held, s.line)
                walk_block(walk, owned, s.body, held)
            elif isinstance(s, Block):
                walk_block(walk, owned, s, held)
            elif isinstance(s, LocalClass):
                pass  # its methods are walked as their own functions

    def _child_lambdas(walk, owned, s, held):
        if not s.children:
            return
        launched = bool(LAUNCH_RE.search(s.text)) or \
            _thread_vector_launch(s.text, scope, ctx)
        for ch in s.children:
            lam = FnWalk(fn, tu, owner,
                         f"{walk.node_id}#lambda@{ch.line}",
                         is_lambda=True, launched=launched,
                         in_ctor=walk.in_ctor and not launched)
            walk.lambdas.append(lam)
            # Launched lambdas run on another thread: fresh held-set and
            # no inherited ownership (captured locals are shared).
            lam_owned = {} if launched else dict(owned)
            walk_block(lam, lam_owned, ch, [])

    if fn.body is not None:
        # The locality map: name -> 'owned' | 'param'. Params are the
        # caller-owned bet; by-value class locals and safe aliases join
        # as the body is walked.
        locality = {p.name: "param" for p in fn.params if p.name}
        walk_block(top, locality, fn.body, list(top.entry_held))
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
    — the `workers_.emplace_back([this] { WorkerLoop(); })` launch
    idiom."""
    for m in re.finditer(r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)\s*"
                         r"(?:\.|->)\s*(?:emplace_back|push_back)\s*\(",
                         text):
        t = scope.resolve(m.group(1))
        if type_head(t) == "std::vector" and "std::thread" in t:
            return True
    return False


def _receiver(path, callee, scope, ctx, owner, owned):
    """(receiver class name, receiver root kind) for a call path like
    'pool.Submit' / 'ThreadPool::ParallelFor' / 'Submit'."""
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


def _update_window(text, scope, ctx, state):
    """Tracks the Submit..Wait concurrency window in a launching
    function: after a Submit the submitted task may run concurrently
    with the remainder of the function until a pool Wait joins it.
    ParallelFor joins internally and opens no window."""
    for m in re.finditer(r"((?:[A-Za-z_]\w*(?:\.|->))*[A-Za-z_]\w*)"
                         r"\s*(?:\.|->)\s*(Submit|Wait)\s*\(", text):
        obj, op = m.group(1), m.group(2)
        t = scope.resolve(obj)
        cls = ctx.class_of_type(t)
        head = type_head(t)
        is_pool = (cls is not None and cls.name == "ThreadPool") or \
            head.endswith("ThreadPool")
        if not is_pool:
            continue
        state["window"] = (op == "Submit")


def walk_tree(tus, ctx):
    """Walks every function definition in the analyzed tree (minus the
    primitive mutex layer). Returns a list of top-level FnWalks."""
    walks = []
    for tu in tus:
        if is_excluded(tu.path):
            continue
        for fn in tu.all_functions():
            if fn.body is None:
                continue
            owner = ctx.class_by_name(fn.owner) if fn.owner else None
            walks.append(walk_function(fn, tu, ctx, owner))
    return walks

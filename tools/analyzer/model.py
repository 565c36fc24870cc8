"""Normalized AST model shared by the analyzer's two frontends.

The checks in tools/analyzer/checks.py consume this model only — they
never look at raw source text or raw clang JSON. Two producers build it:

 * tools/analyzer/clang_frontend.py lowers `clang++ -Xclang
   -ast-dump=json` output (exact ASTs, used whenever a clang driver is
   installed);
 * tools/analyzer/parser.py is a built-in structural parser for the
   repo's disciplined C++ subset, used when no clang driver exists so
   the local gate still runs on gcc-only toolchains.

The model is deliberately small: classes with their fields, functions
with parameter lists and a statement tree (blocks, loops, ifs, returns,
variable declarations, expression statements), plus the raw text of
every statement for expression-level helpers. Statement text is always
comment- and string-stripped.
"""

import re


class Field:
    """A class data member."""

    def __init__(self, name, type_text, line):
        self.name = name
        self.type_text = type_text.strip()
        self.line = line

    def __repr__(self):
        return f"Field({self.type_text} {self.name})"


class ClassDecl:
    def __init__(self, name, qname, file, line):
        self.name = name
        self.qname = qname  # Outer::Inner for nested classes
        self.file = file
        self.line = line
        self.fields = {}    # name -> Field
        self.methods = []   # FunctionDecl
        self.inner = []     # nested ClassDecl

    def __repr__(self):
        return f"ClassDecl({self.qname}, {len(self.fields)} fields)"


class Param:
    def __init__(self, name, type_text):
        self.name = name
        self.type_text = type_text.strip()

    def __repr__(self):
        return f"Param({self.type_text} {self.name})"


class FunctionDecl:
    """A function or method definition (body != None) or declaration."""

    def __init__(self, name, owner, return_type, params, body, file, line,
                 annotations=None):
        self.name = name            # unqualified (Flush, NeedlemanWunsch)
        self.owner = owner          # owning class name ("" for free fns)
        self.return_type = return_type.strip()
        self.params = params        # [Param]
        self.body = body            # Block or None
        self.file = file
        self.line = line
        # Raw trailing annotations: const, override, noexcept
        self.annotations = annotations or []
        self.is_hot = False         # set from `// analyzer: hot` comments

    @property
    def qname(self):
        return f"{self.owner}::{self.name}" if self.owner else self.name

    def __repr__(self):
        return f"FunctionDecl({self.qname})"


class Stmt:
    def __init__(self, line):
        self.line = line


class Block(Stmt):
    """kind: 'plain' for ordinary scopes, 'lambda' for lambda bodies
    (the closure may run later, possibly on another thread)."""

    def __init__(self, line, stmts=None, kind="plain"):
        super().__init__(line)
        self.stmts = stmts if stmts is not None else []
        self.kind = kind


class Loop(Stmt):
    """kind: 'for' | 'while' | 'do' | 'range_for'. For range_for, binding
    and range_expr carry the two halves of the header."""

    def __init__(self, line, kind, header_text, body, binding="",
                 range_expr=""):
        super().__init__(line)
        self.kind = kind
        self.header_text = header_text.strip()
        self.body = body
        self.binding = binding.strip()
        self.range_expr = range_expr.strip()


class If(Stmt):
    def __init__(self, line, cond_text, then_block, else_block=None):
        super().__init__(line)
        self.cond_text = cond_text.strip()
        self.then_block = then_block
        self.else_block = else_block


class Return(Stmt):
    def __init__(self, line, expr_text):
        super().__init__(line)
        self.expr_text = expr_text.strip()


class VarDecl(Stmt):
    def __init__(self, line, name, type_text, init_text, children=None):
        super().__init__(line)
        self.name = name
        self.type_text = type_text.strip()
        self.init_text = init_text.strip()
        self.children = children or []  # lambda Blocks inside the init

    @property
    def text(self):
        # Uniform access for expression-level helpers.
        return f"{self.type_text} {self.name} {self.init_text}"


class ExprStmt(Stmt):
    def __init__(self, line, text, children=None):
        super().__init__(line)
        self.text = text.strip()
        self.children = children or []  # lambda Blocks inside the stmt


class LocalClass(Stmt):
    """A class/struct defined inside a function body. Its fields are
    analyzed like those of any other class."""

    def __init__(self, line, decl):
        super().__init__(line)
        self.decl = decl


class TU:
    """One parse unit (a .cc or .h file) in normalized form."""

    def __init__(self, path):
        self.path = path            # repo-relative, '/'-separated
        self.classes = []           # top-level ClassDecl (nested inside)
        self.functions = []         # FunctionDecl at namespace scope
        self.globals = {}           # name -> type_text (namespace-scope vars)
        self.aliases = {}           # `using Name = Type;` -> Name: Type
        # Comment-derived line maps (1-based), shared by both frontends:
        self.hot_lines = set()      # lines whose comment says analyzer: hot
        self.allow = {}             # line -> set of allowed check names
        self.determinism_lines = set()
        # Lifetime contracts (DESIGN.md §17): line -> set of member names
        # declared as owning / borrowing storage. A borrows() without a
        # `-- reason` lands its line in borrows_noreason instead.
        self.owns = {}
        self.borrows = {}
        self.borrows_noreason = set()
        self.frontend = "internal"  # or "clang"
        self.raw_lines = []         # unstripped source, for comment geometry

    def all_classes(self):
        out = []

        def walk(c):
            out.append(c)
            for i in c.inner:
                walk(i)
        for c in self.classes:
            walk(c)
        for f in self.functions:
            if f.body is not None:
                for lc in iter_local_classes(f.body):
                    walk(lc.decl)
        return out

    def all_functions(self):
        out = list(self.functions)
        for c in self.all_classes():
            out.extend(c.methods)
        return out


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def iter_stmts(block):
    """Yields every Stmt in a block subtree, including lambda bodies and
    loop/if bodies, in source order."""
    for s in block.stmts:
        yield s
        if isinstance(s, Block):
            yield from iter_stmts(s)
        elif isinstance(s, Loop):
            yield from iter_stmts(s.body)
        elif isinstance(s, If):
            yield from iter_stmts(s.then_block)
            if s.else_block is not None:
                yield from iter_stmts(s.else_block)
        elif isinstance(s, (ExprStmt, VarDecl)):
            for child in s.children:
                yield child
                yield from iter_stmts(child)


def iter_local_classes(block):
    for s in iter_stmts(block):
        if isinstance(s, LocalClass):
            yield s


ANNOT_COMMENT_RE = re.compile(
    r"analyzer:\s*(?:(?P<hot>hot\b)"
    r"|allow\(\s*(?P<allow>[\w\-, ]+?)\s*\)(?:\s*--\s*(?P<reason>.*))?"
    r"|owns\(\s*(?P<owns>[\w, ]+?)\s*\)"
    r"|borrows\(\s*(?P<borrows>[\w, ]+?)\s*\)"
    r"(?:\s*--\s*(?P<borrow_reason>.*))?)")


def scan_annotation_comments(raw_text, tu):
    """Populates tu.hot_lines / tu.allow / tu.determinism_lines and the
    lifetime-contract maps (tu.owns / tu.borrows) from the comments of
    raw (unstripped) source text. Shared by both frontends so suppression
    and contract semantics cannot drift between them.

    Syntax:
      // analyzer: hot                      (function annotation)
      // analyzer: allow(<check>[, ...]) -- <reason>
      // analyzer: owns(<field>)            (field owns its storage)
      // analyzer: borrows(<member>) -- <why the owner outlives it>
      // determinism: <why order cannot leak>   (unordered-iter only)
    """
    for i, line in enumerate(raw_text.splitlines(), start=1):
        comment = _comment_part(line)
        if comment is None:
            continue
        if "determinism:" in comment:
            tu.determinism_lines.add(i)
        m = ANNOT_COMMENT_RE.search(comment)
        if not m:
            continue
        if m.group("hot"):
            tu.hot_lines.add(i)
        elif m.group("owns"):
            names = {n.strip() for n in m.group("owns").split(",")
                     if n.strip()}
            tu.owns.setdefault(i, set()).update(names)
        elif m.group("borrows"):
            names = {n.strip() for n in m.group("borrows").split(",")
                     if n.strip()}
            tu.borrows.setdefault(i, set()).update(names)
            if not (m.group("borrow_reason") or "").strip():
                # A borrows() without a reason is reported by the
                # view-escape check: the why is the contract.
                tu.borrows_noreason.add(i)
        else:
            checks = {c.strip() for c in m.group("allow").split(",")
                      if c.strip()}
            reason = (m.group("reason") or "").strip()
            if not reason:
                # An allow without a reason is itself a finding; mark it
                # with the reserved pseudo-check so the driver reports it.
                checks = {"__missing_reason__"} | checks
            tu.allow.setdefault(i, set()).update(checks)


def _comment_part(line):
    """Returns the // comment text of a line, or None. Quote-aware enough
    for the repo's style (no multi-line string literals)."""
    in_str = None
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
        elif c in "\"'":
            in_str = c
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[i + 2:]
        i += 1
    return None


def contract_names_for(line, line_map, raw_lines):
    """Union of the member names annotated on `line` itself or in the
    unbroken //-comment run directly above it — the same geometry as
    allow() — from a {line: set(names)} map (tu.owns / tu.borrows)."""
    out = set()
    out |= line_map.get(line, set())
    j = line - 1
    while j >= 1 and j <= len(raw_lines) and \
            raw_lines[j - 1].lstrip().startswith("//"):
        out |= line_map.get(j, set())
        j -= 1
    return out


def comment_run_covers(line, marker_lines, raw_lines):
    """True if `marker_lines` contains `line` itself or any line of the
    unbroken //-comment run directly above it: the geometry of both
    allow() suppressions and `determinism:` markers."""
    if line in marker_lines:
        return True
    j = line - 1
    while j >= 1 and j <= len(raw_lines) and \
            raw_lines[j - 1].lstrip().startswith("//"):
        if j in marker_lines:
            return True
        j -= 1
    return False

"""Built-in structural C++ frontend for the analyzer.

Parses the repo's disciplined C++ subset (see tools/lint.py for the
conventions that make this tractable: no exceptions, column-0 namespace
scope) into the normalized AST model of tools/analyzer/model.py. Used
when no clang driver is installed; when clang++ is available,
tools/analyzer/clang_frontend.py produces the same model from exact
`-ast-dump=json` ASTs instead.

The parser is deliberately forgiving: segments it cannot classify are
skipped, never fatal, so an exotic construct degrades to a missed
statement rather than a crashed gate.
"""

import re

from model import (Block, ClassDecl, ExprStmt, Field, FunctionDecl, If,
                   LocalClass, Loop, Param, Return, Stmt, TU, VarDecl,
                   scan_annotation_comments)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "do", "else", "return",
                    "case", "default", "break", "continue", "goto", "try",
                    "catch", "sizeof", "new", "delete", "throw", "using",
                    "typedef", "friend", "template", "public", "private",
                    "protected", "static_assert", "operator"}

TYPE_QUALIFIERS = ("const ", "static ", "constexpr ", "mutable ",
                   "inline ", "volatile ", "extern ")

CLASS_HEAD_RE = re.compile(
    r"^(?:template\s*<.*>\s*)?(?:class|struct)\b(?!.*\benum\b)", re.DOTALL)

ACCESS_LABEL_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")
CASE_LABEL_RE = re.compile(r"^\s*(?:case\b[^:]*|default\s*):(?!:)")

# Trailing function annotations worth keeping.
ANNOTATION_RE = re.compile(r"\b(const|override|noexcept)\b(\s*\([^)]*\))?")

# `using Name = Type;` at any scope. Alias names are unique across the
# repo's disciplined subset, so a flat per-TU map suffices; the resolver
# (cpputil.dealias) chases chains like `using Views = SlotList;`.
USING_ALIAS_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;=]+?)\s*;")

VAR_DECL_RE = re.compile(
    r"^(?:(?:const|static|constexpr|mutable|inline|volatile)\s+)*"
    r"(?P<type>[A-Za-z_][\w]*(?:::[A-Za-z_]\w*)*(?:\s*<.*>)?"
    r"(?:::[A-Za-z_]\w*)*(?:\s*(?:const)?\s*[&*])*)"
    r"\s+(?P<name>[A-Za-z_]\w*)\s*(?P<rest>[;({=\[].*)?$",
    re.DOTALL)


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving newlines and
    column positions (same contract as tools/lint.py's helper)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_preprocessor(text):
    """Blanks preprocessor directive lines (including backslash
    continuations) so #define bodies are never parsed as code."""
    lines = text.split("\n")
    in_directive = False
    for i, line in enumerate(lines):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            lines[i] = " " * len(line)
        else:
            in_directive = False
    return "\n".join(lines)


class _Cursor:
    """Offset/line bookkeeping over the stripped text."""

    def __init__(self, text):
        self.text = text
        # newline offsets for O(log n) offset->line
        self.nl = [i for i, c in enumerate(text) if c == "\n"]

    def line_of(self, offset):
        import bisect
        return bisect.bisect_right(self.nl, offset - 1) + 1


def match_brace(text, open_pos):
    """Offset of the '}' matching the '{' at open_pos (strings already
    blanked). Returns len(text)-1 when unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def match_paren(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def split_top_level(text, sep=","):
    """Splits on `sep` at zero paren/brace/bracket/angle depth."""
    parts = []
    depth_round = depth_brace = depth_sq = depth_angle = 0
    cur = []
    for c in text:
        if c == "(":
            depth_round += 1
        elif c == ")":
            depth_round -= 1
        elif c == "{":
            depth_brace += 1
        elif c == "}":
            depth_brace -= 1
        elif c == "[":
            depth_sq += 1
        elif c == "]":
            depth_sq -= 1
        elif c == "<":
            depth_angle += 1
        elif c == ">":
            depth_angle = max(0, depth_angle - 1)
        if (c == sep and depth_round == 0 and depth_brace == 0 and
                depth_sq == 0 and depth_angle <= 0):
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


class Parser:
    def __init__(self, path, raw_text):
        self.path = path
        self.raw = raw_text
        stripped = strip_comments_and_strings(raw_text)
        self.text = blank_preprocessor(stripped)
        self.cur = _Cursor(self.text)
        self.tu = TU(path)
        scan_annotation_comments(raw_text, self.tu)
        # Type aliases feed the resolver of BOTH frontends: the clang
        # lowerer wraps this parser, so the scan happens exactly once.
        for m in USING_ALIAS_RE.finditer(self.text):
            self.tu.aliases.setdefault(m.group(1), m.group(2).strip())

    def parse(self):
        self.parse_decl_region(0, len(self.text), class_ctx=None)
        self._mark_hot_functions()
        return self.tu

    # ----- declaration-level parsing -------------------------------------

    def parse_decl_region(self, lo, hi, class_ctx):
        """Scans [lo, hi) for namespace-scope or class-scope declarations.
        class_ctx is the enclosing ClassDecl or None."""
        i = lo
        text = self.text
        while i < hi:
            c = text[i]
            if c in " \t\n;":
                i += 1
                continue
            # Segment: up to the first top-level ';' or a '{' body.
            seg_start = i
            paren = 0
            body_open = -1
            j = i
            while j < hi:
                ch = text[j]
                if ch == "(":
                    paren += 1
                elif ch == ")":
                    paren -= 1
                elif ch == "=" and paren == 0:
                    # `= default;`, `= delete;`, or an initializer — any
                    # '{' after a top-level '=' is an initializer brace,
                    # not a body. Scan on to the terminating ';'.
                    j = self._skip_initializer(j, hi)
                    body_open = -1
                    break
                elif ch == "{" and paren == 0:
                    body_open = j
                    break
                elif ch == ";" and paren == 0:
                    break
                j += 1
            if body_open >= 0:
                body_close = match_brace(text, body_open)
                head = text[seg_start:body_open]
                self.classify_body_segment(head, seg_start, body_open,
                                           body_close, class_ctx)
                i = body_close + 1
                # consume a trailing `;` (class) if present
                while i < hi and text[i] in " \t\n":
                    i += 1
                if i < hi and text[i] == ";":
                    i += 1
            else:
                seg_end = min(j, hi)
                head = text[seg_start:seg_end]
                self.classify_plain_segment(head, seg_start, class_ctx)
                i = seg_end + 1

    def _skip_initializer(self, eq_pos, hi):
        """From a top-level '=', returns the offset of the terminating
        ';' (skipping initializer braces/parens)."""
        depth = 0
        j = eq_pos
        text = self.text
        while j < hi:
            ch = text[j]
            if ch in "({[":
                depth += 1
            elif ch in ")}]":
                depth -= 1
            elif ch == ";" and depth <= 0:
                return j
            j += 1
        return hi - 1

    def classify_body_segment(self, head, seg_start, body_open, body_close,
                              class_ctx):
        head_clean = ACCESS_LABEL_RE.sub("", head).strip()
        blanked = ACCESS_LABEL_RE.sub(lambda m: " " * len(m.group(0)),
                                      head)
        lead_ws = len(blanked) - len(blanked.lstrip())
        line = self.cur.line_of(seg_start + lead_ws)
        if head_clean.startswith("namespace"):
            self.parse_decl_region(body_open + 1, body_close, class_ctx)
            return
        if re.match(r"^enum\b", head_clean):
            return  # enumerators carry no analyzer-relevant structure
        if CLASS_HEAD_RE.match(head_clean) and \
                self._looks_like_class_head(head_clean):
            decl = self.parse_class(head_clean, body_open, body_close, line,
                                    outer=class_ctx)
            if decl is not None:
                if class_ctx is not None:
                    class_ctx.inner.append(decl)
                else:
                    self.tu.classes.append(decl)
            return
        if "(" in head_clean:
            fn = self.parse_function(head_clean, body_open, body_close, line,
                                     class_ctx)
            if fn is not None:
                if class_ctx is not None:
                    class_ctx.methods.append(fn)
                else:
                    self.tu.functions.append(fn)
            return
        # `struct X { ... } instance;` and other exotica: skip.

    def _looks_like_class_head(self, head):
        # `class X`, `struct X : public Y`, `class MACRO("x") X` — but not
        # a function returning `class X*` etc. (absent from the repo).
        sig = head.split(":")[0]
        return "(" not in re.sub(r"\([^)]*\)", "", sig) or True

    def classify_plain_segment(self, head, seg_start, class_ctx):
        head_clean = ACCESS_LABEL_RE.sub("", head).strip()
        if not head_clean:
            return
        # Line of the declaration itself, not of the segment start: the
        # segment begins right after the previous ';' and may open with
        # whitespace, blanked comments, or an access label — the
        # contract/suppression comment geometry anchors on the decl.
        blanked = ACCESS_LABEL_RE.sub(lambda m: " " * len(m.group(0)),
                                      head)
        lead_ws = len(blanked) - len(blanked.lstrip())
        line = self.cur.line_of(seg_start + lead_ws)
        first = re.match(r"[A-Za-z_~]\w*", head_clean)
        first_word = first.group(0) if first else ""
        if first_word in ("using", "typedef", "friend", "namespace",
                          "static_assert", "extern"):
            return
        # Fields may legally contain parens in template args like
        # std::function<void()>. Strip any top-level initializer first,
        # then route on whether a parameter-list '(' remains at
        # angle-bracket depth 0.
        head_decl = self._strip_top_level_init(head_clean).strip()
        if _paren_at_angle_depth0(head_decl) >= 0:
            # Function/method declaration (no body) or var with ctor init.
            fn = self.parse_signature(head_decl, line, class_ctx)
            if fn is not None:
                if class_ctx is not None:
                    class_ctx.methods.append(fn)
                else:
                    self.tu.functions.append(fn)
            return
        # Field (class scope) or global variable (namespace scope).
        dm = VAR_DECL_RE.match(head_decl + ";")
        if not dm:
            return
        type_text = dm.group("type").strip()
        name = dm.group("name")
        if type_text.split("<")[0].split("::")[-1].strip("&* ") in \
                CONTROL_KEYWORDS or first_word in CONTROL_KEYWORDS:
            return
        if class_ctx is not None:
            if "static" in head.split(name)[0] and "constexpr" in head:
                return  # compile-time constant, not a data member
            class_ctx.fields[name] = Field(name, type_text, line)
        else:
            self.tu.globals[name] = type_text

    def _strip_top_level_init(self, text):
        """Drops `= initializer...` at paren/angle depth 0 (keeps
        `= default` / `= delete`, which mark special member functions)."""
        stripped = text.strip()
        if stripped.endswith("default") or stripped.endswith("delete"):
            return text
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
                if prev not in "=!<>+-*/&|^" and nxt != "=":
                    return text[:i]
        return text

    def parse_class(self, head, body_open, body_close, line, outer):
        sig = head.split(":")[0]
        sig = re.sub(r"^template\s*<.*>", "", sig, flags=re.DOTALL)
        sig = re.sub(r"\([^)]*\)", "", sig)  # alignas(64) etc.
        idents = re.findall(r"[A-Za-z_]\w*", sig)
        idents = [w for w in idents if w not in
                  ("class", "struct", "final", "alignas")]
        if not idents:
            return None
        name = idents[-1]
        qname = f"{outer.qname}::{name}" if outer is not None else name
        decl = ClassDecl(name, qname, self.path, line)
        self.parse_decl_region(body_open + 1, body_close, class_ctx=decl)
        return decl

    def parse_function(self, head, body_open, body_close, line, class_ctx):
        fn = self.parse_signature(head, line, class_ctx)
        if fn is None:
            return None
        fn.body = self.parse_block(body_open + 1, body_close)
        return fn

    def parse_signature(self, head, line, class_ctx):
        paren = head.find("(")
        if paren < 0:
            return None
        # Find the parameter-list '(': the first one following the final
        # identifier of the declarator. `operator()` is skipped outright.
        close = match_paren(head, paren)
        before = head[:paren].strip()
        before = re.sub(r"^template\s*<.*>", "", before, flags=re.DOTALL)
        before = re.sub(r"\[\[[^\]]*\]\]", "", before).strip()
        m = re.search(r"((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*|operator\s*..?)$",
                      before)
        if not m:
            return None
        declarator = m.group(1)
        if declarator.startswith("operator"):
            return None
        return_type = before[:m.start()].strip()
        parts = declarator.split("::")
        name = parts[-1]
        owner = parts[-2] if len(parts) >= 2 else ""
        if class_ctx is not None and not owner:
            owner = class_ctx.name
        if name.startswith("~"):
            name = name  # destructor; keep the tilde, body still analyzed
        if not return_type and not owner:
            # Not a function: probably a macro invocation or var with
            # ctor-style init at namespace scope.
            if name == name.upper():
                return None
        params = self.parse_params(head[paren + 1:close])
        trailer = head[close + 1:]
        annotations = [mm.group(0) for mm in ANNOTATION_RE.finditer(trailer)]
        return FunctionDecl(name, owner, return_type, params, None,
                            self.path, line, annotations)

    def parse_params(self, params_text):
        params = []
        for part in split_top_level(params_text):
            part = part.strip()
            if not part or part == "void":
                continue
            part = part.split("=")[0].strip()  # default args
            m = re.search(r"([A-Za-z_]\w*)$", part)
            if not m:
                params.append(Param("", part))
                continue
            name = m.group(1)
            type_text = part[:m.start()].strip()
            if not type_text:  # unnamed param of a plain type
                params.append(Param("", part))
            else:
                params.append(Param(name, type_text))
        return params

    def _mark_hot_functions(self):
        raw_lines = self.raw.splitlines()
        for fn in self.tu.all_functions():
            if fn.body is None:
                continue
            # `// analyzer: hot` sits in the comment run directly above
            # the definition's first line.
            j = fn.line - 1
            while j >= 1 and raw_lines[j - 1].lstrip().startswith("//"):
                if j in self.tu.hot_lines:
                    fn.is_hot = True
                    break
                j -= 1

    # ----- statement-level parsing ---------------------------------------

    def parse_block(self, lo, hi, kind="plain"):
        block = Block(self.cur.line_of(lo), kind=kind)
        text = self.text
        i = lo
        while i < hi:
            c = text[i]
            if c in " \t\n;":
                i += 1
                continue
            i = self._strip_labels(i, hi)
            if i >= hi:
                break
            line = self.cur.line_of(i)
            word = re.match(r"[A-Za-z_]\w*", text[i:i + 32])
            kw = word.group(0) if word else ""
            if text[i] == "{":
                close = match_brace(text, i)
                block.stmts.append(self.parse_block(i + 1, close))
                i = close + 1
            elif kw in ("for", "while", "switch", "if"):
                i = self._parse_control(kw, i, hi, line, block)
            elif kw == "do":
                i = self._parse_do(i, hi, line, block)
            elif kw == "else":
                # bare else at this level means the matching if was parsed
                # as a single statement; treat the else arm as a block.
                i += 4
                i = self._skip_ws(i, hi)
                if text[i:i + 2] == "if":
                    continue  # loop re-dispatches as `if`
                i = self._parse_stmt_or_block_into(i, hi, block)
            elif kw == "return":
                end = self._stmt_end(i, hi)
                block.stmts.append(
                    Return(line, text[i + 6:end].strip()))
                i = end + 1
            elif kw in ("class", "struct") and \
                    self._local_class_ahead(i, hi):
                i = self._parse_local_class(kw, i, hi, line, block)
            else:
                end = self._stmt_end(i, hi)
                stmt_text = text[i:end]
                children = self._extract_lambda_blocks(i, end)
                block.stmts.append(
                    self._classify_stmt(stmt_text, line, children))
                i = end + 1
        return block

    def _skip_ws(self, i, hi):
        while i < hi and self.text[i] in " \t\n":
            i += 1
        return i

    def _strip_labels(self, i, hi):
        """Skips `case X:` / `default:` / `public:` labels."""
        text = self.text
        while True:
            m = CASE_LABEL_RE.match(text[i:hi]) or \
                ACCESS_LABEL_RE.match(text[i:hi])
            if not m:
                return i
            i += m.end()
            i = self._skip_ws(i, hi)

    def _local_class_ahead(self, i, hi):
        # `struct X { ... };` inside a function body — a '{' occurs
        # before any '(' or ';'.
        text = self.text
        for j in range(i, hi):
            if text[j] == "{":
                return True
            if text[j] in "(;=":
                return False
        return False

    def _parse_local_class(self, kw, i, hi, line, block):
        text = self.text
        open_pos = text.find("{", i)
        close = match_brace(text, open_pos)
        head = text[i:open_pos]
        decl = self.parse_class(head, open_pos, close, line, outer=None)
        if decl is not None:
            block.stmts.append(LocalClass(line, decl))
        i = close + 1
        end = self._stmt_end(i, hi)  # skip `;` (and any declarator)
        return end + 1

    def _parse_control(self, kw, i, hi, line, block):
        text = self.text
        paren = text.find("(", i)
        if paren < 0 or paren > hi:
            return self._stmt_end(i, hi) + 1
        close = match_paren(text, paren)
        header = text[paren + 1:close]
        body_start = self._skip_ws(close + 1, hi)
        if kw == "if":
            then_block, i = self._parse_stmt_or_block(body_start, hi)
            else_block = None
            j = self._skip_ws(i, hi)
            if text[j:j + 4] == "else" and not re.match(r"\w", text[j + 4:
                                                                   j + 5]):
                j = self._skip_ws(j + 4, hi)
                else_block, i = self._parse_stmt_or_block(j, hi)
            block.stmts.append(If(line, header, then_block, else_block))
            return i
        body, i = self._parse_stmt_or_block(body_start, hi)
        if kw == "switch":
            block.stmts.append(body)  # cases become plain statements
            return i
        colon_split = None
        if kw == "for":
            parts = split_top_level(header, ";")
            if len(parts) == 1:
                bind_range = split_top_level(header, ":")
                if len(bind_range) >= 2:
                    colon_split = (bind_range[0], ":".join(bind_range[1:]))
        if colon_split is not None:
            block.stmts.append(Loop(line, "range_for", header, body,
                                    binding=colon_split[0],
                                    range_expr=colon_split[1]))
        else:
            block.stmts.append(Loop(line, kw, header, body))
        return i

    def _parse_do(self, i, hi, line, block):
        text = self.text
        body_start = self._skip_ws(i + 2, hi)
        body, i = self._parse_stmt_or_block(body_start, hi)
        # consume `while (...);`
        j = self._skip_ws(i, hi)
        if text[j:j + 5] == "while":
            paren = text.find("(", j)
            close = match_paren(text, paren)
            header = text[paren + 1:close]
            i = self._stmt_end(close, hi) + 1
        else:
            header = ""
        block.stmts.append(Loop(line, "do", header, body))
        return i

    def _parse_stmt_or_block(self, i, hi):
        """Parses one statement or one braced block; returns (Block, next)."""
        text = self.text
        i = self._skip_ws(i, hi)
        if i < hi and text[i] == "{":
            close = match_brace(text, i)
            return self.parse_block(i + 1, close), close + 1
        holder = Block(self.cur.line_of(i))
        nxt = self._parse_one_into(i, hi, holder)
        return holder, nxt

    def _parse_stmt_or_block_into(self, i, hi, block):
        inner, nxt = self._parse_stmt_or_block(i, hi)
        block.stmts.append(inner)
        return nxt

    def _parse_one_into(self, i, hi, block):
        """Parses exactly one statement (possibly a nested control
        statement) into `block`; returns the next offset."""
        text = self.text
        i = self._skip_ws(i, hi)
        if i >= hi:
            return i
        line = self.cur.line_of(i)
        word = re.match(r"[A-Za-z_]\w*", text[i:i + 32])
        kw = word.group(0) if word else ""
        if kw in ("for", "while", "switch", "if"):
            return self._parse_control(kw, i, hi, line, block)
        if kw == "do":
            return self._parse_do(i, hi, line, block)
        if kw == "return":
            end = self._stmt_end(i, hi)
            block.stmts.append(Return(line, text[i + 6:end].strip()))
            return end + 1
        end = self._stmt_end(i, hi)
        children = self._extract_lambda_blocks(i, end)
        block.stmts.append(self._classify_stmt(text[i:end], line, children))
        return end + 1

    def _stmt_end(self, i, hi):
        """Offset of the ';' ending the statement starting at i. Skips ';'
        inside parens, brackets, and brace groups (lambda bodies,
        initializer lists)."""
        text = self.text
        depth = 0
        j = i
        while j < hi:
            c = text[j]
            if c in "({[":
                depth += 1
            elif c in ")}]":
                depth -= 1
            elif c == ";" and depth <= 0:
                return j
            j += 1
        return hi

    def _extract_lambda_blocks(self, i, end):
        """Parses `{...}` groups inside a statement as lambda bodies when
        they follow `)` or `]` (a lambda introducer/param list); brace
        initializers after identifiers are left alone."""
        text = self.text
        children = []
        j = i
        while j < end:
            if text[j] == "{":
                k = j - 1
                while k >= i and text[k] in " \t\n":
                    k -= 1
                if k >= i and text[k] in ")]":
                    close = match_brace(text, j)
                    children.append(
                        self.parse_block(j + 1, min(close, end),
                                         kind="lambda"))
                    j = close + 1
                    continue
                # initializer brace: skip the whole group
                j = match_brace(text, j) + 1
                continue
            j += 1
        return children

    def _classify_stmt(self, stmt_text, line, children):
        s = stmt_text.strip()
        s_flat = " ".join(s.split())
        m = VAR_DECL_RE.match(s_flat)
        if m:
            first = s_flat.split("<")[0].split()[0].rstrip("&*")
            tword = m.group("type").split("<")[0].split("::")[0].strip("&* ")
            if first not in CONTROL_KEYWORDS and tword not in \
                    CONTROL_KEYWORDS and not s_flat.startswith("return"):
                rest = m.group("rest") or ""
                # A call like `foo.bar(x)` must not classify as a decl;
                # real decls have a type token with no '.' and the name
                # directly follows the (possibly templated) type.
                if "." not in m.group("type"):
                    type_text = m.group("type")
                    if re.match(r"(?:(?:const|constexpr|inline|volatile|"
                                r"mutable)\s+)*static\b", s_flat):
                        # Keep the storage class: the lifetime pass
                        # treats static locals as program-lifetime.
                        type_text = "static " + type_text
                    return VarDecl(line, m.group("name"), type_text,
                                   rest, children)
        return ExprStmt(line, s, children)


def _paren_at_angle_depth0(text):
    """Offset of the first '(' outside template angle brackets, or -1."""
    angle = 0
    for i, c in enumerate(text):
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "(" and angle == 0:
            return i
    return -1


def parse_file(path, repo_rel):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    tu = Parser(repo_rel, raw).parse()
    tu.raw_lines = raw.splitlines()
    return tu

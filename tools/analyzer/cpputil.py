"""Expression-level helpers over the normalized AST: call extraction,
member-chain parsing, and a small type resolver.

The resolver answers the questions the checks ask — "is this expression
an unordered container?", "which class does this member belong to?",
"is this variable a std::string?" — by chaining declared types
through member accesses, subscripts, and known method return types. It
returns "" whenever it cannot prove a type; checks treat "" as
"unknown" and stay silent, so resolver gaps cause missed findings, not
false positives.
"""

import re

CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*[A-Za-z_]\w*)\s*\(")

CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                 "static_cast", "const_cast", "reinterpret_cast",
                 "dynamic_cast", "decltype", "alignof", "noexcept",
                 "catch", "new", "delete", "assert", "defined"}

CHAIN_TOKEN_RE = re.compile(r"^\s*(?:this\s*->\s*)?([A-Za-z_]\w*)")

CONTAINER_HEADS = ("std::vector", "std::string", "std::unordered_map",
                   "std::unordered_set", "std::map", "std::set",
                   "std::deque", "std::queue", "std::priority_queue",
                   "std::list", "std::stringstream", "std::ostringstream")

# Non-owning view types: the object does not own the bytes it exposes
# (DESIGN.md §17). Iterators are views too, matched by name suffix.
VIEW_HEADS = ("std::string_view", "std::span")

# Container entry points that may invalidate live iterators/references
# into the container (grow, shrink, rehash, or reseat storage).
CONTAINER_MUTATORS = {"push_back", "emplace_back", "pop_back",
                      "push_front", "emplace_front", "pop_front",
                      "insert", "emplace", "emplace_hint", "erase",
                      "clear", "resize", "reserve", "assign",
                      "shrink_to_fit", "swap", "push", "pop", "append",
                      "rehash", "merge", "extract"}


def find_balanced(text, open_pos, open_ch="(", close_ch=")"):
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def extract_calls(text):
    """Yields (path, args_text, start) for every call-looking site.
    `path` is whitespace-free, e.g. "index.TopPhrases" or "CHECK_EQ"."""
    for m in CALL_RE.finditer(text):
        path = re.sub(r"\s+", "", m.group(1))
        last = path.split("::")[-1].split(".")[-1].split("->")[-1]
        if last in CALL_KEYWORDS or path.split("::")[0] in CALL_KEYWORDS:
            continue
        close = find_balanced(text, m.end() - 1)
        if close < 0:
            continue
        yield path, text[m.end():close], m.start()


def split_top_level(text, sep=","):
    parts = []
    depth = 0
    angle = 0
    cur = []
    for c in text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        if c == sep and depth == 0 and angle == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def template_args(type_text):
    """["K", "V"] for "std::unordered_map<K, V>"; [] when not templated."""
    lt = type_text.find("<")
    if lt < 0:
        return []
    gt = type_text.rfind(">")
    if gt < lt:
        return []
    return [a.strip() for a in split_top_level(type_text[lt + 1:gt])]


def bare_type(type_text):
    """Strips const/&/*/whitespace — "const Shard&" -> "Shard"."""
    t = re.sub(r"\b(?:const|volatile|mutable|static|constexpr)\b", " ",
               type_text)
    return t.replace("&", " ").replace("*", " ").strip()


def type_head(type_text):
    return bare_type(type_text).split("<")[0].strip()


def is_unordered(type_text):
    # Head-based on purpose: std::array<std::unordered_map<...>, N>
    # iterates deterministically even though an unordered type appears
    # in its arguments.
    return type_head(type_text or "") in ("std::unordered_map",
                                          "std::unordered_set")


def is_map_like(type_text):
    return type_head(type_text or "") in ("std::unordered_map", "std::map")


def is_string(type_text):
    return type_head(type_text or "") == "std::string"


def is_heap_container(type_text):
    head = type_head(type_text or "")
    return head in CONTAINER_HEADS


def element_type(type_text):
    """The type produced by operator[] / iteration on a container."""
    head = type_head(type_text)
    args = template_args(bare_type(type_text))
    if not args:
        return ""
    if head in ("std::vector", "std::array", "std::deque", "std::set",
                "std::unordered_set", "std::queue", "std::priority_queue",
                "std::list"):
        return args[0]
    if head in ("std::map", "std::unordered_map"):
        return args[1] if len(args) > 1 else ""
    return ""


def dealias(type_text, aliases, depth=0):
    """Chases `using Name = Type;` aliases through the head of a type:
    "Views" -> "std::vector<std::string_view>". Qualifiers and &/* are
    re-applied so "const Views&" dealiases to
    "const std::vector<std::string_view>&"."""
    if not type_text or not aliases or depth > 4:
        return type_text
    head = type_head(type_text)
    target = aliases.get(head) or aliases.get(head.split("::")[-1])
    if target is None:
        return type_text
    suffix = ""
    stripped = type_text.rstrip()
    while stripped and stripped[-1] in "&*":
        suffix = stripped[-1] + suffix
        stripped = stripped[:-1].rstrip()
    prefix = "const " if re.search(r"\bconst\b", type_text) and \
        "const" not in target else ""
    return dealias(prefix + target + suffix, aliases, depth + 1)


def is_view(type_text):
    """True for non-owning view types: string_view, span, iterators.
    Callers dealias first (Scope does so automatically)."""
    head = type_head(type_text or "")
    if head in VIEW_HEADS:
        return True
    # type_head cuts at '<', losing member suffixes like
    # `std::vector<int>::iterator` — check the full bare type too.
    return head.endswith("iterator") or \
        bare_type(type_text or "").endswith("iterator")


def is_owning(type_text):
    """True when the (dealiased) type owns heap storage that a view can
    dangle into: the std containers plus std::pair/tuple/array/optional
    of them. User types are deliberately excluded — miss toward
    silence."""
    head = type_head(type_text or "")
    if head in CONTAINER_HEADS:
        return True
    if head in ("std::pair", "std::tuple", "std::array", "std::optional"):
        return any(is_owning(a) for a in template_args(bare_type(type_text)))
    return False


def std_method_return(obj_type, method):
    """Return types of the std methods the lifetime checks care about;
    "" when unknown. `substr` on std::string returns a *temporary*
    std::string — the distinction the dangling-view check turns on."""
    head = type_head(obj_type or "")
    if head == "std::string":
        if method == "substr":
            return "std::string"
        if method in ("data", "c_str"):
            return "const char*"
    elif head == "std::string_view":
        if method == "substr":
            return "std::string_view"
        if method == "data":
            return "const char*"
    if head in CONTAINER_HEADS or head in VIEW_HEADS:
        if method in ("begin", "end", "cbegin", "cend", "rbegin", "rend"):
            return f"{head}::iterator"
        if method in ("front", "back"):
            elem = element_type(obj_type)
            return elem + "&" if elem else ""
        if method == "data":
            elem = element_type(obj_type)
            return elem + "*" if elem else ""
        if method == "at":
            elem = element_type(obj_type)
            return elem + "&" if elem else ""
    return ""


def is_mutating_method(obj_type, method, ctx):
    """True when calling `method` on an object of (dealiased) `obj_type`
    may invalidate iterators/references into it: the std container
    mutators, or any non-const method of a known user class. Unknown
    types and methods answer False — miss toward silence."""
    head = type_head(obj_type or "")
    if not head:
        return False
    if head.startswith("std::"):
        return head in CONTAINER_HEADS and method in CONTAINER_MUTATORS
    cls = ctx.class_of_type(obj_type)
    if cls is None:
        return False
    decls = [m for m in cls.methods if m.name == method]
    if not decls:
        return False
    return not any(
        any(a.split("(")[0].strip() == "const" for a in m.annotations)
        for m in decls)


class Scope:
    """Name -> type lookup for one function body: parameters, local
    declarations (flattened — good enough for the repo's unique local
    names), the owner class's fields, and the TU's globals."""

    def __init__(self, ctx, tu, fn, owner_class):
        self.ctx = ctx
        self.tu = tu
        self.fn = fn
        self.owner = owner_class
        self.vars = {}
        self.inits = {}  # name -> init text, for resolving `auto`
        for p in fn.params:
            if p.name:
                self.vars[p.name] = p.type_text
        if fn.body is not None:
            from model import VarDecl, iter_stmts, Loop
            for s in iter_stmts(fn.body):
                if isinstance(s, VarDecl):
                    self.vars.setdefault(s.name, s.type_text)
                    init = s.init_text
                    if init.startswith("="):
                        init = init[1:]
                    elif init.startswith("(") or init.startswith("{"):
                        init = init[1:-1] if len(init) >= 2 else ""
                    self.inits.setdefault(s.name, init.strip())
                elif isinstance(s, Loop) and s.kind == "range_for":
                    m = re.search(r"([A-Za-z_]\w*)\s*$", s.binding)
                    if m and "[" not in s.binding:
                        self.vars.setdefault(m.group(1),
                                             "__range_elem__:" +
                                             s.range_expr)

    def type_of_name(self, name, depth=0):
        if depth > 6:
            return ""
        t = self.vars.get(name, "")
        if t.startswith("__range_elem__:"):
            rt = self.resolve(t.split(":", 1)[1], depth + 1)
            return element_type(rt) if rt else ""
        if t and bare_type(t).startswith("auto"):
            init = self.inits.get(name, "")
            return self.resolve(init, depth + 1) if init else ""
        if t:
            return dealias(t, self.tu.aliases)
        if self.owner is not None:
            f = self.owner.fields.get(name)
            if f is not None:
                return dealias(f.type_text, self.tu.aliases)
        t = self.tu.globals.get(name, "")
        if t:
            return dealias(t, self.tu.aliases)
        return ""

    def resolve(self, expr, depth=0):
        """Best-effort type of an expression chain; "" when unknown."""
        if depth > 8 or not expr:
            return ""
        e = expr.strip()
        # strip one layer of wrapping parens
        while e.startswith("(") and find_balanced(e, 0) == len(e) - 1:
            e = e[1:-1].strip()
        e = e.lstrip("&*").strip()
        m = CHAIN_TOKEN_RE.match(e)
        if not m:
            return ""
        root = m.group(1)
        i = m.end()
        cur = self.type_of_name(root, depth)
        # A root-level free-function call: Fn(...)....
        if cur == "" and i < len(e) and e[i:].lstrip().startswith("("):
            fns = self.ctx.functions_named(root)
            rets = {f.return_type for f in fns if f.return_type}
            cur = dealias(rets.pop(), self.tu.aliases) \
                if len(rets) == 1 else ""
            close = find_balanced(e, e.find("(", i))
            if close < 0:
                return ""
            i = close + 1
        pending_member = None
        while i < len(e):
            c = e[i]
            if c in " \t\n":
                i += 1
                continue
            if c in ".-":
                skip = 1 if c == "." else 2
                mm = re.match(r"\s*([A-Za-z_]\w*)", e[i + skip:])
                if not mm:
                    return cur if pending_member is None else ""
                pending_member = mm.group(1)
                i += skip + mm.end()
                continue
            if c == "(":
                close = find_balanced(e, i)
                if close < 0:
                    return ""
                if pending_member is not None:
                    cur = self.ctx.method_return(cur, pending_member) or \
                        std_method_return(cur, pending_member)
                    cur = dealias(cur, self.tu.aliases)
                    pending_member = None
                i = close + 1
                continue
            if c == "[":
                close = find_balanced(e, i, "[", "]")
                if close < 0:
                    return ""
                if pending_member is not None:
                    cur = self._member_type(cur, pending_member)
                    pending_member = None
                cur = element_type(cur) if cur else ""
                i = close + 1
                continue
            break  # operator (+, ==, ...) ends the chain
        if pending_member is not None:
            cur = self._member_type(cur, pending_member)
        return cur or ""

    def _member_type(self, cur_type, member):
        # Element types pulled out of templated containers (e.g. `Row`
        # from `std::vector<Row>`) have not been dealiased yet.
        cur_type = dealias(cur_type or "", self.tu.aliases)
        head = type_head(cur_type)
        if head in ("std::pair", "std::tuple"):
            args = template_args(bare_type(cur_type))
            if member == "first" and args:
                return args[0]
            if member == "second" and len(args) > 1:
                return args[1]
            return ""
        cls = self.ctx.class_of_type(cur_type)
        if cls is None:
            return ""
        f = cls.fields.get(member)
        if f is None:
            return ""
        return dealias(f.type_text, self.tu.aliases)


def top_level_assign(text):
    """Position of a plain top-level `=` (not ==, <=, +=, ...), or -1."""
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


def chain_root(expr):
    """Leading identifier of an expression, stripping &, *, parens, and
    this->; "" when the expression does not start with a name."""
    e = expr.strip()
    while e.startswith("(") and find_balanced(e, 0) == len(e) - 1:
        e = e[1:-1].strip()
    e = e.lstrip("&*!").strip()
    if e.startswith("std::move") or e.startswith("std::cref") or \
            e.startswith("std::ref"):
        inner = e[e.find("("):]
        if inner and find_balanced(inner, 0) >= 0:
            return chain_root(inner[1:find_balanced(inner, 0)])
    m = CHAIN_TOKEN_RE.match(e)
    return m.group(1) if m else ""

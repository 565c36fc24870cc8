"""Clang frontend: lowers `clang++ -Xclang -ast-dump=json` output into
the normalized model.

Division of labor: clang provides exact declaration segmentation (which
byte ranges are classes, fields, methods, globals — immune to macro or
template surprises) and exact field types (`qualType`). Statement
bodies are then parsed by the same statement parser the internal
frontend uses, over the clang-reported body byte range, so both
frontends produce byte-identical statement trees and the checks cannot
drift between them.

AST dumps are cached under --cache-dir as gzipped JSON keyed on a
content hash of (clang version, the TU's bytes, every header under
src/). CI restores this cache keyed the same way, so unchanged TUs
never re-run the frontend.

Any failure — clang missing, TU failing to compile, JSON shape we do
not recognize — raises ClangFrontendError; the driver falls back to
the internal frontend per-TU and reports that it did.
"""

import gzip
import hashlib
import json
import os
import shutil
import subprocess

from model import Field, ClassDecl
from parser import Parser, match_brace

CLANG_CANDIDATES = ("clang++", "clang++-20", "clang++-19", "clang++-18",
                    "clang++-17", "clang++-16", "clang++-15", "clang++-14")


class ClangFrontendError(Exception):
    pass


def find_clang():
    for cand in CLANG_CANDIDATES:
        path = shutil.which(cand)
        if path:
            return path
    return None


_version_cache = {}


def clang_version(clang):
    if clang not in _version_cache:
        out = subprocess.run([clang, "--version"], capture_output=True,
                            text=True, check=False)
        _version_cache[clang] = out.stdout.splitlines()[0] if out.stdout \
            else "unknown"
    return _version_cache[clang]


def headers_digest(repo_root):
    """One hash over every header under src/ — any header edit
    invalidates every cached dump, which is the conservative and simple
    key (per-TU include graphs are not worth the bookkeeping here)."""
    h = hashlib.sha256()
    src = os.path.join(repo_root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".h"):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, repo_root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


CACHE_SUFFIX = ".json.gz"

# Default ceiling on cached dumps. The tree is ~200 TUs; 512 leaves
# room for a few branches' worth of rewrites in one persisted CI cache
# without letting it grow without bound.
DEFAULT_CACHE_CAP = 512


def dump_ast(clang, src_path, repo_root, cache_dir, hdr_digest,
             live_keys=None):
    with open(src_path, "rb") as f:
        content = f.read()
    key = hashlib.sha256(
        (clang_version(clang) + "|" + hdr_digest).encode() + b"|" +
        content).hexdigest()
    if live_keys is not None:
        live_keys.add(key)
    cache_file = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_file = os.path.join(cache_dir, key + CACHE_SUFFIX)
        if os.path.exists(cache_file):
            try:
                with gzip.open(cache_file, "rt", encoding="utf-8") as f:
                    root = json.load(f)
                # Refresh mtime so the LRU cull (evict_cache) ranks this
                # entry as recently used.
                os.utime(cache_file)
                return root
            except (OSError, json.JSONDecodeError):
                pass  # corrupt cache entry: re-dump below
    cmd = [clang, "-x", "c++", "-std=c++20", "-fsyntax-only",
           "-Xclang", "-ast-dump=json",
           "-I", os.path.join(repo_root, "src"), src_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if not proc.stdout.strip():
        raise ClangFrontendError(
            f"{os.path.basename(src_path)}: clang produced no AST "
            f"({proc.stderr.strip().splitlines()[:1]})")
    try:
        root = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise ClangFrontendError(
            f"{os.path.basename(src_path)}: AST JSON undecodable: {e}")
    if cache_file:
        tmp = cache_file + ".tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as f:
            json.dump(root, f)
        os.replace(tmp, cache_file)
    return root


def evict_cache(cache_dir, live_keys, cap=None):
    """Prunes the AST-dump cache after a parse pass. Two rules:

      1. staleness — an entry whose content key was not produced by any
         TU in the current tree corresponds to a source version that no
         longer exists (the key hashes clang version + headers digest +
         TU bytes), so it can never be hit again by this tree; drop it.
      2. LRU cap — among live entries, keep at most `cap`, evicting the
         least recently *used* (dump_ast touches mtime on every hit).

    Without this, CI's persisted cache grew monotonically: every edit
    minted a new key and the old one stayed forever. Returns the number
    of files removed; tolerates concurrent removal races."""
    if cap is None:
        cap = DEFAULT_CACHE_CAP
    if not cache_dir or not os.path.isdir(cache_dir):
        return 0
    removed = 0
    live = []
    for name in os.listdir(cache_dir):
        if not name.endswith(CACHE_SUFFIX):
            if name.endswith(CACHE_SUFFIX + ".tmp"):
                _remove_quiet(os.path.join(cache_dir, name))
            continue
        path = os.path.join(cache_dir, name)
        key = name[: -len(CACHE_SUFFIX)]
        if key not in live_keys:
            removed += _remove_quiet(path)
            continue
        try:
            live.append((os.path.getmtime(path), path))
        except OSError:
            continue
    if len(live) > cap:
        live.sort()  # oldest mtime first
        for _mtime, path in live[: len(live) - cap]:
            removed += _remove_quiet(path)
    return removed


def _remove_quiet(path):
    try:
        os.remove(path)
        return 1
    except OSError:
        return 0


def _loc_dict(loc):
    """clang nests macro locations: prefer the expansion site, which is
    an offset into the file being analyzed."""
    if not isinstance(loc, dict):
        return {}
    if "expansionLoc" in loc:
        return loc["expansionLoc"]
    return loc


class _Lowerer:
    def __init__(self, abs_path, repo_rel, raw_text):
        # Reuse the internal frontend's stripped text, cursor, and
        # comment-annotation scan; only decl discovery is clang-driven.
        self.p = Parser(repo_rel, raw_text)
        self.tu = self.p.tu
        self.abs_path = abs_path
        self.base = os.path.basename(abs_path)
        self.in_main = False  # current file per clang's delta encoding

    def _track_file(self, node):
        loc = _loc_dict(node.get("loc", {}))
        if "file" in loc:
            f = loc["file"]
            self.in_main = os.path.basename(f) == self.base and \
                (f.endswith(self.abs_path) or self.abs_path.endswith(f) or
                 f == self.base)
        return self.in_main

    def _offset(self, loclike):
        d = _loc_dict(loclike)
        return d.get("offset")

    def lower(self, root):
        for node in root.get("inner", []):
            self._visit(node, class_ctx=None)
        self.p._mark_hot_functions()
        self.tu.frontend = "clang"
        return self.tu

    def _visit(self, node, class_ctx):
        kind = node.get("kind", "")
        if node.get("isImplicit"):
            return
        self._track_file(node)
        if kind in ("NamespaceDecl", "LinkageSpecDecl", "ExportDecl"):
            for ch in node.get("inner", []):
                self._visit(ch, class_ctx)
            return
        if not self.in_main:
            return
        if kind == "CXXRecordDecl":
            if not node.get("completeDefinition"):
                return
            self._lower_record(node, class_ctx)
            return
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl", "CXXConversionDecl"):
            self._lower_function(node, class_ctx)
            return
        if kind == "VarDecl" and class_ctx is None:
            self._lower_global(node)
            return
        if kind == "FieldDecl" and class_ctx is not None:
            self._lower_field(node, class_ctx)
            return

    def _lower_record(self, node, class_ctx):
        name = node.get("name")
        if not name:
            return
        line = self._line_of_node(node)
        qname = f"{class_ctx.qname}::{name}" if class_ctx else name
        decl = ClassDecl(name, qname, self.tu.path, line or 0)
        for ch in node.get("inner", []):
            self._visit(ch, decl)
        if class_ctx is not None:
            class_ctx.inner.append(decl)
        else:
            self.tu.classes.append(decl)

    def _lower_field(self, node, class_ctx):
        name = node.get("name")
        if not name:
            return
        qual = node.get("type", {}).get("qualType", "")
        class_ctx.fields[name] = Field(name, qual,
                                       self._line_of_node(node) or 0)

    def _lower_global(self, node):
        name = node.get("name")
        if not name:
            return
        self.tu.globals[name] = node.get("type", {}).get("qualType", "")

    def _line_of_node(self, node):
        off = self._offset(node.get("loc", {}))
        if off is None:
            off = self._offset(node.get("range", {}).get("begin", {}))
        return self.p.cur.line_of(off) if off is not None else None

    def _lower_function(self, node, class_ctx):
        body_node = None
        for ch in node.get("inner", []):
            if ch.get("kind") == "CompoundStmt":
                body_node = ch
                break
        begin = self._offset(node.get("range", {}).get("begin", {}))
        if begin is None:
            return
        if body_node is None:
            # Pure declaration: textual signature parse of the range.
            end = self._offset(node.get("range", {}).get("end", {}))
            if end is None:
                return
            head = self.p.text[begin:end + 1]
            fn = self.p.parse_signature(head.strip().rstrip(";").strip(),
                                        self.p.cur.line_of(begin), class_ctx)
            if fn is not None:
                self._attach(fn, class_ctx)
            return
        body_open = self._offset(body_node.get("range", {}).get("begin", {}))
        if body_open is None or self.p.text[body_open] != "{":
            # Macro-mangled offsets: bail to the caller's fallback.
            raise ClangFrontendError(
                f"{self.base}: body offset for {node.get('name')} does not "
                "land on '{'")
        body_close = match_brace(self.p.text, body_open)
        head = self.p.text[begin:body_open]
        # Constructor init lists confuse the declarator scan: cut at the
        # first top-level ':' that is not '::'.
        head = _cut_ctor_inits(head)
        fn = self.p.parse_function(head.strip(), body_open, body_close,
                                   self.p.cur.line_of(begin), class_ctx)
        if fn is not None:
            self._attach(fn, class_ctx)

    def _attach(self, fn, class_ctx):
        if class_ctx is not None:
            class_ctx.methods.append(fn)
        else:
            self.tu.functions.append(fn)


def _cut_ctor_inits(head):
    depth = 0
    i = 0
    n = len(head)
    while i < n:
        c = head[i]
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < n and head[i + 1] == ":":
                i += 2
                continue
            if i > 0 and head[i - 1] == ":":
                i += 1
                continue
            return head[:i]
        i += 1
    return head


def parse_file_clang(clang, abs_path, repo_rel, repo_root, cache_dir,
                     hdr_digest, live_keys=None):
    with open(abs_path, encoding="utf-8") as f:
        raw = f.read()
    root = dump_ast(clang, abs_path, repo_root, cache_dir, hdr_digest,
                    live_keys=live_keys)
    try:
        tu = _Lowerer(abs_path, repo_rel, raw).lower(root)
    except ClangFrontendError:
        raise
    except Exception as e:  # malformed/unexpected JSON shape
        raise ClangFrontendError(f"{os.path.basename(abs_path)}: "
                                 f"lowering failed: {e}")
    tu.raw_lines = raw.splitlines()
    return tu

#!/usr/bin/env python3
"""Project linter: enforces InfoShield's C++ conventions over src/.

Rules
-----
 1. include-guard    Every header under src/ uses the canonical guard
                     INFOSHIELD_<PATH>_H_ (#ifndef / #define pair and a
                     trailing `#endif  // <guard>`).
 2. using-namespace  No `using namespace` at any scope in headers.
 3. include-what-you-use (project headers only)
                     A header that names a project type, macro, or free
                     function must directly include the project header
                     declaring it — no leaning on transitive includes.
 4. status-contract  Per util/status.h: the library is exception-free
                     (`throw` is banned in src/), invariants use CHECK
                     (never `assert`), and any file using CHECK/LOG or
                     Status/Result must include util/logging.h /
                     util/status.h itself.
 5. raw-concurrency  Raw std concurrency primitives (std::mutex,
                     std::lock_guard, std::thread,
                     std::condition_variable, ...) are banned outside
                     src/util/: shared state goes through the annotated
                     Mutex/MutexLock/CondVar wrappers in util/mutex.h and
                     the ThreadPool in util/thread_pool.h, so the Clang
                     thread-safety analysis (-DINFOSHIELD_THREAD_SAFETY)
                     sees every lock. std::atomic is allowed.
 6. mutable-global   New mutable globals (the repo convention names them
                     g_*, or column-0 `static` non-const definitions) are
                     banned outside an explicit allowlist. Mutex-typed
                     globals are always allowed — the lock itself is the
                     protection.
 7. fuzz-corpus      Every fuzz harness (fuzz/<name>_fuzz.cc) must have
                     a non-empty seed corpus at tests/fuzz_corpus/<name>/
                     so the fuzz_replay_<name> ctest exercises the
                     harness body on every plain build (DESIGN.md §12).

Hash-order iteration is the analyzer's to check (tools/analyzer:
unordered-iter, unordered-output-flow), and a discarded Status or Result
is a compile error (-Werror=unused-result, CMakeLists.txt).

Exit status is 1 when there are violations, 0 when clean (the true count
is printed — a raw count would wrap modulo 256 and a multiple of 256
would read as success). When clang-tidy is installed and a compilation
database is available (pass the build dir via --clang-tidy-build-dir),
clang-tidy also runs over src/**/*.cc with the repo's .clang-tidy config;
when it is not installed, that half is skipped with a notice so the lint
gate works on toolchains without clang.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

# Macros and free functions that the type scanner cannot discover, mapped
# to the project header that defines them.
CURATED_SYMBOLS = {
    "CHECK": "util/logging.h",
    "CHECK_EQ": "util/logging.h",
    "CHECK_NE": "util/logging.h",
    "CHECK_LT": "util/logging.h",
    "CHECK_LE": "util/logging.h",
    "CHECK_GT": "util/logging.h",
    "CHECK_GE": "util/logging.h",
    "LOG": "util/logging.h",
    "INFOSHIELD_RETURN_IF_ERROR": "util/status.h",
    "INFOSHIELD_AUDIT_INVARIANTS": "util/audit.h",
    "Mutex": "util/mutex.h",
    "MutexLock": "util/mutex.h",
    "CondVar": "util/mutex.h",
    "CAPABILITY": "util/thread_annotations.h",
    "SCOPED_CAPABILITY": "util/thread_annotations.h",
    "GUARDED_BY": "util/thread_annotations.h",
    "PT_GUARDED_BY": "util/thread_annotations.h",
    "REQUIRES": "util/thread_annotations.h",
    "REQUIRES_SHARED": "util/thread_annotations.h",
    "ACQUIRE": "util/thread_annotations.h",
    "RELEASE": "util/thread_annotations.h",
    "TRY_ACQUIRE": "util/thread_annotations.h",
    "EXCLUDES": "util/thread_annotations.h",
    "ASSERT_CAPABILITY": "util/thread_annotations.h",
    "RETURN_CAPABILITY": "util/thread_annotations.h",
    "NO_THREAD_SAFETY_ANALYSIS": "util/thread_annotations.h",
}

# --- Rule 5: raw concurrency primitives (banned outside src/util/). ---
RAW_CONCURRENCY_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b"
    r"|std::shared_lock\b|std::condition_variable(?:_any)?\b"
    r"|std::j?thread\b")

# --- Rule 6: mutable globals. ---
# (src-relative file) -> names that predate the rule or are deliberate.
# Every entry must say, in the file itself, how it is synchronized.
GLOBAL_ALLOWLIST = {
    "util/audit.cc": {"g_auditing_enabled",      # lone std::atomic gate
                      "g_audits_finished",       # GUARDED_BY(g_stats_mu)
                      "g_audits_failed"},        # GUARDED_BY(g_stats_mu)
    "util/logging.cc": {"g_min_severity"},       # GUARDED_BY(g_severity_mu)
}
GLOBAL_DECL_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?\b(g_\w+)")
STATIC_DECL_RE = re.compile(r"^static\s+(?!const\b|constexpr\b)")
MUTEX_GLOBAL_RE = re.compile(r"^(?:static\s+)?(?:::infoshield::)?Mutex\s+\w+")

# --- Rule 7: fuzz harnesses and their seed corpora. ---
FUZZ_ROOT = os.path.join(REPO_ROOT, "fuzz")
CORPUS_ROOT = os.path.join(REPO_ROOT, "tests", "fuzz_corpus")
FUZZ_SUFFIX = "_fuzz.cc"

# Identifiers too generic to attribute reliably from a word match.
SYMBOL_BLOCKLIST = {
    "internal", "size", "length", "Node", "Ok", "H",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "static_cast",
    "const_cast", "reinterpret_cast", "dynamic_cast", "decltype", "alignof",
    "defined", "noexcept",
}


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines."""
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


def repo_relative(path):
    return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")


def src_relative(path):
    return os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")


def expected_guard(header_path):
    rel = src_relative(header_path)
    return "INFOSHIELD_" + re.sub(r"[./]", "_", rel).upper() + "_"


def list_sources():
    headers, impls = [], []
    for root, _, files in os.walk(SRC_ROOT):
        for name in sorted(files):
            path = os.path.join(root, name)
            if name.endswith(".h"):
                headers.append(path)
            elif name.endswith(".cc"):
                impls.append(path)
    return headers, impls


TYPE_DECL_RE = re.compile(
    r"^(?:class|struct|enum(?:\s+class)?)\s+(\w+)", re.MULTILINE)
ALIAS_DECL_RE = re.compile(r"^using\s+(\w+)\s*=", re.MULTILINE)
FUNC_DECL_RE = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s]*?[\s&*](\w+)\(", re.MULTILINE)
INCLUDE_RE = re.compile(r'^#include\s+"([^"]+)"', re.MULTILINE)


def build_symbol_map(headers):
    """Maps project symbol -> set of src-relative headers declaring it.

    Only namespace-scope declarations count: declaration lines must start
    at column 0 (the codebase does not indent inside namespaces), which
    skips nested/member declarations automatically.
    """
    symbols = {}

    def add(name, header_rel):
        if name in SYMBOL_BLOCKLIST or name in CPP_KEYWORDS:
            return
        symbols.setdefault(name, set()).add(header_rel)

    for path in headers:
        rel = src_relative(path)
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for match in TYPE_DECL_RE.finditer(text):
            add(match.group(1), rel)
        for match in ALIAS_DECL_RE.finditer(text):
            add(match.group(1), rel)
        for match in FUNC_DECL_RE.finditer(text):
            name = match.group(1)
            if name.isupper() or name in CPP_KEYWORDS:
                continue
            add(name, rel)
    for name, header in CURATED_SYMBOLS.items():
        symbols.setdefault(name, set()).add(header)
    return symbols


def check_include_guard(path, raw_text, report):
    guard = expected_guard(path)
    lines = raw_text.splitlines()
    directives = [ln.strip() for ln in lines if ln.strip().startswith("#")]
    if (len(directives) < 2 or directives[0] != f"#ifndef {guard}" or
            directives[1] != f"#define {guard}"):
        report(path, 1, "include-guard",
               f"header must open with #ifndef/#define {guard}")
        return
    for ln in reversed(lines):
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped != f"#endif  // {guard}":
            report(path, len(lines), "include-guard",
                   f"header must close with '#endif  // {guard}'")
        return


def check_using_namespace(path, text, report):
    for i, line in enumerate(text.splitlines(), start=1):
        if re.search(r"\busing\s+namespace\b", line):
            report(path, i, "using-namespace",
                   "`using namespace` is banned in headers")


def check_project_includes(path, raw, report):
    for match in INCLUDE_RE.finditer(raw):
        inc = match.group(1)
        line = raw.count("\n", 0, match.start()) + 1
        if not os.path.exists(os.path.join(SRC_ROOT, inc)):
            report(path, line, "project-include",
                   f'"{inc}" does not resolve relative to src/')


def check_iwyu(path, raw, text, symbols, report):
    rel = src_relative(path)
    included = set(INCLUDE_RE.findall(raw))
    local_decls = set()
    for regex in (TYPE_DECL_RE, ALIAS_DECL_RE, FUNC_DECL_RE):
        for match in regex.finditer(text):
            local_decls.add(match.group(1))
    for name in re.findall(r"\b[A-Za-z_]\w*\b", text):
        if name in local_decls or name not in symbols:
            continue
        declaring = symbols[name]
        if rel in declaring or declaring & included:
            continue
        line = text.find(name)
        line = text.count("\n", 0, line) + 1
        report(path, line, "include-what-you-use",
               f"uses `{name}` but includes none of "
               f"{sorted(declaring)} directly")
        # One report per missing symbol is enough.
        symbols = {k: v for k, v in symbols.items() if k != name}


def check_status_contract(path, raw, text, report):
    lines = text.splitlines()
    for i, line in enumerate(lines, start=1):
        if re.search(r"\bassert\s*\(", line):
            report(path, i, "status-contract",
                   "use CHECK from util/logging.h, not assert")
        if re.search(r"\bthrow\b", line):
            report(path, i, "status-contract",
                   "the library is exception-free; return Status instead "
                   "of throwing")
    included = set(INCLUDE_RE.findall(raw))
    uses_check = re.search(r"\b(?:CHECK(?:_[A-Z]{2})?|LOG)\s*\(", text)
    if uses_check and "util/logging.h" not in included and \
            src_relative(path) != "util/logging.h":
        report(path, 1, "status-contract",
               "uses CHECK/LOG but does not include util/logging.h")
    uses_status = re.search(r"\b(?:Status|Result)\b\s*[<:&(\w]", text)
    if uses_status and "util/status.h" not in included and \
            src_relative(path) not in ("util/status.h", "util/logging.h"):
        report(path, 1, "status-contract",
               "uses Status/Result but does not include util/status.h")


def check_raw_concurrency(path, text, report):
    """Rule 5: std concurrency primitives only inside src/util/."""
    if src_relative(path).startswith("util/"):
        return
    for i, line in enumerate(text.splitlines(), start=1):
        match = RAW_CONCURRENCY_RE.search(line)
        if match:
            report(path, i, "raw-concurrency",
                   f"`{match.group(0)}` is banned outside src/util/; use "
                   "Mutex/MutexLock/CondVar (util/mutex.h) or ThreadPool "
                   "(util/thread_pool.h) so the thread-safety analysis "
                   "sees the lock")


def check_mutable_globals(path, text, report):
    """Rule 6: no new mutable globals outside the allowlist.

    Namespace-scope definitions sit at column 0 (the codebase does not
    indent inside namespaces), so usages inside functions — always
    indented — are skipped automatically. Mutex-typed globals are
    allowed: the lock is the protection, not the hazard.
    """
    allowed = GLOBAL_ALLOWLIST.get(src_relative(path), set())
    for i, line in enumerate(text.splitlines(), start=1):
        if MUTEX_GLOBAL_RE.match(line):
            continue
        match = GLOBAL_DECL_RE.match(line)
        if match and match.group(1) not in allowed:
            report(path, i, "mutable-global",
                   f"mutable global `{match.group(1)}` — shared state "
                   "needs a GUARDED_BY contract and an entry in "
                   "tools/lint.py GLOBAL_ALLOWLIST")
            continue
        if STATIC_DECL_RE.match(line):
            # A variable definition has no parameter list before its
            # initializer (or terminating semicolon); a function does.
            init = len(line)
            for sep in ("=", "{", ";"):
                pos = line.find(sep)
                if pos != -1:
                    init = min(init, pos)
            paren = line.find("(")
            if paren == -1 or paren > init:
                report(path, i, "mutable-global",
                       "file-scope `static` mutable variable — shared "
                       "state needs a GUARDED_BY contract and an entry "
                       "in tools/lint.py GLOBAL_ALLOWLIST")


def check_fuzz_corpora(fuzz_root, corpus_root, report):
    """Rule 7: every harness has a non-empty checked-in seed corpus."""
    if not os.path.isdir(fuzz_root):
        return
    for name in sorted(os.listdir(fuzz_root)):
        if not name.endswith(FUZZ_SUFFIX):
            continue
        harness = name[:-len(FUZZ_SUFFIX)]
        path = os.path.join(fuzz_root, name)
        corpus = os.path.join(corpus_root, harness)
        if not os.path.isdir(corpus):
            report(path, 1, "fuzz-corpus",
                   f"harness has no seed corpus directory "
                   f"{repo_relative(corpus)}/ — add seeds (see "
                   "tests/fuzz_corpus/make_seeds.py) so the replay ctest "
                   "exercises it")
            continue
        seeds = [s for s in os.listdir(corpus)
                 if not s.startswith(".") and
                 os.path.isfile(os.path.join(corpus, s))]
        if not seeds:
            report(path, 1, "fuzz-corpus",
                   f"seed corpus {repo_relative(corpus)}/ is empty — the "
                   "replay ctest would only run the empty input")


def run_clang_tidy(build_dir, impls):
    clang_tidy = shutil.which("clang-tidy")
    if clang_tidy is None:
        print("lint: clang-tidy not installed — skipping clang-tidy checks")
        return 0
    compdb = os.path.join(build_dir or "", "compile_commands.json")
    if not build_dir or not os.path.exists(compdb):
        print("lint: no compile_commands.json — skipping clang-tidy checks "
              "(pass --clang-tidy-build-dir to a configured build)")
        return 0
    print(f"lint: running clang-tidy over {len(impls)} files")
    failures = 0
    for path in impls:
        proc = subprocess.run(
            [clang_tidy, "-p", build_dir, "--quiet", path],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0 or "warning:" in proc.stdout:
            failures += 1
            sys.stdout.write(proc.stdout)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clang-tidy-build-dir", default=None,
                        help="build dir holding compile_commands.json")
    parser.add_argument("--no-clang-tidy", action="store_true",
                        help="run only the convention checks")
    parser.add_argument("--src-root", default=None,
                        help="lint this tree instead of src/ (used by "
                             "tools/lint_selftest.py fixtures)")
    parser.add_argument("--fuzz-root", default=None,
                        help="fuzz harness tree instead of fuzz/ (used by "
                             "tools/lint_selftest.py fixtures)")
    parser.add_argument("--corpus-root", default=None,
                        help="seed corpus tree instead of tests/fuzz_corpus/")
    args = parser.parse_args()

    if args.src_root is not None:
        global SRC_ROOT
        SRC_ROOT = os.path.abspath(args.src_root)
    fuzz_root = os.path.abspath(args.fuzz_root) if args.fuzz_root \
        else FUZZ_ROOT
    corpus_root = os.path.abspath(args.corpus_root) if args.corpus_root \
        else CORPUS_ROOT

    headers, impls = list_sources()
    symbols = build_symbol_map(headers)

    violations = []

    def report(path, line, rule, message):
        violations.append(f"{repo_relative(path)}:{line}: [{rule}] {message}")

    for path in headers:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments_and_strings(raw)
        check_include_guard(path, raw, report)
        check_using_namespace(path, text, report)
        check_project_includes(path, raw, report)
        check_iwyu(path, raw, text, symbols, report)
        check_status_contract(path, raw, text, report)
        check_raw_concurrency(path, text, report)
        check_mutable_globals(path, text, report)
    for path in impls:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments_and_strings(raw)
        check_project_includes(path, raw, report)
        check_status_contract(path, raw, text, report)
        check_raw_concurrency(path, text, report)
        check_mutable_globals(path, text, report)

    check_fuzz_corpora(fuzz_root, corpus_root, report)

    for v in violations:
        print(v)
    count = len(violations)
    if count:
        print(f"lint: {count} violation(s)")
    else:
        print(f"lint: {len(headers) + len(impls)} files clean")

    if not args.no_clang_tidy:
        count += run_clang_tidy(args.clang_tidy_build_dir, impls)
    # POSIX exit statuses wrap modulo 256: returning the raw count would
    # report 256 violations as success. The count is printed above; the
    # exit status only says pass/fail.
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())

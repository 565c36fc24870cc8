#!/usr/bin/env python3
"""Self-test for tools/lint.py's concurrency and fuzz-corpus rules.

Runs the linter over the fixture trees in tools/lint_fixtures/ and
asserts:

 * each bad fixture trips exactly the rule it was written for, the
   expected number of times — including fuzz-corpus (harnesses with a
   missing or empty seed corpus, exercised via fixture fuzz/corpus
   roots);
 * the util/ exemption (raw primitives are legal under src/util/),
   Mutex-typed globals, and constants do NOT trip anything;
 * a clean tree exits 0;
 * the exit status of a failing run is 1, not the violation count (a
   raw count would wrap modulo 256 on POSIX — 256 violations would
   read as success).

Registered as the `lint_selftest` ctest by tools/CMakeLists.txt.
"""

import collections
import os
import re
import subprocess
import sys

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(TOOLS_DIR, "lint.py")
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")

FINDING_RE = re.compile(r"^(?P<path>\S+?):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")

# (fixture file, rule) -> expected number of findings. Files in the bad
# tree that are absent here must produce zero findings.
EXPECTED = {
    ("raw_concurrency_bad.cc", "raw-concurrency"): 4,
    ("mutable_global_bad.cc", "mutable-global"): 3,
    ("orphan_fuzz.cc", "fuzz-corpus"): 1,
    ("empty_fuzz.cc", "fuzz-corpus"): 1,
}


def run_lint(tree):
    # Each source tree is paired with its own fuzz/corpus fixture roots
    # so the fuzz-corpus rule is tested hermetically, never against the
    # real fuzz/ directory.
    proc = subprocess.run(
        [sys.executable, LINT, "--no-clang-tidy",
         "--src-root", os.path.join(FIXTURES, tree),
         "--fuzz-root", os.path.join(FIXTURES, tree + "_fuzz"),
         "--corpus-root", os.path.join(FIXTURES, tree + "_corpus")],
        capture_output=True, text=True, check=False)
    findings = collections.Counter()
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            findings[(os.path.basename(match.group("path")),
                      match.group("rule"))] += 1
    return proc, findings


def main():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    proc, findings = run_lint("bad")
    expect(proc.returncode == 1,
           f"bad tree: expected exit 1 (capped), got {proc.returncode}")
    total = sum(EXPECTED.values())
    expect(f"lint: {total} violation(s)" in proc.stdout,
           f"bad tree: expected the true count ({total}) to be printed")
    for key, want in EXPECTED.items():
        got = findings.pop(key, 0)
        expect(got == want, f"{key[0]}: expected {want} [{key[1]}], "
                            f"got {got}")
    expect(not findings,
           f"unexpected findings: {dict(findings)} (util/ exemption "
           "or constant handling regressed)")

    proc, findings = run_lint("clean")
    expect(proc.returncode == 0,
           f"clean tree: expected exit 0, got {proc.returncode}")
    expect(not findings, f"clean tree: unexpected findings {dict(findings)}")

    if failures:
        for f in failures:
            print(f"lint_selftest: FAIL: {f}")
        return 1
    print("lint_selftest: all rule fixtures behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

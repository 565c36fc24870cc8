#!/usr/bin/env python3
"""Self-test for the AST-grounded analyzer (tools/analyzer/).

Runs the analyzer over the fixture trees in tools/analyzer/fixtures/
and over the real tree, asserting:

 * each bad fixture trips exactly the check it was written for, the
   expected number of times, and the bad tree fails the run;
 * the clean fixtures — reserve/hoist discipline, determinism markers,
   reasoned allow() suppressions, the lock-free concurrent idioms —
   trip nothing, and a clean tree exits 0;
 * an allow() without a `-- reason` is itself reported;
 * the race inference (DESIGN.md §14): the seeded races (a
   launched-lambda write, a helper-chain write, a shared container
   grown by workers, a plain global, two std::threads) carry verdict
   `racy` in race_report.json, the clean concurrent idioms (pre-launch
   and post-join writes, read-only sharing, owned accumulators,
   disjoint element slots, atomics, sorted sinks) stay silent,
   --checks filters to exactly the race legs, and — when a clang
   driver exists — the seeded races are caught under clang lowering
   too;
 * the lifetime pass (DESIGN.md §17): seeded dangling views —
   including one laundered through a helper's borrow summary —
   iterator invalidations, and contract violations all fire;
   lifetime_report.json carries the schema tag, per-function borrow
   verdicts, and the per-field contract inventory; the clean
   counterparts (param/field/global/static borrows, erase-refresh
   loops, reasoned borrows() contracts) stay silent; and — when a
   clang driver exists — the seeded dangling views are caught under
   clang lowering too;
 * AST-dump cache eviction: stale keys pruned, stray .tmp files
   cleaned, live entries LRU-capped;
 * the real tree has zero unsuppressed findings, and its race report
   carries the schema tag, ParallelFor's worker lambda and the fuzz
   entries among its thread roots, and no racy field;
 * a failing run exits 1, not the violation count (a raw count would
   wrap modulo 256 on POSIX).

The fixture runs pin --frontend internal so results do not depend on
whether a clang driver happens to be installed; fixture sources are
parse targets, not compile targets. Registered as the
`analyzer_selftest` ctest by tools/CMakeLists.txt.
"""

import collections
import json
import os
import re
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
ANALYZE = os.path.join(TOOLS_DIR, "analyzer", "analyze.py")
FIXTURES = os.path.join(TOOLS_DIR, "analyzer", "fixtures")
REPO_ROOT = os.path.dirname(TOOLS_DIR)

FINDING_RE = re.compile(r"^(?P<path>\S+?):(?P<line>\d+): \[(?P<check>[\w-]+)\]")

# (fixture file, check) -> expected number of findings. Files in the bad
# tree absent here must produce zero findings.
EXPECTED = {
    ("hot_alloc_bad.cc", "hot-loop-alloc"): 5,
    ("unordered_bad.cc", "unordered-iter"): 2,
    ("allow_noreason_bad.cc", "allow-syntax"): 1,
    ("race_infer_bad.cc", "race-infer"): 7,
    ("output_flow_bad.cc", "unordered-output-flow"): 2,
    ("dangling_view_bad.cc", "dangling-view"): 5,
    ("view_launder_bad.cc", "dangling-view"): 2,
    ("lambda_escape_bad.cc", "dangling-view"): 3,
    ("iter_invalid_bad.cc", "iter-invalidation"): 5,
    ("view_escape_bad.cc", "view-escape"): 6,
}

# The seven seeded races by field or captured local, as they must
# appear in the race report (and under BOTH frontends when a clang
# driver is available).
SEEDED_RACES = ("Telemetry::dropped_", "Journal::entries_",
                "Collector::results_", "race_infer_bad::g_hits",
                "Heartbeat::beats_", "SumAndKeep::total",
                "SumAndKeep::seen")

RACE_REPORT_SCHEMA = "infoshield-race-report/2"


def run_analyze(extra_args, frontend="internal"):
    proc = subprocess.run(
        [sys.executable, ANALYZE, "--frontend", frontend, "--quiet"] +
        extra_args,
        capture_output=True, text=True, check=False)
    findings = collections.Counter()
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            findings[(os.path.basename(match.group("path")),
                      match.group("check"))] += 1
    return proc, findings


def main():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    # --- bad fixtures: every check fires, run fails (capped exit) ------
    proc, findings = run_analyze(
        ["--repo-root", FIXTURES, "--roots", "bad"])
    expect(proc.returncode == 1,
           f"bad tree: expected exit 1 (capped), got {proc.returncode}")
    for key, want in EXPECTED.items():
        got = findings.pop(key, 0)
        expect(got == want,
               f"{key[0]}: expected {want} [{key[1]}], got {got}")
    expect(not findings,
           f"bad tree: unexpected findings {dict(findings)}")

    # --- clean fixtures: nothing fires -------------------------------
    proc, findings = run_analyze(
        ["--repo-root", FIXTURES, "--roots", "clean"])
    expect(proc.returncode == 0,
           f"clean tree: expected exit 0, got {proc.returncode}")
    expect(not findings,
           f"clean tree: unexpected findings {dict(findings)} (reserve "
           "discipline, determinism marker, allow(reason), or lock-free "
           "idiom handling regressed)")

    # --- race report: schema, seeded verdicts, check filtering --------
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "race_report.json")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--race-report", report_path,
             "--checks", "race-infer,unordered-output-flow"])
        expect(proc.returncode == 1,
               f"--checks races leg: expected exit 1, got {proc.returncode}")
        # allow-syntax always rides along: a broken suppression must
        # never be filtered out of view.
        race_checks = {"race-infer", "unordered-output-flow",
                       "allow-syntax"}
        expect(all(check in race_checks for (_f, check) in findings),
               f"--checks filter leaked other checks: {dict(findings)}")
        got = sum(n for (f, c), n in EXPECTED.items() if c in race_checks)
        expect(sum(findings.values()) == got,
               f"--checks races leg: expected {got} findings, got "
               f"{sum(findings.values())}")
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        expect(report.get("schema") == RACE_REPORT_SCHEMA,
               f"race report schema: got {report.get('schema')!r}")
        expect(report.get("thread_roots"),
               "race report: expected at least one thread root in the "
               "bad fixture tree")
        verdicts = {e["field"]: e["verdict"] for e in report["fields"]}
        for field in SEEDED_RACES:
            expect(verdicts.get(field) == "racy",
                   f"race report: {field} should be racy, got "
                   f"{verdicts.get(field)!r}")
        expect(report["summary"].get("racy", 0) == len(SEEDED_RACES),
               f"race report summary: expected {len(SEEDED_RACES)} racy, "
               f"got {report['summary'].get('racy')}")

    # --- lifetime pass: report schema, verdicts, contract inventory ---
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "lifetime_report.json")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--lifetime-report", report_path,
             "--checks", "dangling-view,iter-invalidation,view-escape"])
        expect(proc.returncode == 1,
               f"--checks lifetimes leg: expected exit 1, got "
               f"{proc.returncode}")
        lifetime_checks = {"dangling-view", "iter-invalidation",
                           "view-escape", "allow-syntax"}
        expect(all(check in lifetime_checks for (_f, check) in findings),
               f"--checks lifetime filter leaked other checks: "
               f"{dict(findings)}")
        want = sum(n for (_f, c), n in EXPECTED.items()
                   if c in lifetime_checks)
        expect(sum(findings.values()) == want,
               f"--checks lifetimes leg: expected {want} findings, got "
               f"{sum(findings.values())}")
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        expect(report.get("schema") == "infoshield-lifetime-report/1",
               f"lifetime report schema: got {report.get('schema')!r}")
        launder = report["tus"].get("bad/view_launder_bad.cc", {})
        verdicts = {e["function"]: e["verdict"]
                    for e in launder.get("view_returning_functions", [])}
        expect(verdicts.get("Trim") == "borrows-params",
               "lifetime report: Trim should summarize as borrows-params, "
               f"got {verdicts.get('Trim')!r}")
        expect(verdicts.get("TrimmedLocal") == "dangling",
               "lifetime report: TrimmedLocal should be dangling, got "
               f"{verdicts.get('TrimmedLocal')!r}")
        contracts = {e["field"]: e["contract"]
                     for e in report["tus"].get(
                         "bad/view_escape_bad.cc", {}).get(
                         "view_fields", [])}
        expect(contracts.get("Unannotated::name_") == "unannotated" and
               contracts.get("OwnsView::label_") == "owns" and
               contracts.get("BadName::ptr_") == "borrows",
               f"lifetime report: contract inventory wrong: {contracts}")

    # --- clean fixtures under the lifetime checks: FP guards hold -----
    proc, findings = run_analyze(
        ["--repo-root", FIXTURES, "--roots", "clean",
         "--checks", "dangling-view,iter-invalidation,view-escape"])
    expect(proc.returncode == 0 and not findings,
           "clean tree under lifetime checks: expected silence (param/"
           "field/global/static borrows, erase-refresh, element copies, "
           "reasoned contracts), got "
           f"{proc.returncode} / {dict(findings)}")

    # --- clean fixtures under the race checks: FP guards hold ---------
    proc, findings = run_analyze(
        ["--repo-root", FIXTURES, "--roots", "clean",
         "--checks", "race-infer,unordered-output-flow"])
    expect(proc.returncode == 0 and not findings,
           "clean tree under race checks: expected silence (pre-launch "
           "and post-join writes, owned accumulators, element slots, "
           "atomics, sorted sinks), got "
           f"{proc.returncode} / {dict(findings)}")

    # --- dual frontend: the seeded races survive clang lowering -------
    sys.path.insert(0, os.path.join(TOOLS_DIR, "analyzer"))
    import clang_frontend
    if clang_frontend.find_clang() is None:
        print("analyzer_selftest: note: no clang++ driver found; "
              "skipping the clang-frontend race and lifetime legs")
    else:
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--checks", "race-infer"],
            frontend="clang")
        expect(findings.get(("race_infer_bad.cc", "race-infer")) ==
               len(SEEDED_RACES),
               "clang frontend: seeded races must be caught under clang "
               f"lowering too, got {dict(findings)}")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--checks", "dangling-view"],
            frontend="clang")
        expect(findings.get(("dangling_view_bad.cc",
                             "dangling-view")) == 5 and
               findings.get(("view_launder_bad.cc",
                             "dangling-view")) == 2 and
               findings.get(("lambda_escape_bad.cc",
                             "dangling-view")) == 3,
               "clang frontend: seeded dangling views must be caught "
               f"under clang lowering too, got {dict(findings)}")

    # --- cache eviction: stale prune + LRU cap ------------------------
    with tempfile.TemporaryDirectory() as tmp:
        suffix = clang_frontend.CACHE_SUFFIX
        live_keys = set()
        for i in range(6):
            key = f"live{i}"
            path = os.path.join(tmp, key + suffix)
            with open(path, "wb") as f:
                f.write(b"x")
            # Deterministic, strictly increasing mtimes: live0 oldest.
            os.utime(path, (1000 + i, 1000 + i))
            live_keys.add(key)
        with open(os.path.join(tmp, "stale" + suffix), "wb") as f:
            f.write(b"x")
        with open(os.path.join(tmp, "junk" + suffix + ".tmp"), "wb") as f:
            f.write(b"x")
        removed = clang_frontend.evict_cache(tmp, live_keys, cap=4)
        left = sorted(os.listdir(tmp))
        expect(removed == 3,
               f"evict_cache: expected 3 removals (1 stale + 2 over "
               f"cap), got {removed}")
        expect(left == [f"live{i}{suffix}" for i in range(2, 6)],
               f"evict_cache: expected the 4 newest live entries, got "
               f"{left}")

    # --- real tree: zero unsuppressed findings, no racy field ---------
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "race_report.json")
        lifetime_path = os.path.join(tmp, "lifetime_report.json")
        proc, findings = run_analyze(
            ["--repo-root", REPO_ROOT, "--roots", "src", "tools", "fuzz",
             "--race-report", report_path,
             "--lifetime-report", lifetime_path])
        expect(proc.returncode == 0,
               f"real tree: expected exit 0, got {proc.returncode}:\n"
               f"{proc.stdout}")
        expect(not findings,
               f"real tree: unsuppressed findings {dict(findings)}")
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        roots = report.get("thread_roots", [])
        expect(report.get("schema") == RACE_REPORT_SCHEMA and
               any("ThreadPool::ParallelFor" in r and "launched-lambda" in r
                   for r in roots) and
               any("(fuzz-entry)" in r for r in roots),
               "real tree: race report should carry the schema tag, "
               "ParallelFor's worker lambda and the fuzz entries among "
               f"its thread roots, got {roots}")
        racy = [f["field"] for f in report.get("fields", [])
                if f.get("verdict") == "racy"]
        expect(not racy, f"real tree: racy fields {racy}")
        with open(lifetime_path, encoding="utf-8") as f:
            lifetime = json.load(f)
        expect(lifetime.get("schema") == "infoshield-lifetime-report/1",
               "real tree: lifetime report should carry the schema tag, "
               f"got {lifetime.get('schema')!r}")
        lsum = lifetime.get("summary", {})
        expect(lsum.get("field_borrows", 0) >= 3 and
               lsum.get("field_unannotated", 0) == 0 and
               lsum.get("field_owns", 0) == 0,
               "real tree: every view field must carry a reasoned "
               f"borrows() contract, got {lsum}")

    if failures:
        for f in failures:
            print(f"analyzer_selftest: FAIL: {f}")
        return 1
    print("analyzer_selftest: all check fixtures and the real-tree gate "
          "behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test for the AST-grounded analyzer (tools/analyzer/).

Runs the analyzer over the fixture trees in tools/analyzer/fixtures/
and over the real tree, asserting:

 * each bad fixture trips exactly the check it was written for, the
   expected number of times — including the seeded lock-order cycle,
   which must fail the run (the acceptance criterion that a cycle
   fails the build);
 * the clean fixtures — by-value snapshots, consistent lock order,
   reserve/hoist discipline, determinism markers, reasoned allow()
   suppressions — trip nothing, and a clean tree exits 0;
 * an allow() without a `-- reason` is itself reported;
 * baseline semantics: matching counts pass, counts above baseline
   fail, counts below baseline fail as stale (the ratchet only
   shrinks), and --write-baseline round-trips;
 * the race-inference stack (DESIGN.md §14): the seeded races carry
   verdict `racy` in race_report.json, the consistently-locked field
   demands its GUARDED_BY, the clean concurrent idioms (pre-launch
   writes, post-Wait writes, owned accumulators, REQUIRES chains,
   sorted sinks) stay silent, --checks filters to exactly the race
   legs, and — when a clang driver exists — the seeded races are
   caught under clang lowering too;
 * the lifetime pass (DESIGN.md §17): seeded dangling views —
   including one laundered through a helper's borrow summary —
   iterator invalidations, and contract violations all fire;
   lifetime_report.json carries the schema tag, per-function borrow
   verdicts, and the per-field contract inventory; the clean
   counterparts (param/field/global/static borrows, erase-refresh
   loops, reasoned borrows() contracts) stay silent; and — when a
   clang driver exists — the seeded dangling views are caught under
   clang lowering too;
 * the shrink-only ratchet helper (tools/analyzer/ratchet.py) at the
   unit level: grandfather counts, stale detection, check filtering,
   and the load/write round-trip;
 * AST-dump cache eviction: stale keys pruned, stray .tmp files
   cleaned, live entries LRU-capped;
 * the real tree has zero unsuppressed findings, its lock-order
   graph names the mutexes of every current Mutex user (thread_pool,
   logging, audit), and its race report carries the schema tag, the
   pipeline's thread roots, and exactly the GUARDED_BY fields those
   users declare;
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
    ("guarded_escape_bad.cc", "guarded-ref-escape"): 3,
    ("lock_cycle_bad.cc", "lock-order-cycle"): 1,
    ("hot_alloc_bad.cc", "hot-loop-alloc"): 5,
    ("unordered_bad.cc", "unordered-iter"): 2,
    ("allow_noreason_bad.cc", "allow-syntax"): 1,
    ("race_infer_bad.cc", "race-infer"): 4,
    ("missing_guard_bad.cc", "missing-guarded-by"): 1,
    ("blocking_bad.cc", "blocking-under-lock"): 3,
    ("output_flow_bad.cc", "unordered-output-flow"): 2,
    ("dangling_view_bad.cc", "dangling-view"): 5,
    ("view_launder_bad.cc", "dangling-view"): 2,
    ("lambda_escape_bad.cc", "dangling-view"): 3,
    ("iter_invalid_bad.cc", "iter-invalidation"): 5,
    ("view_escape_bad.cc", "view-escape"): 6,
}

# The four seeded races by field, as they must appear in the race
# report (and under BOTH frontends when a clang driver is available).
SEEDED_RACES = ("Telemetry::dropped_", "Ledger::balance_",
                "Journal::entries_", "Pipeline::pending_")

# Mutex nodes the real-tree lock graph must name (acceptance criterion:
# coverage of every current Mutex user).
REQUIRED_GRAPH_NODES = (
    "ThreadPool::mutex_",
    "logging::g_severity_mu",
    "audit::g_stats_mu",
)

# Every GUARDED_BY field of the real tree. The race report's set of
# fields with verdict `annotated` must equal this exactly, so a field
# that loses its annotation, or is swapped for another, fails the run.
REQUIRED_ANNOTATED_FIELDS = (
    "ThreadPool::tasks_",
    "ThreadPool::in_flight_",
    "ThreadPool::shutting_down_",
    "audit::g_audits_finished",
    "audit::g_audits_failed",
    "logging::g_min_severity",
)


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
        ["--repo-root", FIXTURES, "--roots", "bad", "--no-baseline"])
    expect(proc.returncode == 1,
           f"bad tree: expected exit 1 (capped), got {proc.returncode}")
    for key, want in EXPECTED.items():
        got = findings.pop(key, 0)
        expect(got == want,
               f"{key[0]}: expected {want} [{key[1]}], got {got}")
    expect(not findings,
           f"bad tree: unexpected findings {dict(findings)}")
    expect("lock-order-cycle" in proc.stdout and
           "g_mu_a" in proc.stdout and "g_mu_b" in proc.stdout,
           "seeded cycle: expected both mutexes named in the cycle report")

    # --- clean fixtures: nothing fires -------------------------------
    proc, findings = run_analyze(
        ["--repo-root", FIXTURES, "--roots", "clean", "--no-baseline"])
    expect(proc.returncode == 0,
           f"clean tree: expected exit 0, got {proc.returncode}")
    expect(not findings,
           f"clean tree: unexpected findings {dict(findings)} (reserve "
           "discipline, determinism marker, allow(reason), or by-value "
           "snapshot handling regressed)")

    # --- race report: schema, seeded verdicts, check filtering --------
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "race_report.json")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad", "--no-baseline",
             "--race-report", report_path,
             "--checks", "race-infer,missing-guarded-by,"
                         "blocking-under-lock,unordered-output-flow"])
        expect(proc.returncode == 1,
               f"--checks races leg: expected exit 1, got {proc.returncode}")
        # allow-syntax always rides along: a broken suppression must
        # never be filtered out of view.
        race_checks = {"race-infer", "missing-guarded-by",
                       "blocking-under-lock", "unordered-output-flow",
                       "allow-syntax"}
        expect(all(check in race_checks for (_f, check) in findings),
               f"--checks filter leaked other checks: {dict(findings)}")
        got = sum(n for (f, c), n in EXPECTED.items() if c in race_checks)
        expect(sum(findings.values()) == got,
               f"--checks races leg: expected {got} findings, got "
               f"{sum(findings.values())}")
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        expect(report.get("schema") == "infoshield-race-report/1",
               f"race report schema: got {report.get('schema')!r}")
        expect(report.get("thread_roots"),
               "race report: expected at least one thread root in the "
               "bad fixture tree")
        verdicts = {e["field"]: e["verdict"] for e in report["fields"]}
        for field in SEEDED_RACES:
            expect(verdicts.get(field) == "racy",
                   f"race report: {field} should be racy, got "
                   f"{verdicts.get(field)!r}")
        expect(verdicts.get("Registry::published_") ==
               "guarded-unannotated",
               "race report: Registry::published_ should be "
               f"guarded-unannotated, got "
               f"{verdicts.get('Registry::published_')!r}")
        expect(report["summary"].get("racy", 0) == len(SEEDED_RACES),
               f"race report summary: expected {len(SEEDED_RACES)} racy, "
               f"got {report['summary'].get('racy')}")
        comp = report.get("tu_completeness", {})
        expect(any(v["unannotated_shared"] > 0 for v in comp.values()),
               "race report: completeness should count the unannotated "
               "shared fields of the bad tree")

    # --- lifetime pass: report schema, verdicts, contract inventory ---
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "lifetime_report.json")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad", "--no-baseline",
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
        ["--repo-root", FIXTURES, "--roots", "clean", "--no-baseline",
         "--checks", "dangling-view,iter-invalidation,view-escape"])
    expect(proc.returncode == 0 and not findings,
           "clean tree under lifetime checks: expected silence (param/"
           "field/global/static borrows, erase-refresh, element copies, "
           "reasoned contracts), got "
           f"{proc.returncode} / {dict(findings)}")

    # --- clean fixtures under the race checks: FP guards hold ---------
    proc, findings = run_analyze(
        ["--repo-root", FIXTURES, "--roots", "clean", "--no-baseline",
         "--checks", "race-infer,missing-guarded-by,blocking-under-lock,"
                     "unordered-output-flow"])
    expect(proc.returncode == 0 and not findings,
           "clean tree under race checks: expected silence (pre-launch "
           "writes, post-Wait writes, owned accumulators, REQUIRES "
           "chains, sorted sinks), got "
           f"{proc.returncode} / {dict(findings)}")

    # --- dual frontend: the seeded races survive clang lowering -------
    sys.path.insert(0, os.path.join(TOOLS_DIR, "analyzer"))
    import clang_frontend
    if clang_frontend.find_clang() is None:
        print("analyzer_selftest: note: no clang++ driver found; "
              "skipping the clang-frontend race and lifetime legs")
    else:
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad", "--no-baseline",
             "--checks", "race-infer,missing-guarded-by"],
            frontend="clang")
        expect(findings.get(("race_infer_bad.cc", "race-infer")) == 4 and
               findings.get(("missing_guard_bad.cc",
                             "missing-guarded-by")) == 1,
               "clang frontend: seeded races must be caught under clang "
               f"lowering too, got {dict(findings)}")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad", "--no-baseline",
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

    # --- ratchet helper: shrink-only semantics at the unit level ------
    import ratchet
    from model import Finding
    acts = [Finding("a.cc", line, "x", "m") for line in (1, 5, 9)]
    new, stale, base = ratchet.check(acts, {"a.cc:x": 2})
    expect([f.line for f in new] == [9] and not stale and
           [f.line for f in base] == [1, 5],
           "ratchet.check: the newest finding above baseline should "
           f"escape, got new={[f.line for f in new]} stale={stale}")
    new, stale, base = ratchet.check(acts[:1], {"a.cc:x": 2})
    expect(stale == ["a.cc:x"] and not new,
           f"ratchet.check: below-baseline count must be stale, got "
           f"{stale} / {[f.line for f in new]}")
    expect(ratchet.filter_to_checks(
               {"a.cc:x": 1, "b.cc:y": 2}, {"y"}) == {"b.cc:y": 2} and
           ratchet.filter_to_checks({"a.cc:x": 1}, set()) == {"a.cc:x": 1},
           "ratchet.filter_to_checks: subset filtering regressed")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.json")
        expect(ratchet.load(path) == {},
               "ratchet.load: a missing baseline should read as empty")
        total = ratchet.write(path, acts)
        expect(total == 3 and ratchet.load(path) == {"a.cc:x": 3},
               f"ratchet write/load round-trip failed: {total} / "
               f"{ratchet.load(path)}")

    # --- baseline semantics -------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        # --write-baseline captures the bad tree, then a normal run with
        # that baseline passes with everything baselined.
        proc, _ = run_analyze(["--repo-root", FIXTURES, "--roots", "bad",
                               "--baseline", baseline, "--write-baseline"])
        expect(proc.returncode == 0,
               f"write-baseline: expected exit 0, got {proc.returncode}")
        with open(baseline, encoding="utf-8") as f:
            captured = json.load(f)
        expect(sum(captured.values()) == sum(EXPECTED.values()),
               f"write-baseline: expected {sum(EXPECTED.values())} "
               f"entries, captured {sum(captured.values())}")
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--baseline", baseline])
        expect(proc.returncode == 0 and not findings,
               "baselined run: expected exit 0 with no printed findings, "
               f"got {proc.returncode} / {dict(findings)}")

        # Growth: shrink one baseline entry — the newest finding escapes
        # the baseline and fails the run.
        grown = dict(captured)
        key = "bad/hot_alloc_bad.cc:hot-loop-alloc"
        grown[key] = grown[key] - 1
        with open(baseline, "w", encoding="utf-8") as f:
            json.dump(grown, f)
        proc, findings = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--baseline", baseline])
        expect(proc.returncode == 1 and
               findings.get(("hot_alloc_bad.cc", "hot-loop-alloc")) == 1,
               "baseline growth: expected exactly the one above-baseline "
               f"finding to fail, got {proc.returncode} / {dict(findings)}")

        # Staleness: inflate an entry — fewer findings than baselined
        # must fail until the baseline is re-shrunk.
        stale = dict(captured)
        stale[key] = stale[key] + 2
        with open(baseline, "w", encoding="utf-8") as f:
            json.dump(stale, f)
        proc, _ = run_analyze(
            ["--repo-root", FIXTURES, "--roots", "bad",
             "--baseline", baseline])
        expect(proc.returncode == 1 and "stale baseline" in proc.stdout,
               f"stale baseline: expected failure, got {proc.returncode}")

    # --- real tree: zero unsuppressed findings + full mutex coverage --
    with tempfile.TemporaryDirectory() as tmp:
        dot = os.path.join(tmp, "lock_order.dot")
        report_path = os.path.join(tmp, "race_report.json")
        lifetime_path = os.path.join(tmp, "lifetime_report.json")
        proc, findings = run_analyze(
            ["--repo-root", REPO_ROOT, "--roots", "src", "tools", "fuzz",
             "--dot-out", dot, "--race-report", report_path,
             "--lifetime-report", lifetime_path])
        expect(proc.returncode == 0,
               f"real tree: expected exit 0, got {proc.returncode}:\n"
               f"{proc.stdout}")
        expect(not findings,
               f"real tree: unsuppressed findings {dict(findings)}")
        with open(dot, encoding="utf-8") as f:
            graph = f.read()
        for node in REQUIRED_GRAPH_NODES:
            expect(f'"{node}"' in graph,
                   f"lock graph: missing required mutex node {node}")
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        expect(report.get("schema") == "infoshield-race-report/1" and
               report.get("thread_roots"),
               "real tree: race report should carry the schema tag and "
               "the pipeline's thread roots")
        annotated = sorted(f["field"] for f in report.get("fields", [])
                           if f.get("verdict") == "annotated")
        expect(annotated == sorted(REQUIRED_ANNOTATED_FIELDS),
               "real tree: expected the annotated fields "
               f"{sorted(REQUIRED_ANNOTATED_FIELDS)}, got {annotated}")
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
    print("analyzer_selftest: all check fixtures, baseline semantics, and "
          "the real-tree gate behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

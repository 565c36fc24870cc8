#!/usr/bin/env python3
"""AST-grounded project analyzer — drives the checks over every TU in
src/, tools/, and fuzz/ and enforces the suppression + baseline
contract.

Usage (normally via `cmake --build build --target analyze` or
`tools/check.sh --analyze` / `--races`):

  analyze.py [--repo-root DIR] [--roots src tools fuzz ...]
             [--frontend auto|clang|internal] [--checks a,b,...]
             [--baseline FILE | --no-baseline] [--write-baseline]
             [--dot-out FILE] [--race-report FILE]
             [--lifetime-report FILE]
             [--cache-dir DIR] [--cache-cap N] [--quiet]

Checks: guarded-ref-escape, lock-order-cycle, hot-loop-alloc,
unordered-iter (DESIGN.md §13); race-infer, missing-guarded-by,
blocking-under-lock, unordered-output-flow (interprocedural lockset
inference, DESIGN.md §14); dangling-view, iter-invalidation,
view-escape (lifetime pass, DESIGN.md §17). A discarded Status or
Result is the compiler's to reject (-Werror=unused-result).

Suppression: `// analyzer: allow(<check>[, ...]) -- <reason>` on the
finding line or in the unbroken //-comment run directly above it — the
same geometry unordered-iter uses for `determinism:` markers. The reason
is mandatory; an allow without one is itself reported.

Baseline: tools/analyzer/baseline.json maps "<path>:<check>" to a
finding count. Counts may only shrink: a count above baseline fails
(new findings), and a count below baseline also fails until the
baseline is re-shrunk with --write-baseline — the ratchet never slips.

Exit status is capped at 1 (a raw count would wrap modulo 256).
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import callgraph as callgraph_mod                            # noqa: E402
import checks as checks_mod                                  # noqa: E402
import dataflow as dataflow_mod                              # noqa: E402
import lifetimes as lifetimes_mod                            # noqa: E402
import lockgraph                                             # noqa: E402
import locksets                                              # noqa: E402
import parser as parser_mod                                  # noqa: E402
import raceinfer                                             # noqa: E402
import ratchet                                               # noqa: E402
from model import Finding, comment_run_covers                # noqa: E402

SKIP_DIR_NAMES = {"fixtures", "lint_fixtures", "corpus", "third_party",
                  "__pycache__"}

WHOLE_PROGRAM_CHECKS = ["lock-order-cycle", "race-infer",
                        "missing-guarded-by", "blocking-under-lock",
                        "dangling-view", "iter-invalidation"]

ALL_CHECKS = sorted(list(checks_mod.PER_TU_CHECKS) + WHOLE_PROGRAM_CHECKS)


def discover_sources(repo_root, roots):
    files = []
    for root in roots:
        top = os.path.join(repo_root, root)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIR_NAMES and not d.startswith("build"))
            for name in sorted(filenames):
                if name.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, name))
    return files


def parse_tree(files, repo_root, frontend, cache_dir, quiet,
               cache_cap=None):
    tus = []
    notes = []
    clang = None
    hdr_digest = None
    live_keys = set()
    if frontend in ("auto", "clang"):
        import clang_frontend
        clang = clang_frontend.find_clang()
        if clang is None:
            if frontend == "clang":
                print("analyze: error: --frontend clang requested but no "
                      "clang++ driver found", file=sys.stderr)
                sys.exit(2)
            notes.append("no clang++ driver found; using the internal "
                         "frontend for all TUs")
        else:
            hdr_digest = clang_frontend.headers_digest(repo_root)
    for path in files:
        rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
        tu = None
        if clang is not None:
            import clang_frontend
            try:
                tu = clang_frontend.parse_file_clang(
                    clang, path, rel, repo_root, cache_dir, hdr_digest,
                    live_keys=live_keys)
            except clang_frontend.ClangFrontendError as e:
                notes.append(f"clang frontend fell back on {rel}: {e}")
        if tu is None:
            tu = parser_mod.parse_file(path, rel)
        tus.append(tu)
    if clang is not None and cache_dir:
        import clang_frontend
        removed = clang_frontend.evict_cache(cache_dir, live_keys,
                                             cap=cache_cap)
        if removed:
            notes.append(f"evicted {removed} stale/over-cap AST dump(s) "
                         f"from {cache_dir}")
    if not quiet:
        for n in notes:
            print(f"analyze: note: {n}")
    return tus


def apply_suppressions(findings, tus_by_path):
    """Splits findings into (active, suppressed) per the allow() comment
    geometry, and appends allow-syntax findings for reason-less allows."""
    active = []
    suppressed = []
    for f in findings:
        tu = tus_by_path.get(f.path)
        if tu is None:
            active.append(f)
            continue
        marker_lines = {ln for ln, cs in tu.allow.items() if f.check in cs}
        if comment_run_covers(f.line, marker_lines, tu.raw_lines):
            suppressed.append(f)
        else:
            active.append(f)
    for tu in tus_by_path.values():
        for ln, cs in sorted(tu.allow.items()):
            if "__missing_reason__" in cs:
                active.append(Finding(
                    tu.path, ln, "allow-syntax",
                    "analyzer: allow(...) without `-- <reason>`; every "
                    "suppression must say why"))
    return active, suppressed


# Shrink-only baseline semantics live in ratchet.py (shared helper);
# this alias keeps the historical import path working.
check_baseline = ratchet.check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.dirname(os.path.dirname(here))
    ap.add_argument("--repo-root", default=default_root)
    ap.add_argument("--roots", nargs="+", default=["src", "tools", "fuzz"])
    ap.add_argument("--frontend", choices=["auto", "clang", "internal"],
                    default="auto")
    ap.add_argument("--checks", default="",
                    help="comma-separated subset of checks to enforce "
                         "(default: all); the baseline is filtered to "
                         "the same subset")
    ap.add_argument("--baseline", default=os.path.join(here,
                                                       "baseline.json"))
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline file (fixture/selftest runs)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline to the current counts")
    ap.add_argument("--dot-out", default="",
                    help="write the lock-order graph as graphviz dot")
    ap.add_argument("--race-report", default="",
                    help="write the race-inference report as JSON "
                         "(schema: infoshield-race-report/1)")
    ap.add_argument("--lifetime-report", default="",
                    help="write the lifetime-pass report as JSON "
                         "(schema: infoshield-lifetime-report/1)")
    ap.add_argument("--cache-dir", default="",
                    help="AST-dump cache directory (clang frontend)")
    ap.add_argument("--cache-cap", type=int, default=512,
                    help="LRU cap on cached AST dumps (see evict_cache)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args()

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0

    files = discover_sources(args.repo_root, args.roots)
    if not files:
        print(f"analyze: error: no sources under {args.roots} in "
              f"{args.repo_root}", file=sys.stderr)
        return 2
    selected = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = selected - set(ALL_CHECKS)
    if unknown:
        print(f"analyze: error: unknown check(s) {sorted(unknown)}; "
              f"known: {ALL_CHECKS}", file=sys.stderr)
        return 2

    tus = parse_tree(files, args.repo_root, args.frontend, args.cache_dir,
                     args.quiet, cache_cap=args.cache_cap)
    tus_by_path = {tu.path: tu for tu in tus}
    ctx = checks_mod.Context(tus)

    findings = []
    for tu in tus:
        for name, fn in sorted(checks_mod.PER_TU_CHECKS.items()):
            if selected and name not in selected:
                continue
            findings.extend(fn(tu, ctx))
    walks = locksets.walk_tree(tus, ctx)
    graph, lock_findings = lockgraph.build_lock_graph(tus, ctx, walks=walks)
    findings.extend(lock_findings)
    cg = callgraph_mod.CallGraph(walks, ctx)
    race_findings, race_report = raceinfer.infer(walks, cg, tus, ctx)
    findings.extend(race_findings)
    findings.extend(dataflow_mod.check_blocking_under_lock(walks, ctx))
    lt_findings, lifetime_report = lifetimes_mod.run(tus, ctx, cg)
    findings.extend(lt_findings)
    if selected:
        findings = [f for f in findings
                    if f.check in selected or f.check == "allow-syntax"]

    if args.dot_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.dot_out)),
                    exist_ok=True)
        with open(args.dot_out, "w", encoding="utf-8") as f:
            f.write(graph.to_dot())
        if not args.quiet:
            print(f"analyze: lock-order graph ({len(graph.nodes)} mutexes, "
                  f"{len(graph.edges)} edges) -> {args.dot_out}")

    if args.race_report:
        os.makedirs(os.path.dirname(os.path.abspath(args.race_report)),
                    exist_ok=True)
        with open(args.race_report, "w", encoding="utf-8") as f:
            json.dump(race_report, f, indent=2, sort_keys=False)
            f.write("\n")
        if not args.quiet:
            s = race_report["summary"]
            print(f"analyze: race report ({sum(s.values())} field(s): "
                  f"{s.get('annotated', 0)} annotated, "
                  f"{s.get('racy', 0)} racy, "
                  f"{len(race_report['thread_roots'])} thread root(s)) "
                  f"-> {args.race_report}")

    if args.lifetime_report:
        os.makedirs(os.path.dirname(os.path.abspath(args.lifetime_report)),
                    exist_ok=True)
        with open(args.lifetime_report, "w", encoding="utf-8") as f:
            json.dump(lifetime_report, f, indent=2, sort_keys=False)
            f.write("\n")
        if not args.quiet:
            s = lifetime_report["summary"]
            print(f"analyze: lifetime report "
                  f"({s.get('field_borrows', 0)} borrows / "
                  f"{s.get('field_unannotated', 0)} unannotated view "
                  f"field(s), {len(lifetime_report['tus'])} TU(s) with "
                  f"view inventory) -> {args.lifetime_report}")

    active, suppressed = apply_suppressions(findings, tus_by_path)
    if selected:
        active = [f for f in active
                  if f.check in selected or f.check == "allow-syntax"]

    baseline = {}
    if not args.no_baseline:
        baseline = ratchet.filter_to_checks(ratchet.load(args.baseline),
                                            selected)

    if args.write_baseline:
        total = ratchet.write(args.baseline, active)
        print(f"analyze: wrote baseline with {total} "
              f"finding(s) to {args.baseline}")
        return 0

    new, stale, baselined = ratchet.check(active, baseline)

    for f in sorted(new, key=lambda f: (f.path, f.line, f.check)):
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
    for key in stale:
        print(f"analyze: stale baseline entry {key!r}: fewer findings than "
              "baselined — shrink tools/analyzer/baseline.json "
              "(--write-baseline) so the ratchet holds")

    tally = (f"analyze: {len(files)} TU(s), {len(new)} finding(s), "
             f"{len(baselined)} baselined, {len(suppressed)} suppressed")
    if not args.quiet or new or stale:
        print(tally)
    # Cap at 1: a raw count would wrap modulo 256 on POSIX.
    return 1 if (new or stale) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Race inference: classifies every field/global access collected by
accesses.py against the concurrency levels computed by callgraph.py.

The library shares state between threads in exactly two ways
(DESIGN.md §9): `std::atomic` values, and disjoint `ParallelFor` slots
(each worker writes only the elements its own indices name). The walker
records neither as a plain write — atomic fields and globals are not
recorded at all, and a subscripted element write has kind 'elem' — so
any other concurrent write is a race. A local of the launching function
that a launched lambda captures by reference and writes is analyzed
like a field, keyed `<function>::<local>`. Verdicts per field
(DESIGN.md §14):

  single-threaded  never touched from a concurrent context;
  read-shared      concurrent accesses exist but none writes;
  racy             written from a concurrent context  -> race-infer.

Findings land on the field's *declaration* line so a
`// analyzer: allow(race-infer) -- <reason>` sits next to the field it
excuses (globals fall back to the first concurrent write — the model
does not record global declaration lines).

The same pass emits the machine-readable race report
(build/race_report.json, schema "infoshield-race-report/2"): the thread
roots and every analyzed field with its verdict and access counts.
"""

import collections

import accesses
from callgraph import NONE, access_is_concurrent
from model import Finding

REPORT_SCHEMA = "infoshield-race-report/2"

# How many access sites to list per field in the report / messages.
SITE_CAP = 8


def _field_index(tus):
    """Canonical key -> (path, declaration line or None) for every class
    field and global in the analyzed tree (first declaration wins,
    matching Context)."""
    index = {}
    for tu in tus:
        for cls in tu.all_classes():
            for name, field in cls.fields.items():
                index.setdefault(f"{cls.name}::{name}", (tu.path, field.line))
        for name in tu.globals:
            index.setdefault(f"{accesses.file_stem(tu.path)}::{name}",
                             (tu.path, None))
    return index


def _fmt_site(tu_path, access):
    rw = {"write": "w", "elem": "w[i]"}.get(access.kind, "r")
    return f"{tu_path}:{access.line} {rw}"


def infer(walks, graph, tus):
    """Returns (findings, report_dict). `graph` is the CallGraph over
    `walks`; concurrency levels are computed here."""
    levels = graph.concurrency()
    index = _field_index(tus)

    # key -> [(tu_path, Access, level)]
    by_field = collections.defaultdict(list)
    for top in walks:
        for w in top.walks():
            level = levels.get(w.node_id, NONE)
            for a in w.accesses:
                by_field[a.key].append((w.tu.path, a, level))
                if a.root == "local":
                    index.setdefault(a.key, (w.tu.path, a.decl_line))

    findings = []
    fields_out = []
    summary = collections.Counter()

    for key in sorted(by_field):
        if key not in index:
            continue  # resolver named a class outside the analyzed tree
        decl_path, decl_line = index[key]
        sites = by_field[key]
        conc = sorted(((p, a) for (p, a, lvl) in sites
                       if access_is_concurrent(a, lvl)),
                      key=lambda s: (s[0], s[1].line))
        conc_writes = [(p, a) for (p, a) in conc if a.kind == "write"]
        if conc_writes:
            verdict = "racy"
        elif conc:
            verdict = "read-shared"
        else:
            verdict = "single-threaded"
        summary[verdict] += 1

        if verdict == "racy":
            path, line = (decl_path, decl_line) if decl_line is not None \
                else (conc_writes[0][0], conc_writes[0][1].line)
            site_strs = [_fmt_site(p, a) for (p, a) in conc[:SITE_CAP]]
            findings.append(Finding(
                path, line, "race-infer",
                f"shared field {key} is written from a concurrent "
                f"context; sites: {'; '.join(site_strs)} — make it "
                "std::atomic, or give each worker its own ParallelFor "
                "slot"))

        all_sorted = sorted(sites, key=lambda s: (s[0], s[1].line))
        fields_out.append({
            "field": key,
            "declared": (f"{decl_path}:{decl_line}"
                         if decl_line is not None else decl_path),
            "verdict": verdict,
            "accesses": len(sites),
            "concurrent_accesses": len(conc),
            "concurrent_writes": len(conc_writes),
            "sites": [_fmt_site(p, a) for (p, a, _l) in all_sorted[:SITE_CAP]],
        })

    report = {
        "schema": REPORT_SCHEMA,
        "frontends": dict(collections.Counter(
            tu.frontend for tu in tus)),
        "thread_roots": sorted(
            f"{graph.walk_by_id[nid].tu.path}:"
            f"{graph.walk_by_id[nid].fn.line} ({kind}) {nid}"
            for nid, kind in graph.roots),
        "fields": fields_out,
        "summary": dict(summary),
    }
    return findings, report

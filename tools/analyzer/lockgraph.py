"""Whole-program lock-order analysis (the `lock-order-cycle` check).

Builds the acquired-while-held graph: a directed edge A -> B means some
code path acquires mutex B while already holding mutex A. Acquisition
sites come from three sources:

  * `MutexLock lock(&mu)` scoped acquisitions (released at block end);
  * explicit `mu.Lock()` / `mu.TryLock()` / `mu.Unlock()` calls;
  * `REQUIRES(mu)` annotations (the mutex is held on entry).

Mutexes are canonicalized to stable node names: `Class::field` for
members (the class is recovered through the type resolver, so
`shard.mu` names `Shard::mu`) and `<filestem>::<name>` for file-scope
globals (`logging::g_severity_mu`, `audit::g_stats_mu`).

Two deliberate modeling decisions:

  * CHECK*/LOG* sites pseudo-acquire `logging::g_severity_mu` — the
    LogMessage destructor really does take it via MinLogSeverity(), so a
    CHECK under a lock is a genuine lock-order edge, and one that has
    bitten real systems (logging inside a hot lock).
  * Calls made while holding a lock pull in the callee's *transitive*
    acquisition set, resolved by unqualified name across the whole
    parse (an over-approximation that errs toward reporting edges).

Lambda bodies do not inherit the enclosing held set (the closure may
run later on another thread), but their acquisitions do count toward
the enclosing function's summary: calling the function still triggers
them via ThreadPool::ParallelFor and friends.

src/util/mutex.{h,cc} and thread_annotations.h are excluded: they are
the primitive layer whose internal std::mutex is below this analysis.

Self-edges (re-acquiring the mutex you hold, e.g. a TryLock-then-Lock
fallback) are not recorded: TSA already
rejects true double-acquisition, and the idiomatic fallback is not an
ordering fact.

Since the race-inference PR, this module no longer walks function
bodies itself: it replays the acquisition/call/log events collected by
the shared lockset walker (locksets.py) — the same events race
inference and blocking-under-lock consume, so the analyses cannot
disagree about where a lock is held.
"""

import posixpath
import re

import locksets
from locksets import (EXCLUDED_FILES, LOG_PSEUDO_LOCK, MUTEX_TYPE_HEADS,
                      is_excluded as _is_excluded)
from cpputil import type_head
from model import Finding


def _file_stem(path):
    return posixpath.basename(path).rsplit(".", 1)[0]


class LockGraph:
    def __init__(self):
        self.nodes = set()
        self.edges = {}  # (held, acquired) -> first "path:line (detail)"

    def add_edge(self, held, acquired, site):
        if held == acquired:
            return
        self.nodes.add(held)
        self.nodes.add(acquired)
        self.edges.setdefault((held, acquired), site)

    def to_dot(self):
        lines = ["digraph lock_order {",
                 '  rankdir=LR;',
                 '  node [shape=box, fontname="monospace"];']
        for n in sorted(self.nodes):
            lines.append(f'  "{n}";')
        for (a, b) in sorted(self.edges):
            site = self.edges[(a, b)]
            lines.append(f'  "{a}" -> "{b}" [label="{site}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def cycles(self):
        """Strongly connected components with more than one node (self
        edges are never recorded), as sorted node lists."""
        # Tarjan, iterative.
        adj = {}
        for (a, b) in self.edges:
            adj.setdefault(a, []).append(b)
        for n in self.nodes:
            adj.setdefault(n, [])
        index = {}
        low = {}
        on_stack = set()
        stack = []
        sccs = []
        counter = [0]

        for root in sorted(adj):
            if root in index:
                continue
            work = [(root, iter(sorted(adj[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(adj[nxt]))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        sccs.append(sorted(comp))
        return sorted(sccs)


class _FnSummary:
    def __init__(self, fn, tu):
        self.fn = fn
        self.tu = tu
        self.direct = set()      # canonical mutexes acquired anywhere
        self.calls = set()       # unqualified callee names
        self.callsites = []      # (callee, held tuple, path, line)
        self.calls_log = False


def _summarize(top, graph):
    """Replays one top-level FnWalk (plus its nested lambdas) into the
    graph and a _FnSummary — the exact semantics the pre-refactor
    body walker had: lambda acquisitions count toward the enclosing
    function's summary, CHECK/LOG under a held lock pseudo-acquires the
    logging mutex, and every acquisition adds edges from the locks held
    at that site."""
    s = _FnSummary(top.fn, top.tu)
    s.direct.update(top.entry_held)
    s.calls = top.all_callee_names()
    s.calls_log = top.any_calls_log()
    for w in top.walks():
        for a in w.acquires:
            s.direct.add(a.name)
            graph.nodes.add(a.name)
            for h in a.held_before:
                graph.add_edge(h, a.name,
                               f"{w.tu.path}:{a.line} ({a.detail})")
        for held, line, callee in w.log_under_lock:
            s.direct.add(LOG_PSEUDO_LOCK)
            graph.nodes.add(LOG_PSEUDO_LOCK)
            for h in held:
                graph.add_edge(h, LOG_PSEUDO_LOCK,
                               f"{w.tu.path}:{line} "
                               f"({callee} logs under lock)")
        for c in w.callsites:
            if c.held:
                s.callsites.append((c.name, c.held, w.tu.path, c.line))
    return s


def declared_mutex_nodes(tus):
    """Every Mutex-typed declaration in the analyzed tree, so the graph
    names all mutex users even when an edge never touches them."""
    nodes = set()
    for tu in tus:
        if _is_excluded(tu.path):
            continue
        for cls in tu.all_classes():
            for name, field in cls.fields.items():
                if type_head(field.type_text) in MUTEX_TYPE_HEADS:
                    nodes.add(f"{cls.name}::{name}")
        for name, type_text in tu.globals.items():
            if type_head(type_text) in MUTEX_TYPE_HEADS:
                nodes.add(f"{_file_stem(tu.path)}::{name}")
    return nodes


def build_lock_graph(tus, ctx, walks=None):
    """Returns (graph, findings). Pass the FnWalk list from
    locksets.walk_tree to share one walk with the race inference; it is
    computed here when omitted."""
    graph = LockGraph()
    graph.nodes.update(declared_mutex_nodes(tus))

    if walks is None:
        walks = locksets.walk_tree(tus, ctx)
    summaries = [_summarize(top, graph) for top in walks]

    # Transitive acquisition sets by unqualified function name.
    trans = {}
    calls_by_name = {}
    logs_by_name = {}
    for s in summaries:
        trans.setdefault(s.fn.name, set()).update(s.direct)
        calls_by_name.setdefault(s.fn.name, set()).update(s.calls)
        logs_by_name[s.fn.name] = logs_by_name.get(s.fn.name, False) or \
            s.calls_log
    changed = True
    while changed:
        changed = False
        for name in trans:
            add = set()
            if logs_by_name.get(name):
                add.add(LOG_PSEUDO_LOCK)
            for callee in calls_by_name.get(name, ()):
                add.update(trans.get(callee, ()))
                if logs_by_name.get(callee):
                    add.add(LOG_PSEUDO_LOCK)
            if not add <= trans[name]:
                trans[name] |= add
                changed = True

    for s in summaries:
        for callee, held, path, line in s.callsites:
            for acquired in sorted(trans.get(callee, ())):
                for h in held:
                    graph.add_edge(h, acquired,
                                   f"{path}:{line} (via {callee}())")

    findings = []
    for comp in graph.cycles():
        witness = []
        for (a, b), site in sorted(graph.edges.items()):
            if a in comp and b in comp:
                witness.append(f"{a} -> {b} at {site}")
        path, line = "src", 0
        if witness:
            m = re.search(r"at ([^:]+):(\d+)", witness[0])
            if m:
                path, line = m.group(1), int(m.group(2))
        findings.append(Finding(
            path, line, "lock-order-cycle",
            "lock acquisition cycle: " + " <-> ".join(comp) +
            "; edges: " + "; ".join(witness)))
    return graph, findings

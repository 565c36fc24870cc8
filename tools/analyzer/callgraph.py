"""Call graph over FnWalks, rooted at thread-entry points, answering one
question for the race inference: *which code executes concurrently, and
does it see a shared `this`?*

Thread-entry roots (DESIGN.md §14):

  * lambdas handed to `ThreadPool::ParallelFor`;
  * lambdas handed to a `std::thread` constructor or emplaced into a
    `std::vector<std::thread>` (ParallelFor's own
    `threads.emplace_back([&, w] { ... })`);
  * `LLVMFuzzerTestOneInput` (the fuzz harness entry — libFuzzer value
    profiling and forked modes can run it in parallel, and treating it
    as a root makes every harness-reachable field part of the audit).

Reachability carries a two-level lattice per node:

  ANY     the code runs on (or is indistinguishable from) a concurrent
          context, but its receiver object is thread-private — the call
          chain started at an owned local, a by-value parameter chain,
          or the single-threaded fuzz harness;
  SHARED  the code runs on a worker thread and its receiver (`this`) is
          an object other workers can also see.

Edge rules: an owned-local or parameter receiver demotes the callee to
ANY (arguments are ownership-agnostic: a reference parameter usually
binds a caller-owned object, and the serial/parallel byte-identity
oracles back that bet); a `this` or captured-local receiver inherits
the caller's level; a receiver chain the type resolver cannot prove is
a *gap* — the edge is dropped (miss-toward-silence) rather than fanned
out to every same-named function, because a name like Run or Write
would otherwise mark half the tree concurrent. Receiver-free calls
(free functions, own-class methods) inherit.

Access rules (access_is_concurrent): at SHARED everything but
owned-local and parameter-rooted accesses is concurrent; at ANY only
globals are (the receiver chain was thread-private, so `this`- and
local-rooted state is too); on the main thread none are, since the
library's one launcher, ParallelFor, joins its workers before it
returns (lint bans std::thread outside src/util/). Parameter-rooted
accesses are demoted for
the same reason parameter receivers are: a pointer/reference argument
almost always binds caller-owned state (a per-worker stats struct, a
scratch workspace), and when it does not, the flagged event is the
address-of at the concurrent callsite — `&shared.field` is a write
access on the caller's side of the call. This is the ownership split
that keeps the per-worker accumulator idiom (`Local local; ...
local.Increment(h)` inside a ParallelFor body), out-param plumbing
(`FineStageStats* stats`), and the fuzz harness's value-semantics
code out of the race report while still catching the same method
called on a captured object.
"""

NONE, ANY, SHARED = 0, 1, 2

FUZZ_ENTRY = "LLVMFuzzerTestOneInput"


class CallGraph:
    def __init__(self, walks, ctx):
        self.ctx = ctx
        self.top_walks = walks
        self.walk_by_id = {}
        self.by_name = {}       # unqualified fn name -> [node ids]
        self.by_method = {}     # (class name, method name) -> [node ids]
        self.roots = []         # [(node id, kind)]
        for top in walks:
            for w in top.walks():
                self.walk_by_id[w.node_id] = w
                if not w.is_lambda:
                    self.by_name.setdefault(w.fn.name, []).append(w.node_id)
                    if w.owner is not None:
                        self.by_method.setdefault(
                            (w.owner.name, w.fn.name), []).append(w.node_id)
                if w.is_lambda and w.launched:
                    self.roots.append((w.node_id, "launched-lambda"))
            if top.fn.name == FUZZ_ENTRY:
                self.roots.append((top.node_id, "fuzz-entry"))

    def resolve(self, cs):
        """Node ids a callsite may reach. Receiver-class resolution
        wins. A receiver chain that failed to resolve (recv_root set but
        recv_class empty) is a resolver gap: the edge is dropped.
        Receiver-free calls resolve by unqualified name."""
        if cs.recv_class:
            return self.by_method.get((cs.recv_class, cs.name), [])
        if cs.recv_root:
            return []
        return self.by_name.get(cs.name, [])

    def concurrency(self):
        """node id -> ANY | SHARED for every node reachable from a
        thread root. A launched lambda starts SHARED: its captures (and
        captured `this`) refer to objects other workers see too."""
        state = {}
        work = []

        def mark(node_id, level):
            if state.get(node_id, NONE) >= level:
                return
            state[node_id] = level
            work.append(node_id)

        for node_id, kind in self.roots:
            # The fuzz harness is single-threaded per instance: it roots
            # reachability (its globals are audited) but its locals and
            # everything derived from them stay thread-private.
            mark(node_id, ANY if kind == "fuzz-entry" else SHARED)
        while work:
            node_id = work.pop()
            w = self.walk_by_id[node_id]
            level = state[node_id]
            for lam in w.lambdas:
                # Same-thread closures inherit; launched ones are roots.
                if not lam.launched:
                    mark(lam.node_id, level)
            for cs in w.callsites:
                if cs.recv_root in ("owned", "param"):
                    callee_level = ANY
                else:
                    callee_level = level
                for target in self.resolve(cs):
                    mark(target, callee_level)
        return state


def access_is_concurrent(access, level):
    """Applies the ownership lattice to one access in a node reached at
    `level` (NONE for main-thread nodes)."""
    if level == NONE or access.root == "owned":
        return False
    if level == ANY:
        return access.root == "global"
    return access.root != "param"

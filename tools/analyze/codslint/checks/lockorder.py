"""lock-order — static extraction of the "holds A while acquiring B" graph.

The runtime lock-order registry (src/common/lock_order.hpp) observes
ordering edges only on executions that actually interleave both orders;
this check derives the same name-level graph at lint time, before any test
runs. Per function it records which named locks its scoped guards
(MutexLock / WriterLock / ReaderLock) hold over which token extents; a
fixpoint over the call graph then propagates "this callee (transitively)
acquires lock B", so an edge like `cods.cont -> dart.windows` — post_cont
holding cont_mutex_ while HybridDart::expose takes its WriterLock — is
found across function and file boundaries. Virtual calls union the
summaries of every override (the blocking::Observer::on_block hook is how
`X -> runtime.exec.state` edges arise), and mutex *names* come from field
initializers (`Mutex cont_mutex_{"cods.cont"}`), matching what
lock_order::dump_hierarchy() prints at runtime.

Approximations, on the conservative side for a wait-for graph:
  * MutexLock::unlock() early release is ignored — the guard is assumed
    held to the end of its block, which can only add edges;
  * name-level aliasing (metrics.shard x16, one runtime.mailbox per
    Runtime) collapses instances, so self-edges A -> A are dropped: the
    runtime detector tracks instances and owns that case;
  * bare-name callee resolution falls back to the unique definition.

Findings: every cycle in the static graph (one per cycle, naming the full
path). The graph itself is exported via --dump-lock-graph, pinned by the
golden test, and diffed against the runtime-observed hierarchy with
--runtime-hierarchy (a runtime edge the extraction misses is a finding:
the static view must stay a superset of observed reality).
"""

from __future__ import annotations

from ..model import CodeIndex, FunctionDef
from ..registry import Check, Finding, register

# Wrapper-layer internals whose raw handle plumbing must not register as
# acquisitions (CondVar::wait re-acquires through the native handle).
SKIP_FILES = ("src/common/sync.hpp",)


def _callee_candidates(index: CodeIndex, fn: FunctionDef,
                       call) -> list[FunctionDef]:
    """Function definitions a call site may reach (virtuals: all
    overrides)."""
    out: list[FunctionDef] = []
    recv_cls = index.resolve_receiver_class(call, fn)
    if recv_cls is not None:
        qual = recv_cls + "::" + call.name
        out.extend(index.functions.get(qual, []))
        # Overrides in derived classes (virtual dispatch, conservative
        # union). Walk one level of the name-based inheritance index.
        for derived in index.derived_classes(recv_cls):
            out.extend(index.functions.get(
                derived.qualname + "::" + call.name, []))
        return out
    if call.qual:
        suffix = call.qual + "::" + call.name
        for qual, defs in index.functions.items():
            if qual == suffix or qual.endswith("::" + suffix):
                out.extend(defs)
        return out
    # Bare call: unique free-function definition only.
    defs = index.functions_by_name.get(call.name, [])
    uniq = {d.qualname for d in defs}
    if len(uniq) == 1:
        out.extend(defs)
    return out


class LockGraph:
    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], tuple[str, int]] = {}  # -> witness

    def add(self, a: str, b: str, file: str, line: int) -> None:
        if a == b:
            return  # name-level aliasing; instance-level is runtime's job
        self.edges.setdefault((a, b), (file, line))

    def render(self) -> str:
        return "".join(f"{a} -> {b}\n"
                       for a, b in sorted(self.edges)) or "(empty)\n"

    def cycles(self) -> list[list[str]]:
        """One representative cycle per strongly connected component with
        more than one node (deterministic order)."""
        adj: dict[str, list[str]] = {}
        for a, b in sorted(self.edges):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, [])
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            work = [(v, iter(adj[v]))]
            index_of[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index_of:
                        index_of[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(adj[w])))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index_of[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        sccs.append(sorted(comp))

        for v in sorted(adj):
            if v not in index_of:
                strongconnect(v)
        return sccs


def extract(index: CodeIndex) -> LockGraph:
    # 1. Direct acquisitions per function: guards with resolved names.
    direct: dict[str, set[str]] = {}
    fn_list: list[FunctionDef] = []
    for defs in index.functions.values():
        for fn in defs:
            if fn.file.endswith(SKIP_FILES) and fn.name in (
                    "lock", "unlock", "try_lock", "lock_shared",
                    "unlock_shared"):
                continue
            fn_list.append(fn)
            names = {g.lock_name for g in fn.guards if g.lock_name}
            direct[fn.qualname] = direct.get(fn.qualname, set()) | names
    # 2. Call graph (by qualname).
    calls_of: dict[str, set[str]] = {}
    call_sites: dict[str, list] = {}
    for fn in fn_list:
        targets = calls_of.setdefault(fn.qualname, set())
        sites = call_sites.setdefault(fn.qualname, [])
        for call in fn.calls:
            cands = _callee_candidates(index, fn, call)
            if cands:
                names = {c.qualname for c in cands}
                targets |= names
                sites.append((call, names))
        for (ctype, tok, line) in fn.ctor_decls:
            info = index.find_class(ctype, fn.qualname)
            if info is None:
                continue
            ctor = info.qualname + "::" + info.name
            if ctor in index.functions:
                targets.add(ctor)
                sites.append((_CtorSite(tok, line, fn.file), {ctor}))
    # 3. Fixpoint: transitive acquisitions.
    trans: dict[str, set[str]] = {q: set(s) for q, s in direct.items()}
    changed = True
    iterations = 0
    while changed and iterations < 64:
        changed = False
        iterations += 1
        for q, callees in calls_of.items():
            acc = trans.setdefault(q, set())
            before = len(acc)
            for c in callees:
                acc |= trans.get(c, set())
            if len(acc) != before:
                changed = True
    # 4. Edges: nested guards + calls under held guards.
    graph = LockGraph()
    for fn in fn_list:
        for g in fn.guards:
            if not g.lock_name:
                continue
            for held in fn.guards_at(g.decl_tok):
                if held.lock_name:
                    graph.add(held.lock_name, g.lock_name, g.file, g.line)
        for call, names in call_sites.get(fn.qualname, []):
            held_names = [h.lock_name for h in fn.guards_at(call.tok)
                          if h.lock_name]
            if not held_names:
                continue
            acquired: set[str] = set()
            for qual in names:
                acquired |= trans.get(qual, set())
            for h in held_names:
                for b in sorted(acquired):
                    graph.add(h, b, call.file, call.line)
    return graph


class _CtorSite:
    def __init__(self, tok: int, line: int, file: str):
        self.tok = tok
        self.line = line
        self.file = file


@register
class LockOrderCheck(Check):
    name = "lock-order"
    description = ("static holds-while-acquiring graph must be cycle-free "
                   "(extracted through scoped guards + call summaries)")

    def __init__(self) -> None:
        self.graph: LockGraph | None = None

    def run(self, index: CodeIndex) -> list[Finding]:
        self.graph = extract(index)
        findings: list[Finding] = []
        for comp in self.graph.cycles():
            # Witness: the first edge of the cycle (sorted component).
            a = comp[0]
            nxt = next((b for b in comp if (a, b) in self.graph.edges),
                       comp[1])
            file, line = self.graph.edges.get((a, nxt), ("<graph>", 0))
            findings.append(Finding(
                self.name, file, line,
                "static lock-order cycle: " + " -> ".join(comp + [comp[0]])
                + " — an execution taking these in both orders deadlocks; "
                "restructure so one order is impossible "
                "(docs/CONCURRENCY.md)",
                ",".join(comp)))
        findings.sort(key=lambda f: (f.file, f.line))
        return findings


def diff_runtime(graph: LockGraph, runtime_text: str) -> list[Finding]:
    """Runtime-observed edges (dump_hierarchy() format: `A -> B` lines)
    that static extraction missed. The static graph must stay a superset
    of observed reality, or the lint-time cycle guarantee has a hole."""
    findings = []
    for raw in runtime_text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or "->" not in line:
            continue
        a, _, b = line.partition("->")
        a, b = a.strip(), b.strip()
        if not a or not b:
            continue
        if (a, b) not in graph.edges:
            findings.append(Finding(
                "lock-order", "<runtime-hierarchy>", 0,
                f"runtime-observed edge `{a} -> {b}` is missing from the "
                "static graph: the extractor lost sight of an acquisition "
                "path (update the extractor or the golden, do not ignore)",
                f"{a}->{b}"))
    return findings

"""Offline serializability oracle and deterministic schedule drivers.

The oracle trusts nothing but the trace.  It rebuilds the dependency graph
of committed transactions from the logged accesses in one streaming pass --
read and overwrite dependencies when a transaction's commit line arrives,
read anti-dependencies as soon as a version has both a committed reader and
its committed overwriter -- so it never holds the trace itself, then finds
strongly connected components.  Any component of two or more transactions
is a serialization failure.  For attribution it recomputes the
predecessor/successor watermarks per node from the graph alone and flags
the members whose exclusion window is violated; every component is
guaranteed to contain at least one, and the oracle raises if that ever
fails to hold.

Also here: the schedule script format, the single-threaded deterministic
replay driver, and the exhaustive interleaving enumerator used to check that
every cyclic history produced without enforcement contains a window
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernel import MAX_WORKERS, Scheme, TransactionAborted, UsageError
from .schedulers import CertifierMode, Engine
from .trace import MalformedTrace, TraceEvent, TraceLog

EDGE_WR = "w:r"
EDGE_WW = "w:w"
EDGE_RW = "r:w"
# In sorted order: bit i of an adjacency mask stands for EDGE_KINDS[i].
EDGE_KINDS = (EDGE_RW, EDGE_WR, EDGE_WW)
_KIND_BIT = {kind: 1 << bit for bit, kind in enumerate(EDGE_KINDS)}


def _kinds_of(mask: int) -> list[str]:
    """The edge kinds an adjacency mask holds, in sorted order."""
    return [kind for bit, kind in enumerate(EDGE_KINDS) if mask >> bit & 1]


class AttributionFailure(AssertionError):
    """An SCC without a flagged member: the certifier's own guarantee broke."""


@dataclass
class GraphNode:
    tid: int
    cstamp: int
    order: int          # commit position; breaks duplicate-stamp ties
    pstamp: int = 0
    sstamp: int = 0


class DependencyGraph:
    """Committed transactions and their typed serial dependencies.

    successors[src] maps each successor dst to a bitmask of the kinds of
    the edges from src to dst (see EDGE_KINDS), so each pair is stored once
    however many kinds join it, and adding an edge again changes nothing.
    """

    def __init__(self):
        self.nodes: dict[int, GraphNode] = {}
        self.successors: dict[int, dict[int, int]] = {}

    def add_node(self, tid, cstamp, order):
        self.nodes[tid] = GraphNode(tid, cstamp, order)
        self.successors.setdefault(tid, {})

    def add_edge(self, src, dst, kind):
        if src == dst:
            return  # the model has no self-edges
        if src in self.nodes and dst in self.nodes:
            out = self.successors[src]
            out[dst] = out.get(dst, 0) | _KIND_BIT[kind]

    def edge_kinds(self, src, dst) -> set[str]:
        return set(_kinds_of(self.successors.get(src, {}).get(dst, 0)))

    @property
    def edges(self) -> set[tuple[int, int, str]]:
        """Every edge as a (src, dst, kind) triple, derived from successors."""
        return {(src, dst, kind)
                for src, out in self.successors.items()
                for dst, mask in out.items() for kind in _kinds_of(mask)}

    def commit_order_key(self, tid):
        node = self.nodes[tid]
        return (node.cstamp, node.order)


def build_graph(events) -> DependencyGraph:
    """Dependency graph over the committed transactions of a trace.

    Version identity is (key, creator tid); the initial version of each key
    has creator 0.  Aborted and unfinished transactions contribute nothing.

    One pass over any iterable of events.  Beside the graph it holds the
    accesses of each transaction still in flight, which become edges when
    its commit line arrives; per committed version, its committed readers
    until a committed overwriter arrives and that overwriter after, so r:w
    edges are added online; the tids seen; and the forward references,
    accesses to a version whose write the pass has not met yet.

    Each access also carries the stamp its row recorded for the version it
    names, a read's ver_cstamp or a write's prev_cstamp, and once the
    access and the version's creator have both committed, that stamp must
    be the creator's commit stamp (0 for creator 0).  A read of the
    reader's own version records 0 and is exempt: it adds no edge.

    When a trace has several faults, a line that does not parse, a second
    begin, a second outcome line of a committed tid, a recorded stamp that
    is not its creator's commit stamp and a second committed overwriter of
    one version (the last two at the line that settles the access) are
    raised as the pass reaches them.  A forward reference can be judged
    only once its creator's outcome is known, so forward references are
    resolved after the pass, and the earliest bad one is raised.  Each
    names the offending event by its seq, as parse_trace does (see
    MalformedTrace).
    """
    graph = DependencyGraph()
    nodes = graph.nodes
    seen = set()
    inflight = {}   # tid -> its (kind, key, creator, stamp) accesses so far
    versions = {}   # (key, creator) -> None | [committed readers] | overwriter
    waiting = {}    # creator in flight -> committed accesses to its versions
    forward = []    # (position, key, creator)

    def settle(position, tid, kind, key, creator, stamp):
        """Add the edges of one committed access to a committed version."""
        identity = (key, creator)
        if creator != tid:
            committed = nodes[creator].cstamp if creator else 0
            if stamp != committed:
                raise MalformedTrace(position, "version %r recorded with "
                                     "stamp %d, committed at %d"
                                     % (identity, stamp, committed))
        state = versions.get(identity)
        if kind == "read":
            graph.add_edge(creator, tid, EDGE_WR)
            if state is None:
                versions[identity] = [tid]
            elif type(state) is list:
                state.append(tid)
            else:
                graph.add_edge(tid, state, EDGE_RW)
        else:
            graph.add_edge(creator, tid, EDGE_WW)
            if type(state) is int:
                if state != tid:
                    raise MalformedTrace(position, "version %r overwritten "
                                         "by both %d and %d"
                                         % (identity, state, tid))
                return
            for reader in state or ():
                graph.add_edge(reader, tid, EDGE_RW)
            versions[identity] = tid

    def admit(position, tid, accesses):
        """Settle a committed tid's accesses, after creating its versions."""
        for kind, key, _, _ in accesses:
            if kind == "write":
                versions.setdefault((key, tid), None)
        for access in accesses:
            kind, key, creator, _ = access
            if creator is None:
                continue  # a forward reference, judged after the pass
            if creator == 0 or (key, creator) in versions:
                settle(position, tid, *access)
            elif creator in inflight:
                waiting.setdefault(creator, []).append((tid, access))
            # else the creator aborted: the whole access is moot

    for event in events:
        position, kind, tid = event.seq, event.kind, event.tid
        if kind == "begin" and tid in seen:
            raise MalformedTrace(position, "tid %d began twice" % tid)
        seen.add(tid)
        if kind == "commit":
            if tid in nodes:
                raise MalformedTrace(position, "tid %d committed twice" % tid)
            graph.add_node(tid, event.cstamp, len(nodes))
            admit(position, tid, inflight.pop(tid, ()))
            for committed, access in waiting.pop(tid, ()):
                admit(position, committed, [access])
        elif kind == "abort":
            if tid in nodes:
                raise MalformedTrace(position,
                                     "tid %d aborted after its commit" % tid)
            inflight.pop(tid, None)
            waiting.pop(tid, None)
        elif kind != "begin":
            key, creator = event.key, event.ver_creator
            access = (kind, key, creator, event.ver_cstamp)
            if creator != 0 and (key, creator) not in versions and not any(
                    prior[0] == "write" and prior[1] == key
                    for prior in inflight.get(creator, ())):
                forward.append((position, key, creator))
                if kind == "read":
                    continue
                # It still creates (key, tid).
                access = (kind, key, None, None)
            if tid in nodes:
                admit(position, tid, [access])
            else:
                inflight.setdefault(tid, []).append(access)

    for position, key, creator in forward:
        identity = (key, creator)
        if creator in nodes:
            if identity not in versions:
                raise MalformedTrace(position, "reference to version %r "
                                     "never created" % (identity,))
            raise MalformedTrace(position, "version %r referenced "
                                 "before creation" % (identity,))
        elif creator not in seen:
            raise MalformedTrace(position, "reference to version %r "
                                 "never created" % (identity,))
        # else the creator never committed: the whole access is moot
    return graph


def strongly_connected_components(graph: DependencyGraph) -> list[list[int]]:
    """Tarjan, iterative so deep anti-dependency chains cannot blow the stack."""
    index_of, lowlink, on_stack = {}, {}, set()
    stack, components = [], []
    counter = 0
    for root in graph.nodes:
        if root in index_of:
            continue
        work = [(root, iter(graph.successors[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.successors[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def recompute_watermarks(graph: DependencyGraph) -> None:
    """Per-node watermark recomputation from the graph alone.

    pstamp(T) is the largest commit stamp among predecessors that committed
    before T; sstamp(T) the smallest sstamp among successors that committed
    before T, bounded by T's own stamp.  Processing nodes in commit order
    makes the recursion a single pass.
    """
    by_commit = sorted(graph.nodes, key=graph.commit_order_key)
    position = {tid: i for i, tid in enumerate(by_commit)}
    incoming: dict[int, list[int]] = {tid: [] for tid in graph.nodes}
    for src, out in graph.successors.items():
        for dst in out:
            incoming[dst].append(src)
    for tid in by_commit:
        node = graph.nodes[tid]
        node.pstamp = max(
            (graph.nodes[src].cstamp for src in incoming[tid]
             if position[src] < position[tid]),
            default=0)
        node.sstamp = min(
            (graph.nodes[succ].sstamp for succ in graph.successors[tid]
             if position[succ] < position[tid]),
            default=node.cstamp)
        node.sstamp = min(node.sstamp, node.cstamp)


@dataclass
class ViolationReport:
    sccs: list[list[int]] = field(default_factory=list)
    flagged: list[list[int]] = field(default_factory=list)
    graph: DependencyGraph | None = field(default=None, repr=False)

    @property
    def clean(self) -> bool:
        return not self.sccs

    def render(self) -> str:
        """Header, then per SCC its members and, given the graph, its edges
        sorted by (src, dst, kind)."""
        if self.clean:
            return "serializable sccs=0\n"
        lines = ["serializable=no sccs=%d" % len(self.sccs)]
        for members, flagged in zip(self.sccs, self.flagged):
            lines.append("scc size=%d members=%s flagged=%s" % (
                len(members),
                ",".join(str(t) for t in members),
                ",".join(str(t) for t in flagged)))
            if self.graph is not None:
                scc = set(members)
                for src in sorted(members):
                    out = self.graph.successors[src]
                    for dst in sorted(dst for dst in out if dst in scc):
                        lines += ["edge %d %s %d" % (src, kind, dst)
                                  for kind in _kinds_of(out[dst])]
        return "".join(line + "\n" for line in lines)


def find_violations(graph: DependencyGraph) -> ViolationReport:
    """SCCs of size >= 2 plus the members failing the recomputed window test.

    Members are listed in commit order, and SCCs by the commit order of
    their earliest members, so the report does not depend on the order in
    which the graph's edges were added.

    A member is flagged when its recomputed successor watermark does not
    clear its predecessor watermark.  Watermark equal to the own commit
    stamp means no back edge at all, which cannot violate anything; the
    strict form matters only for the duplicate stamps read-only commits
    may share, and a lenient retry keeps the guarantee check honest there.
    """
    recompute_watermarks(graph)
    report = ViolationReport(graph=graph)
    components = [sorted(component, key=graph.commit_order_key)
                  for component in strongly_connected_components(graph)
                  if len(component) > 1]
    components.sort(key=lambda members: graph.commit_order_key(members[0]))
    for members in components:
        flagged = [tid for tid in members
                   if graph.nodes[tid].sstamp <= graph.nodes[tid].pstamp
                   and graph.nodes[tid].sstamp < graph.nodes[tid].cstamp]
        if not flagged:
            flagged = [tid for tid in members
                       if graph.nodes[tid].sstamp <= graph.nodes[tid].pstamp]
        if not flagged:
            raise AttributionFailure(
                "scc %s contains no exclusion-window violation" % members)
        report.sccs.append(members)
        report.flagged.append(flagged)
    return report


def check_trace(events) -> ViolationReport:
    return find_violations(build_graph(events))


# ---------------- schedule scripts and replay ----------------

OPS = ("read", "write", "commit", "abort")


@dataclass
class ScriptStep:
    label: str
    op: str
    key: int | None = None


def parse_script(text: str,
                 keys: dict[str, int] | None = None) -> list[ScriptStep]:
    """Parse the schedule DSL: one step per line, `label op [key]`.

    read and write take a key; commit and abort take none.  Keys may be
    arbitrary tokens; they map to record indexes in order of first
    appearance.  Several scripts number their keys together when they share
    one keys dict, which this call extends.  Comments start with '#'.
    """
    steps = []
    if keys is None:
        keys = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (2, 3) or fields[1] not in OPS:
            raise UsageError("script line %d: cannot parse %r" % (lineno, raw))
        label, op = fields[0], fields[1]
        key = None
        if op in ("read", "write"):
            if len(fields) != 3:
                raise UsageError("script line %d: %s needs a key" % (lineno, op))
            key = keys.setdefault(fields[2], len(keys))
        elif len(fields) == 3:
            raise UsageError("script line %d: %s takes no key" % (lineno, op))
        steps.append(ScriptStep(label, op, key))
    return steps


@dataclass
class ReplayResult:
    outcomes: dict[str, tuple]   # label -> ("committed", cstamp) | ("aborted", reason)
    tids: dict[str, int]
    trace: list[TraceEvent]
    engine: Engine
    observed: dict[str, bool] = field(default_factory=dict)


def replay_scripted(steps, scheme: Scheme = Scheme.SI,
                    certifier: CertifierMode = CertifierMode.SSN, *,
                    serial: bool = True, observe: bool = False,
                    on_aborted: str = "error") -> ReplayResult:
    """Execute script steps (or script text) one at a time on a fresh engine.

    One record per key up to the largest key named.  Fully deterministic:
    one OS thread, transaction slots assigned by order of first appearance,
    at most MAX_WORKERS transactions.  An `abort` step, or the end of the
    steps before a transaction finished, aborts it as ("aborted", "user").
    A step addressed to a transaction that already finished is a script
    error unless on_aborted="skip" (the enumerator's policy, where
    mid-history aborts simply end that program).
    """
    if isinstance(steps, str):
        steps = parse_script(steps)
    db_size = max((s.key for s in steps if s.key is not None), default=0) + 1
    trace = TraceLog()
    engine = Engine(db_size, scheme, certifier, serial_commit=serial,
                    observe=observe, trace=trace)
    contexts: dict[str, object] = {}
    outcomes: dict[str, tuple] = {}
    observed: dict[str, bool] = {}
    tids: dict[str, int] = {}

    for step in steps:
        ctx = contexts.get(step.label)
        if ctx is None:
            if step.label in outcomes:
                if on_aborted == "skip":
                    continue
                raise UsageError(
                    "script step for finished transaction %r" % step.label)
            slot = len(contexts) + len(outcomes)
            if slot >= MAX_WORKERS:
                raise UsageError("script declares more than %d transactions"
                                 % MAX_WORKERS)
            ctx = engine.begin(slot)
            contexts[step.label] = ctx
            tids[step.label] = ctx.tid
        try:
            if step.op == "read":
                engine.read(ctx, step.key)
            elif step.op == "write":
                engine.write(ctx, step.key)
            elif step.op == "commit":
                cstamp = engine.commit(ctx)
                outcomes[step.label] = ("committed", cstamp)
                observed[step.label] = ctx.observed_violation
                del contexts[step.label]
            else:
                engine.abort(ctx)
                outcomes[step.label] = ("aborted", "user")
                observed[step.label] = ctx.observed_violation
                del contexts[step.label]
        except TransactionAborted as aborted:
            outcomes[step.label] = ("aborted", aborted.reason)
            observed[step.label] = ctx.observed_violation
            del contexts[step.label]
    for label, ctx in contexts.items():
        engine.abort(ctx)
        outcomes[label] = ("aborted", "user")
        observed[label] = ctx.observed_violation
    return ReplayResult(outcomes, tids, list(trace.merged()), engine,
                        observed)


# ---------------- exhaustive interleaving enumeration ----------------

ENUMERATION_GUARD = 10 ** 6


def interleaving_count(programs) -> int:
    lengths = [len(p) for p in programs]
    total = math.factorial(sum(lengths))
    for n in lengths:
        total //= math.factorial(n)
    return total


def interleavings(programs):
    """Yield every merge order as a tuple of program indexes, lexicographic."""
    lengths = [len(p) for p in programs]
    total = sum(lengths)
    prefix: list[int] = []
    taken = [0] * len(programs)

    def extend():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, program in enumerate(programs):
            if taken[i] < lengths[i]:
                taken[i] += 1
                prefix.append(i)
                yield from extend()
                prefix.pop()
                taken[i] -= 1

    yield from extend()


def steps_for_order(programs, labels, order) -> list[ScriptStep]:
    cursors = [0] * len(programs)
    steps = []
    for i in order:
        op, key = programs[i][cursors[i]]
        cursors[i] += 1
        steps.append(ScriptStep(labels[i], op, key))
    return steps


@dataclass
class HistoryResult:
    cyclic: bool
    offline_flagged: list
    engine_observed: bool


def enumerate_interleavings(programs):
    """Replay every interleaving of the given programs.

    Programs are lists of (op, key) pairs ending in ("commit", None); the
    i-th runs as transaction T<i+1>.  They run under RC with exclusion
    checks recorded but not enforced, so cyclic histories can complete.

    Refuses to start when the interleaving count exceeds the guard.
    """
    count = interleaving_count(programs)
    if count > ENUMERATION_GUARD:
        raise UsageError(
            "%d interleavings exceed the enumeration guard of %d"
            % (count, ENUMERATION_GUARD))
    labels = ["T%d" % (i + 1) for i in range(len(programs))]
    for order in interleavings(programs):
        steps = steps_for_order(programs, labels, order)
        result = replay_scripted(
            steps, Scheme.RC, CertifierMode.SSN, serial=True, observe=True,
            on_aborted="skip")
        report = find_violations(build_graph(result.trace))
        yield HistoryResult(
            bool(report.sccs),
            [tid for scc in report.flagged for tid in scc],
            any(result.observed.values()))

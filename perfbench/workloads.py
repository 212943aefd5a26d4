"""Workloads of the mvcert benchmark and the drivers that run them.

A *unit* is one run of a workload's fixed, seed-determined transaction
stream on a fresh engine: the same workload and seed give the same unit, so
a benchmark run repeats units and checks that every count repeats exactly.

``uniform-1w`` goes through ``mvcert.bench.run_bench`` with one worker, the
``mvcert bench`` path.  The contention workloads use *logical clients*: K
clients share one OS thread, and a seeded scheduler picks which client makes
its next engine call.  Transactions therefore interleave operation by
operation, and a seed reproduces the whole run.  Real threads cannot give
that here: under the GIL two threads without yields overlap so rarely that
they hardly abort, and a per-operation ``sleep(0)`` slows the run and makes
its throughput vary by about 30%.  Each client runs a closed loop: it starts
its next transaction only after the previous one committed, and retries an
aborted one with the same program.  Programs come from ``mvcert.bench``'s
sampler, so they match ``mvcert bench``.

Known blind spot: every engine call is one atomic step, so the latch-free
commit path never meets a peer that is mid-commit.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import mvcert.bench as mbench
import mvcert.cli as mcli
import mvcert.oracle as moracle
import mvcert.trace as mtrace
from mvcert import (
    CertifierMode, ClientGroup, Engine, Scheme, TraceLog, TransactionAborted,
    WorkloadConfig,
)


class StructuralFailure(RuntimeError):
    """The run broke an invariant; its numbers cannot be trusted."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    db_size: int
    groups: tuple[ClientGroup, ...]
    commits: int                 # committed transactions per unit
    # Logical clients with the engine trace written and checked offline;
    # otherwise run_bench with the trace off.
    logical: bool
    read_mostly_threshold: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        "uniform-1w",
        "one run_bench worker on 100k records: per-op engine cost without "
        "contention, big store set-up and memory; no aborts, trace or oracle",
        db_size=100_000, groups=(ClientGroup(1, 8, 12, 3),), commits=4000,
        logical=False),
    Workload(
        "hot-8c",
        "8 logical clients on 100 records, traced and checked: about half "
        "the attempts abort, so rollback, retry and pre-commit dominate",
        db_size=100, groups=(ClientGroup(8, 8, 12, 3),), commits=1500,
        logical=True),
    Workload(
        "read-mostly-8c",
        "4 long read-mostly clients beside 4 writers, staleness 40: "
        "untracked reads, reader sweep, handshake. Known defect: oracle "
        "cycles; the handshake pushes the cstamp, not the sstamp",
        db_size=1000,
        groups=(ClientGroup(4, 100, 200, 1, read_mostly=True),
                ClientGroup(4, 8, 12, 3)),
        commits=3000, logical=True,
        read_mostly_threshold=40),
)}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Unit:
    """What one unit produced.  Drained attempts count nowhere but drained."""

    committed: int = 0
    attempts: int = 0
    aborts: dict = field(
        default_factory=lambda: dict.fromkeys(mtrace.ABORT_REASONS, 0))
    drained: int = 0
    reader_commits: int = 0
    tracked_reads: int = 0
    untracked_reads: int = 0
    events: int = 0
    anomaly_txns: int = 0
    engine_s: float = 0.0
    check_s: float = 0.0
    latencies_ns: list = field(default_factory=list)
    rss_engine_kb: int = 0       # peak RSS right after the engine phase

    @property
    def aborted(self) -> int:
        return sum(self.aborts.values())

    def counts(self) -> tuple:
        """Everything that must repeat exactly for a fixed seed.

        anomaly_txns is left out: only units that ran the check know it.
        """
        return (self.committed, self.attempts, tuple(self.aborts.items()),
                self.drained, self.reader_commits, self.tracked_reads,
                self.untracked_reads, self.events)


class _Client:
    __slots__ = ("slot", "group", "rng", "db_size", "reads", "writes",
                 "ctx", "pos", "started", "attempts")

    def __init__(self, slot: int, group: ClientGroup, seed: int, db_size: int):
        self.slot = slot
        self.group = group
        # The same per-slot stream run_bench draws for this slot.
        self.rng = random.Random((seed << 16) ^ slot)
        self.db_size = db_size
        self.ctx = None
        self.next_program()

    def next_program(self) -> None:
        self.reads, self.writes = mbench._sample_program(
            self.rng, self.group, self.db_size, False)
        self.attempts = 0


def drive(engine: Engine, workload: Workload, seed: int, unit: Unit) -> None:
    """Run logical clients until workload.commits commits, then drain."""
    clients = []
    for group in workload.groups:
        for _ in range(group.threads):
            clients.append(_Client(len(clients), group, seed,
                                   workload.db_size))
    pick = random.Random("perfbench-schedule-%d" % seed).randrange
    count = len(clients)
    clock = time.perf_counter_ns
    started = time.perf_counter()
    while unit.committed < workload.commits:
        client = clients[pick(count)]
        ctx = client.ctx
        if ctx is None:
            if client.attempts == 0:
                client.started = clock()
            client.attempts += 1
            if client.attempts > mbench.RETRY_CAP:
                raise StructuralFailure(
                    "slot %d exceeded %d retries" % (client.slot,
                                                     mbench.RETRY_CAP))
            client.ctx = engine.begin(client.slot,
                                      read_only=client.group.read_only,
                                      read_mostly=client.group.read_mostly)
            client.pos = 0
            continue
        pos = client.pos
        reads = len(client.reads)
        try:
            if pos < reads:
                engine.read(ctx, client.reads[pos])
            elif pos < reads + len(client.writes):
                engine.write(ctx, client.writes[pos - reads])
            else:
                engine.commit(ctx)
                unit.latencies_ns.append(clock() - client.started)
                unit.committed += 1
                unit.reader_commits += client.group.read_mostly
                client.next_program()
                client.ctx = None
        except TransactionAborted as aborted:
            unit.aborts[aborted.reason] += 1
            client.ctx = None
        if client.ctx is None:
            unit.attempts += 1
            unit.tracked_reads += ctx.tracked_reads
            unit.untracked_reads += ctx.untracked_reads
        else:
            client.pos = pos + 1
    unit.engine_s = time.perf_counter() - started
    # Abort what is still in flight, or check_chains finds uncommitted heads.
    for client in clients:
        if client.ctx is not None:
            engine.abort(client.ctx)
            unit.drained += 1


def new_engine(workload: Workload, certifier: CertifierMode) -> Engine:
    trace = TraceLog() if workload.logical else None
    return Engine(workload.db_size, Scheme.SI, certifier,
                  read_mostly_threshold=workload.read_mostly_threshold,
                  trace=trace)


def run_unit(workload: Workload, seed: int, out_dir: Path, *,
             certifier: CertifierMode = CertifierMode.SSN,
             check: bool = True) -> Unit:
    """One unit: engine phase, chain check, then trace write and check."""
    gc.collect()
    unit = Unit()
    if not workload.logical:
        _run_bench_unit(workload, seed, certifier, unit)
        return unit
    engine = new_engine(workload, certifier)
    drive(engine, workload, seed, unit)
    try:
        engine.store.check_chains()
    except AssertionError as error:
        raise StructuralFailure("store chains: %s" % error) from None
    unit.rss_engine_kb = peak_rss_kb()
    events = engine.trace.merged()
    unit.events = len(events)
    commits = sum(1 for event in events if event.kind == "commit")
    if commits != unit.committed:
        raise StructuralFailure("trace holds %d commits, clients made %d"
                                % (commits, unit.committed))
    if check:
        _offline_check(workload, seed, events, out_dir, unit)
    return unit


def _run_bench_unit(workload: Workload, seed: int,
                    certifier: CertifierMode, unit: Unit) -> None:
    config = WorkloadConfig(
        db_size=workload.db_size, groups=list(workload.groups),
        txns_per_thread=workload.commits, seed=seed, certifier=certifier)
    try:
        # run_bench checks the store chains itself once the run is over.
        stats, _ = mbench.run_bench(config)
    except AssertionError as error:
        raise StructuralFailure("run_bench: %s" % error) from None
    unit.rss_engine_kb = peak_rss_kb()
    if stats.committed != workload.commits:
        raise StructuralFailure("run_bench committed %d of %d"
                                % (stats.committed, workload.commits))
    unit.committed = stats.committed
    for reason in unit.aborts:
        unit.aborts[reason] = stats.aborts(reason)
    unit.attempts = unit.committed + unit.aborted
    unit.tracked_reads = sum(g.tracked_reads for g in stats.groups)
    unit.untracked_reads = sum(g.untracked_reads for g in stats.groups)
    unit.engine_s = stats.wall_seconds


def _offline_check(workload: Workload, seed: int, events: list,
                   out_dir: Path, unit: Unit) -> None:
    """Write the trace, then check it the way ``mvcert check`` does."""
    path = out_dir / ("%s-seed%d.trace" % (workload.name, seed))
    mtrace.write_trace(events, path)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = mcli.main(["check", str(path)])
    except moracle.AttributionFailure as error:
        raise StructuralFailure("oracle: %s" % error) from None
    unit.check_s = time.perf_counter() - started
    if status == 1:
        raise StructuralFailure("mvcert check could not read %s" % path)
    if status == 2:
        report = moracle.check_trace(events)
        unit.anomaly_txns = sum(len(scc) for scc in report.sccs)

"""Microbenchmark workload generation, multi-threaded orchestration, stats.

The workload is a single table of db_size records, each holding the id of
the transaction that last wrote it.  Every transaction draws a footprint
size uniformly from its group's range, picks that many records uniformly
with repetition, reads all but the last m and writes those last m with its
own id.  Repeated reads, repeated overwrites and blind writes are all
allowed.  Client groups with different parameters mix long readers with
short writers in one run.

Workers run closed-loop: after a commit (or a dropped abort) the next
transaction starts immediately; in retry mode an aborted transaction is
re-run with the same record sequence until it commits.  With more than one
worker, each yields the scheduler after every operation and at every
transaction boundary, so transactions overlap operation by operation; a
single worker never yields.  The per-thread operation stream is fully
seed-determined, so a single-threaded run is bit-reproducible.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time
from dataclasses import dataclass, field

from .kernel import MAX_WORKERS, Scheme, TransactionAborted
from .schedulers import CertifierMode, Engine
from .trace import ABORT_REASONS, TraceLog

RETRY_CAP = 10_000


@dataclass
class ClientGroup:
    threads: int
    footprint_min: int
    footprint_max: int
    writes_per_txn: int
    read_only: bool = False
    read_mostly: bool = False

    def validate(self, db_size: int) -> None:
        if self.threads < 1:
            raise ValueError("group needs at least one thread")
        if not (0 < self.footprint_min <= self.footprint_max <= db_size):
            raise ValueError("footprint range must fit the database")
        if self.read_only:
            if self.writes_per_txn != 0:
                raise ValueError("read-only group cannot write")
        elif not (0 < self.writes_per_txn <= self.footprint_min):
            raise ValueError("writes per transaction must fit the smallest footprint")


@dataclass
class WorkloadConfig:
    db_size: int
    groups: list[ClientGroup]
    txns_per_thread: int
    seed: int = 1
    scheme: Scheme = Scheme.SI
    certifier: CertifierMode = CertifierMode.SSN
    serial_commit: bool = False
    retry: bool = True
    safe_snapshot_interval: int = 0
    read_mostly_threshold: int = 0
    distinct_writes: bool = False
    emit_trace: bool = False

    def validate(self) -> None:
        if self.db_size < 1:
            raise ValueError("db_size must be positive")
        if not self.groups:
            raise ValueError("need at least one client group")
        if sum(g.threads for g in self.groups) > MAX_WORKERS:
            raise ValueError("at most %d worker threads" % MAX_WORKERS)
        if self.txns_per_thread < 1:
            raise ValueError("txns_per_thread must be positive")
        if self.safe_snapshot_interval < 0:
            raise ValueError("safe_snapshot_interval must be >= 0")
        if self.safe_snapshot_interval and self.certifier is not CertifierMode.SSN:
            raise ValueError("safe snapshots need the ssn certifier")
        for group in self.groups:
            group.validate(self.db_size)


@dataclass
class GroupStats:
    offered: int = 0
    committed: int = 0
    retries: int = 0
    aborts: dict = field(default_factory=lambda: {r: 0 for r in ABORT_REASONS})
    tracked_reads: int = 0
    untracked_reads: int = 0

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    def merge(self, other: "GroupStats") -> None:
        self.offered += other.offered
        self.committed += other.committed
        self.retries += other.retries
        self.tracked_reads += other.tracked_reads
        self.untracked_reads += other.untracked_reads
        for reason, count in other.aborts.items():
            self.aborts[reason] += count


@dataclass
class RunStats:
    config: WorkloadConfig
    groups: list[GroupStats]
    wall_seconds: float = 0.0

    @property
    def committed(self) -> int:
        return sum(g.committed for g in self.groups)

    @property
    def offered(self) -> int:
        return sum(g.offered for g in self.groups)

    def aborts(self, reason: str) -> int:
        return sum(g.aborts[reason] for g in self.groups)

    @property
    def total_aborts(self) -> int:
        return sum(g.total_aborts for g in self.groups)

    @property
    def throughput(self) -> float:
        return self.committed / self.wall_seconds if self.wall_seconds else 0.0

    def render(self) -> str:
        cfg = self.config
        lines = [
            "run scheme=%s certifier=%s commit_path=%s seed=%d db=%d "
            "threads=%d retry=%d wall=%.3f" % (
                cfg.scheme.value, cfg.certifier.value,
                "serial" if cfg.serial_commit else "parallel", cfg.seed,
                cfg.db_size, sum(g.threads for g in cfg.groups),
                int(cfg.retry), self.wall_seconds)
        ]
        for index, stats in enumerate(self.groups):
            lines.append(
                "group id=%d threads=%d offered=%d committed=%d retries=%d "
                "aborts=%d abort_cc=%d abort_exclusion=%d abort_dangerous=%d "
                "abort_snapshot=%d abort_user=%d tracked_reads=%d "
                "untracked_reads=%d" % (
                    index, cfg.groups[index].threads, stats.offered,
                    stats.committed, stats.retries, stats.total_aborts,
                    stats.aborts["cc_conflict"], stats.aborts["ssn_exclusion"],
                    stats.aborts["ssi_dangerous"], stats.aborts["safe_snapshot"],
                    stats.aborts["user"], stats.tracked_reads,
                    stats.untracked_reads))
        lines.append(
            "total offered=%d committed=%d aborts=%d throughput=%.1f" % (
                self.offered, self.committed, self.total_aborts,
                self.throughput))
        return "".join(line + "\n" for line in lines)


def _sample_program(rng: random.Random, group: ClientGroup, db_size: int,
                    distinct_writes: bool):
    """The keys a program reads and writes: the draws of rng.randint and
    rng.randrange, with CPython's Random._randbelow_with_getrandbits
    inlined (getrandbits(n.bit_length()) until below n) to save two calls
    per key."""
    getrandbits = rng.getrandbits
    low = group.footprint_min
    width = group.footprint_max - low + 1
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    size = low + r
    k = db_size.bit_length()
    records = []
    for _ in range(size):
        r = getrandbits(k)
        while r >= db_size:
            r = getrandbits(k)
        records.append(r)
    m = group.writes_per_txn
    reads, writes = records[:size - m], records[size - m:]
    if distinct_writes and m:
        forbidden = set(reads)
        if db_size > len(forbidden):
            writes = []
            while len(writes) < m:
                r = getrandbits(k)
                if r < db_size and r not in forbidden:
                    writes.append(r)
    return reads, writes


def _run_worker(engine: Engine, slot: int, group: ClientGroup,
                stats: GroupStats, config: WorkloadConfig,
                commit_counter: itertools.count, failure: list) -> None:
    rng = random.Random((config.seed << 16) ^ slot)
    # Yield after every operation, not just between transactions: models
    # per-access latency, so transactions genuinely overlap op-by-op the
    # way concurrent clients would.  A lone worker has nobody to yield to,
    # so it makes no call at all.
    multi = sum(g.threads for g in config.groups) > 1
    try:
        for _ in range(config.txns_per_thread):
            reads, writes = _sample_program(rng, group, config.db_size,
                                            config.distinct_writes)
            stats.offered += 1
            # Yield at the transaction boundary: a thread preempted here
            # holds no uncommitted versions, which keeps the write-write
            # exposure of a paused worker close to a real parallel run.
            if multi:
                time.sleep(0)
            attempts = 0
            while True:
                attempts += 1
                if attempts > RETRY_CAP:
                    raise RuntimeError(
                        "transaction exceeded %d retries on slot %d"
                        % (RETRY_CAP, slot))
                ctx = engine.begin(slot, read_only=group.read_only,
                                   read_mostly=group.read_mostly)
                try:
                    for key in reads:
                        engine.read(ctx, key)
                        if multi:
                            time.sleep(0)
                    for key in writes:
                        engine.write(ctx, key)
                        if multi:
                            time.sleep(0)
                    engine.commit(ctx)
                except TransactionAborted as aborted:
                    stats.tracked_reads += ctx.tracked_reads
                    stats.untracked_reads += ctx.untracked_reads
                    stats.aborts[aborted.reason] += 1
                    if config.retry:
                        stats.retries += 1
                        # Yield once so the conflicting holder can finish;
                        # retrying within the same scheduler quantum would
                        # mostly re-collide with the same in-flight write.
                        time.sleep(0)
                        continue
                    break
                stats.tracked_reads += ctx.tracked_reads
                stats.untracked_reads += ctx.untracked_reads
                stats.committed += 1
                interval = config.safe_snapshot_interval
                if interval:
                    # A draw without the lock (kernel rule 4).
                    done = next(commit_counter)
                    if done % interval == 0:
                        engine.take_safe_snapshot()
                break
    except BaseException:
        failure.append(sys.exc_info()[1])
        raise


def run_bench(config: WorkloadConfig):
    """Execute the workload; returns (RunStats, trace events or None)."""
    config.validate()
    trace = TraceLog() if config.emit_trace else None
    engine = Engine(config.db_size, config.scheme, config.certifier,
                    serial_commit=config.serial_commit,
                    read_mostly_threshold=config.read_mostly_threshold,
                    trace=trace)
    per_thread: list[tuple[int, int, GroupStats]] = []
    group_stats = [GroupStats() for _ in config.groups]
    slot = 0
    for gi, group in enumerate(config.groups):
        for _ in range(group.threads):
            per_thread.append((slot, gi, GroupStats()))
            slot += 1

    commit_counter = itertools.count(1)
    failure: list = []
    total_threads = slot
    started = time.perf_counter()
    if total_threads == 1:
        slot, gi, stats = per_thread[0]
        _run_worker(engine, slot, config.groups[gi], stats, config,
                    commit_counter, failure)
    else:
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        try:
            threads = [
                threading.Thread(
                    target=_run_worker,
                    args=(engine, slot, config.groups[gi], stats, config,
                          commit_counter, failure),
                    name="worker-%d" % slot)
                for slot, gi, stats in per_thread]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
    wall = time.perf_counter() - started
    if failure:
        raise failure[0]
    # Quiescent invariant: one head per chain, strictly increasing committed
    # stamps, no transaction-id residue anywhere.
    engine.store.check_chains()

    for slot, gi, stats in per_thread:
        group_stats[gi].merge(stats)
    run = RunStats(config, group_stats, wall)
    events = trace.merged() if trace is not None else None
    return run, events

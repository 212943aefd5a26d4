"""Access schemes and the engine facade.

The Engine ties the clock, transaction table, store and certifier together
behind the begin/read/write/commit/abort surface that workers and the replay
drivers use.  The underlying scheme (SI or RC) decides which version a read
returns and when a write conflicts; the Engine keeps the write set and the
version installs.  The write set maps each version a transaction installed
to its record, so rollback can unlink it.  The Engine reports every
transaction's start, each read of a foreign version, each fresh write and
the commit to the configured certifier through the hooks in certifier.py,
and aborts with whatever cause a hook returns.  Only table scans and safe
snapshots ask which certifier is configured, because only SSN supports
them.

Three certifier settings exist:

    none    the bare scheme; commits are never refused
    ssn     the exclusion-window certifier (plus an observe mode that
            records violations without enforcing them)
    ssi     a two-flag dangerous-structure certifier for comparison: a
            transaction with both an inbound and an outbound read
            anti-dependency whose outbound partner committed first aborts

The commit path is the Engine's choice, not the certifier's.  By default
commits run latch-free and concurrently.  With serial_commit the Engine
holds one lock around each commit, under any certifier, so no commit ever
meets a peer that is mid-commit: the reference the latch-free path is
checked against.
"""

from __future__ import annotations

import threading
from enum import Enum

from .certifier import Certifier, ExclusionCertifier, SsiCertifier
from .kernel import (
    ABORTED, COMMITTED, COMMITTING, INFLIGHT, GlobalClock, Scheme,
    TableMode, TransactionAborted, TransactionContext, TransactionTable,
    UsageError, transition_status,
)
from .store import Store, WriteConflict
from .trace import TraceLog


class CertifierMode(Enum):
    NONE = "none"
    SSN = "ssn"
    SSI = "ssi"


class Engine:
    """One in-memory database instance with a fixed scheme and certifier."""

    def __init__(self, db_size: int, scheme: Scheme = Scheme.SI,
                 certifier: CertifierMode = CertifierMode.SSN, *,
                 serial_commit: bool = False, observe: bool = False,
                 read_mostly_threshold: int = 0,
                 trace: TraceLog | None = None):
        if certifier is CertifierMode.SSI and scheme is not Scheme.SI:
            raise UsageError("the ssi certifier runs on top of si only")
        if observe and certifier is not CertifierMode.SSN:
            raise UsageError("observe mode records exclusion checks; needs ssn")
        if read_mostly_threshold < 0:
            raise ValueError("staleness threshold must be >= 0")
        self.scheme = scheme
        self.certifier = certifier
        self.clock = GlobalClock()
        self.table = TransactionTable()
        self.store = Store(db_size, self.table)
        self.trace = trace
        self.latch = threading.Lock() if serial_commit else None
        if certifier is CertifierMode.SSN:
            self.cert = ExclusionCertifier(
                self.clock, self.table, self.store, observe=observe,
                threshold=read_mostly_threshold)
        elif certifier is CertifierMode.SSI:
            self.cert = SsiCertifier(self.clock, self.table, self.store)
        else:
            self.cert = Certifier(self.clock, self.table, self.store)

    # ---------------- lifecycle ----------------

    def begin(self, slot: int, *, read_only: bool = False,
              read_mostly: bool = False) -> TransactionContext:
        tid = self.table.allocate_tid(slot)
        start = self.clock.current()
        ctx = TransactionContext(
            tid, slot, self.scheme, read_only=read_only,
            read_mostly=read_mostly, start_stamp=start,
            begin_stamp=0 if self.scheme is Scheme.RC else start)
        self.cert.begin(ctx)
        self.table.publish(slot, ctx)
        if self.trace is not None:
            self.trace.begin(tid, slot)
        return ctx

    def abort(self, ctx: TransactionContext) -> None:
        """User-requested abort; conflict paths raise instead."""
        self._require_inflight(ctx)
        self._abort_cleanup(ctx, "user", INFLIGHT)

    def _abort_cleanup(self, ctx, reason, from_status) -> None:
        """Abort ctx and undo its effects; reason None writes no trace line."""
        transition_status(ctx, from_status, ABORTED)
        self.store.rollback(ctx)
        self._clear_reader_bits(ctx)
        if self.trace is not None and reason is not None:
            self.trace.abort(ctx.tid, ctx.slot, reason)
        self.table.clear(ctx.slot)

    def _fail(self, ctx, reason, from_status=INFLIGHT):
        self._abort_cleanup(ctx, reason, from_status)
        raise TransactionAborted(reason)

    def _clear_reader_bits(self, ctx) -> None:
        # Untracked reads deliberately never clear their bits.
        if ctx.reads:
            self.store.clear_readers(ctx.reads, ctx.slot)

    def _require_inflight(self, ctx) -> None:
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)

    # ---------------- forward processing ----------------

    def read(self, ctx: TransactionContext, key: int):
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        store = self.store
        version = store.visible_version(ctx, store.records[key])
        own = version.creator_tid == ctx.tid
        cstamp = 0 if own else store.creation_stamp(version)
        if self.trace is not None:
            self.trace.read(ctx.tid, ctx.slot, key, version.creator_tid, cstamp)
        if not own:
            cause = self.cert.on_read(ctx, version, cstamp)
            if cause is not None:
                self._fail(ctx, cause)
        return version.payload

    def write(self, ctx: TransactionContext, key: int, payload=None) -> None:
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        if ctx.snapshot_mode:
            raise UsageError("snapshot queries are read-only")
        if payload is None:
            payload = ctx.tid
        record = self.store.records[key]
        try:
            version = self.store.install_version(ctx, record, payload)
        except WriteConflict:
            self._fail(ctx, "cc_conflict")
        if self.trace is not None:
            prev = version.prev
            # prev is committed, so its word is untagged: the stamp itself.
            self.trace.write(ctx.tid, ctx.slot, key, prev.creator_tid,
                             prev.cstamp)
        # A repeated overwrite replaced the payload in place: nothing new.
        if version not in ctx.writes:
            ctx.writes[version] = record
            cause = self.cert.on_write(ctx, version)
            if cause is not None:
                self._fail(ctx, cause)

    def scan(self, ctx: TransactionContext) -> list:
        """Full-table scan under the table-granularity read mode.

        The scan flags the transaction read-mostly and in table mode R, so
        from here on the certifier leaves its reads untracked, point reads
        included: they leave reader bits and fold stamps like stale reads,
        and the transaction settles its anti-dependencies through the table
        pstamp plus the read-mostly handshake.
        """
        self._require_inflight(ctx)
        if self.certifier is not CertifierMode.SSN:
            raise UsageError("table scans need the ssn certifier")
        ctx.table_modes.add(TableMode.R)
        ctx.read_mostly = True
        return [self.read(ctx, key) for key in range(len(self.store.records))]

    def declare_table_mode(self, ctx: TransactionContext, *modes) -> None:
        self._require_inflight(ctx)
        for mode in modes:
            ctx.table_modes.add(TableMode(mode))

    def take_safe_snapshot(self) -> int:
        """Publish a safe snapshot; returns its stamp."""
        if self.certifier is not CertifierMode.SSN:
            raise UsageError("safe snapshots need the ssn certifier")
        return self.cert.take_safe_snapshot()

    # ---------------- commit ----------------

    def commit(self, ctx: TransactionContext) -> int:
        """Run the certifier's pre-commit and post-commit; returns the stamp.

        Raises TransactionAborted when certification refuses the commit.
        With serial_commit, every commit but a safe-snapshot query's holds
        the engine's latch from pre-commit through post-commit or rollback.
        """
        self._require_inflight(ctx)
        latch = self.latch
        if latch is not None and not ctx.snapshot_mode:
            with latch:
                return self._commit(ctx)
        return self._commit(ctx)

    def _commit(self, ctx) -> int:
        """Pre-commit and post-commit, failure-atomic up to COMMITTED.

        Any exception raised between the COMMITTING and the COMMITTED
        transitions, other than a certifier's own abort (which has already
        cleaned up), aborts the transaction the way a refused commit does,
        then propagates.  No abort line is traced: the trace format has no
        reason for it, and the oracle ignores unfinished transactions.
        """
        try:
            cause = self.cert.pre_commit(ctx)
            if cause is not None:
                self._fail(ctx, cause, COMMITTING)
            transition_status(ctx, COMMITTING, COMMITTED)
        except BaseException:
            if ctx.status == COMMITTING:
                self._abort_cleanup(ctx, None, COMMITTING)
            raise
        cstamp = ctx.cstamp
        if self.trace is not None:
            self.trace.commit(ctx.tid, ctx.slot, cstamp)
        self.store.finalize_commit(ctx)
        self.cert.post_commit(ctx)
        self._clear_reader_bits(ctx)
        self.table.clear(ctx.slot)
        return cstamp

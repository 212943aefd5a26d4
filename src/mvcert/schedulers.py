"""Access schemes and the engine facade.

The Engine ties the clock, transaction table, store and certifier together
behind the begin/read/write/commit/abort surface that workers and the replay
drivers use.  The underlying scheme (SI or RC) decides which version a read
returns and when a write conflicts; the Engine keeps the write set and the
version installs.  The write set holds each version a transaction
installed; the version's key names the list slot rollback unlinks it from.
The Engine reports every transaction's start, each read of a foreign
version, each fresh write and the commit to the configured certifier
through the hooks in certifier.py, and aborts with whatever cause a hook
returns.  It makes every status
change itself (kernel rule 3).  Only table scans and safe snapshots ask
which certifier is configured, because only SSN supports them.

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
    ABORTED, COMMITTED, COMMITTING, INFLIGHT, RC, SLOT_MASK, GlobalClock,
    Scheme, TableMode, TransactionAborted, TransactionContext,
    TransactionTable, UsageError, transition_status,
)
from .store import Store, WriteConflict
from .trace import ABORT, COMMIT, READ, REASON_INDEX, WRITE, TraceLog, pack_row


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
        self.records = self.store.records
        self.trace = trace
        # Each event packs its row where it happens and appends it with
        # the log's one C call (trace.py); None when nothing is traced.
        self._emit = None if trace is None else trace.append
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
        if slot & ~SLOT_MASK:
            raise UsageError("worker slot %d is outside 0..%d"
                             % (slot, SLOT_MASK))
        table = self.table
        if table.current[slot] is not None:
            raise UsageError("worker slot %d already occupied" % slot)
        tid = table.allocate_tid(slot)
        start = self.clock.current()
        scheme = self.scheme
        ctx = TransactionContext(tid, slot, scheme, read_only, read_mostly,
                                 0 if scheme is RC else start, start)
        self.cert.begin(ctx)
        table.publish(slot, ctx)
        emit = self._emit
        if emit is not None:
            emit(pack_row(slot << 3, tid, 0, 0, 0))
        return ctx

    def abort(self, ctx: TransactionContext) -> None:
        """User-requested abort; conflict paths raise instead."""
        self._require_inflight(ctx)
        self._abort_cleanup(ctx, "user", INFLIGHT)

    def _abort_cleanup(self, ctx, reason, from_status) -> None:
        """Abort ctx and undo its effects; reason None writes no trace line."""
        transition_status(ctx, from_status, ABORTED)
        self.store.rollback(ctx)
        emit = self._emit
        if emit is not None and reason is not None:
            emit(pack_row(ctx.slot << 3 | ABORT, ctx.tid, REASON_INDEX[reason],
                          0, 0))
        self.table.clear(ctx.slot)

    def _fail(self, ctx, reason, from_status=INFLIGHT):
        self._abort_cleanup(ctx, reason, from_status)
        raise TransactionAborted(reason)

    def _key_past_the_end(self, key) -> UsageError:
        return UsageError("key %d is past the last key %d"
                          % (key, len(self.records) - 1))

    def _require_inflight(self, ctx) -> None:
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)

    # ---------------- forward processing ----------------
    # Like _commit, read and write abort ctx without a trace line on any
    # error but a certifier's abort (already cleaned up), then re-raise.

    def read(self, ctx: TransactionContext, key: int):
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        if key < 0:
            raise UsageError("key %d is negative" % key)
        try:
            version = self.records[key]
        except IndexError:
            raise self._key_past_the_end(key) from None
        try:
            # A head whose word is at or below begin_stamp is the visible
            # version, and its word is its stamp: a tid-tagged word is
            # larger than any stamp, so the head is committed and inside
            # the snapshot.  Under RC, begin_stamp is 0 and only an initial
            # head passes.  Every other head goes to the store.
            cstamp = version.cstamp
            own = False
            if cstamp > ctx.begin_stamp:
                store = self.store
                version = store.visible_version(ctx, version)
                own = version.creator_tid == ctx.tid
                cstamp = 0 if own else store.creation_stamp(version)
            emit = self._emit
            if emit is not None:
                emit(pack_row(ctx.slot << 3 | READ, ctx.tid, key,
                              version.creator_tid, cstamp))
            if not own:
                cause = self.cert.on_read(ctx, version, cstamp)
                if cause is not None:
                    self._fail(ctx, cause)
        except BaseException:
            if ctx.status == INFLIGHT:
                self._abort_cleanup(ctx, None, INFLIGHT)
            raise
        return version.payload

    def write(self, ctx: TransactionContext, key: int, payload=None) -> None:
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        if ctx.read_only:
            raise UsageError("transaction %d is read-only" % ctx.tid)
        if key < 0:
            raise UsageError("key %d is negative" % key)
        if payload is None:
            payload = ctx.tid
        try:
            head = self.records[key]
        except IndexError:
            raise self._key_past_the_end(key) from None
        try:
            version = self.store.install_version(ctx, head, payload)
            emit = self._emit
            if emit is not None:
                prev = version.prev
                # prev is committed, so its word is untagged: the stamp.
                emit(pack_row(ctx.slot << 3 | WRITE, ctx.tid, key,
                              prev.creator_tid, prev.cstamp))
            # A repeated overwrite replaced the payload in place: nothing new.
            if version not in ctx.writes:
                ctx.writes[version] = None
                cause = self.cert.on_write(ctx, version)
                if cause is not None:
                    self._fail(ctx, cause)
        except WriteConflict:
            self._fail(ctx, "cc_conflict")
        except BaseException:
            if ctx.status == INFLIGHT:
                self._abort_cleanup(ctx, None, INFLIGHT)
            raise

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
        ctx.table_modes = ctx.table_modes | {TableMode.R}
        ctx.read_mostly = True
        return [self.read(ctx, key) for key in range(len(self.records))]

    def declare_table_mode(self, ctx: TransactionContext, *modes) -> None:
        self._require_inflight(ctx)
        ctx.table_modes = ctx.table_modes | {TableMode(mode) for mode in modes}

    def take_safe_snapshot(self) -> int:
        """Draw and publish a safe snapshot in one step; returns its stamp."""
        if self.certifier is not CertifierMode.SSN:
            raise UsageError("safe snapshots need the ssn certifier")
        return self.clock.draw_snapshot()

    # ---------------- commit ----------------

    def commit(self, ctx: TransactionContext) -> int:
        """Run the certifier's pre-commit and post-commit; returns the stamp.

        Raises TransactionAborted when certification refuses the commit.
        With serial_commit, every commit holds the engine's latch from the
        COMMITTING transition through post-commit or rollback.
        """
        if ctx.status != INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        latch = self.latch
        if latch is not None:
            with latch:
                return self._commit(ctx)
        return self._commit(ctx)

    def _commit(self, ctx) -> int:
        """COMMITTING, pre-commit, COMMITTED and post-commit.

        The engine makes every status change; the certifier's pre-commit
        only draws the stamp and gives the verdict, after COMMITTING, as
        kernel rule 6 requires.  Any exception between COMMITTING and
        COMMITTED, other than a certifier's own abort (already cleaned up),
        aborts the transaction the way a refused commit does, then
        propagates.  No abort line is traced: the trace format has no
        reason for it, and the oracle ignores unfinished transactions.

        Post-commit fails loudly and leaves the slot marked.  An exception
        after the COMMITTED transition (in finalize_commit or the
        certifier's post_commit) propagates, and nothing is undone: the
        commit line is already traced, the context stays COMMITTED, and it
        keeps its slot.  Peers still resolve its tid-tagged versions through
        the table, so readers see its writes, a writer of one of its keys
        aborts with cc_conflict, and the slot cannot begin again.
        """
        try:
            transition_status(ctx, INFLIGHT, COMMITTING)
            cause = self.cert.pre_commit(ctx)
            if cause is not None:
                self._fail(ctx, cause, COMMITTING)
            transition_status(ctx, COMMITTING, COMMITTED)
        except BaseException:
            if ctx.status == COMMITTING:
                self._abort_cleanup(ctx, None, COMMITTING)
            raise
        cstamp = ctx.cstamp
        emit = self._emit
        if emit is not None:
            emit(pack_row(ctx.slot << 3 | COMMIT, ctx.tid, 0, 0, cstamp))
        self.store.finalize_commit(ctx)
        self.cert.post_commit(ctx)
        self.table.clear(ctx.slot)
        return cstamp

"""Access schemes, the engine facade, and the snapshot-isolation certifier.

The Engine ties the clock, transaction table, store and certifier together
behind the begin/read/write/commit/abort surface that workers and the replay
drivers use.  The underlying scheme (SI or RC) decides which version a read
returns and when a write conflicts; the configured certifier decides, at
pre-commit, whether committing is safe.

Three certifier settings exist:

    none    the bare scheme; commits are never refused
    ssn     the exclusion-window certifier (serial or latch-free parallel
            commit path, plus an observe mode that records violations
            without enforcing them)
    ssi     a two-flag dangerous-structure certifier for comparison: a
            transaction with both an inbound and an outbound read
            anti-dependency whose outbound partner committed first aborts

The SSI variant keeps one conflict flag pair per transaction instead of full
conflict lists, which admits false positives but must never miss a cycle.
Three rules together cover every dangerous structure: writers collect the
inbound flag from reader bitmaps and access stamps; readers push the inbound
flag into a live overwriter the moment they read under its uncommitted write;
and a reader that finds its version overwritten by an already-committed
pivot (both flags, partner first) aborts itself, because the pivot can no
longer be stopped.
"""

from __future__ import annotations

from enum import Enum

from .certifier import (
    ExclusionCertifier, ExclusionViolation, StalenessPolicy,
    overwriter_outcome,
)
from .kernel import (
    INFINITY, VALUE_MASK, AtomicCell, GlobalClock, Scheme, Status, TableMode,
    TransactionAborted, TransactionContext, TransactionTable, UsageError,
    is_tid, spin_until, transition_status, word_value,
)
from .store import Store, WriteConflict
from .trace import TraceLog


class CertifierMode(Enum):
    NONE = "none"
    SSN = "ssn"
    SSI = "ssi"


# Enum members are slow to look up as class attributes on CPython 3.11;
# the operation path compares against these module constants instead.
_INFLIGHT = Status.INFLIGHT
_SSN, _SSI = CertifierMode.SSN, CertifierMode.SSI


IN_RW = 1       # has an inbound read anti-dependency
DECIDED = 2     # the owner already ran its commit check


class SsiState:
    """Conflict flags for one transaction under the SSI certifier.

    The inbound flag may be set by conflicting peers, so it lives in an
    atomic cell together with a "decided" bit the owner raises when it takes
    its commit decision: a marker that finds the bit set knows its mark came
    too late and must handle the committed pivot itself.  out_rw and the
    earliest committed rw-partner stamp are owner-private and final before
    the decision.  Flags are only ever set, never cleared.
    """

    __slots__ = ("in_rw", "out_rw", "partner_commit")

    def __init__(self):
        self.in_rw = AtomicCell(0)
        self.out_rw = False
        self.partner_commit = None

    def fold_partner(self, cstamp: int) -> None:
        self.out_rw = True
        if self.partner_commit is None or cstamp < self.partner_commit:
            self.partner_commit = cstamp

    def committed_pivot(self, cstamp: int) -> bool:
        return (self.out_rw and self.partner_commit is not None
                and self.partner_commit < cstamp)


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
        self.scheme = scheme
        self.certifier = certifier
        self.serial_commit = serial_commit
        self.observe = observe
        self.clock = GlobalClock()
        self.table = TransactionTable()
        self.store = Store(db_size, self.table)
        self.trace = trace
        self.cert = ExclusionCertifier(
            self.clock, self.table,
            staleness=StalenessPolicy(read_mostly_threshold),
            observe=observe)

    # ---------------- lifecycle ----------------

    def begin(self, slot: int, *, read_only: bool = False,
              read_mostly: bool = False) -> TransactionContext:
        tid = self.table.allocate_tid(slot)
        start = self.clock.current()
        ctx = TransactionContext(
            tid, slot, self.scheme, read_only=read_only,
            read_mostly=read_mostly, begin_stamp=start, start_stamp=start)
        if self.scheme is Scheme.RC:
            ctx.begin_stamp = 0
        snapshot = self.cert.current_snapshot()
        if (read_only and self.certifier is CertifierMode.SSN
                and snapshot is not None):
            # Read-only queries on the safe snapshot skip certification
            # entirely; the snapshot stamp is both visibility cut and
            # commit stamp.
            ctx.snapshot_mode = True
            ctx.begin_stamp = snapshot.stamp
        if self.certifier is CertifierMode.SSI:
            ctx.ssi = SsiState()
        self.table.publish(slot, ctx)
        if self.trace:
            self.trace.begin(tid, slot)
        return ctx

    def abort(self, ctx: TransactionContext, reason: str = "user") -> None:
        """User-requested abort; conflict paths raise instead."""
        self._require_inflight(ctx)
        self._abort_cleanup(ctx, reason, Status.INFLIGHT)

    def _abort_cleanup(self, ctx, reason, from_status) -> None:
        """Abort ctx and undo its effects; reason None writes no trace line."""
        transition_status(ctx, from_status, Status.ABORTED)
        self.store.rollback(ctx)
        self._clear_reader_bits(ctx)
        if self.trace and reason is not None:
            self.trace.abort(ctx.tid, ctx.slot, reason)
        self.table.clear(ctx.slot)

    def _fail(self, ctx, reason, from_status=Status.INFLIGHT):
        self._abort_cleanup(ctx, reason, from_status)
        raise TransactionAborted(reason)

    def _clear_reader_bits(self, ctx) -> None:
        # Untracked reads deliberately never clear their bits.
        if ctx.reads:
            self.store.clear_readers(ctx.reads, ctx.slot)

    def _require_inflight(self, ctx) -> None:
        if ctx.status != _INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)

    # ---------------- forward processing ----------------

    def read(self, ctx: TransactionContext, key: int, *,
             require_data: bool = False):
        if ctx.status != _INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        store = self.store
        version = store.visible_version(ctx, store.records[key],
                                        require_data=require_data)
        own = version.creator_tid == ctx.tid
        if not own and not ctx.snapshot_mode:
            store.register_reader(version, ctx.slot)
        cstamp = 0 if own else store.creation_stamp(version)
        if self.trace:
            self.trace.read(ctx.tid, ctx.slot, key, version.creator_tid, cstamp)
        if own or ctx.snapshot_mode:
            return version.payload
        certifier = self.certifier
        if certifier is _SSN:
            try:
                self.cert.on_read(ctx, version, cstamp)
            except ExclusionViolation as violation:
                self._fail(ctx, violation.cause)
        elif certifier is _SSI:
            self._ssi_on_read(ctx, version)
        else:
            ctx.track_read(version)
        return version.payload

    def write(self, ctx: TransactionContext, key: int, payload=None) -> None:
        if ctx.status != _INFLIGHT:
            raise UsageError("transaction %d is not in flight" % ctx.tid)
        if ctx.snapshot_mode:
            raise UsageError("snapshot queries are read-only")
        if payload is None:
            payload = ctx.tid
        try:
            version = self.store.install_version(
                ctx, self.store.records[key], payload)
        except WriteConflict:
            self._fail(ctx, "cc_conflict")
        if self.trace:
            prev = version.prev
            self.trace.write(ctx.tid, ctx.slot, key, prev.creator_tid,
                             prev.cstamp & VALUE_MASK)
        certifier = self.certifier
        if certifier is _SSN:
            try:
                self.cert.on_write(ctx, version)
            except ExclusionViolation as violation:
                self._fail(ctx, violation.cause)
        elif certifier is _SSI:
            fresh = not ctx.has_written(version)
            ctx.track_write(version)
            if fresh:
                self._ssi_on_write(ctx, version)
        else:
            ctx.track_write(version)

    def scan(self, ctx: TransactionContext) -> list:
        """Full-table scan under the table-granularity read mode.

        Scan reads skip per-version tracking entirely: they leave reader
        bits and fold stamps like stale reads, and the scan settles its
        anti-dependencies through the table stamps plus the read-mostly
        handshake, so the transaction is flagged accordingly.
        """
        self._require_inflight(ctx)
        if self.certifier is not CertifierMode.SSN:
            raise UsageError("table scans need the ssn certifier")
        ctx.table_modes.add(TableMode.R)
        ctx.read_mostly = True
        payloads = []
        for record in self.store.records:
            version = self.store.visible_version(ctx, record)
            own = version.creator_tid == ctx.tid
            if not own and not ctx.snapshot_mode:
                self.store.register_reader(version, ctx.slot)
            cstamp = 0 if own else self.store.creation_stamp(version)
            if self.trace:
                self.trace.read(ctx.tid, ctx.slot, record.key,
                                version.creator_tid, cstamp)
            if not own and not ctx.snapshot_mode:
                try:
                    self.cert.on_read(ctx, version, cstamp, force_untracked=True)
                except ExclusionViolation as violation:
                    self._fail(ctx, violation.cause)
            payloads.append(version.payload)
        return payloads

    def declare_table_mode(self, ctx: TransactionContext, *modes) -> None:
        self._require_inflight(ctx)
        for mode in modes:
            ctx.table_modes.add(TableMode(mode))

    def take_safe_snapshot(self):
        if self.certifier is not CertifierMode.SSN:
            raise UsageError("safe snapshots need the ssn certifier")
        return self.cert.take_safe_snapshot()

    # ---------------- commit ----------------

    def commit(self, ctx: TransactionContext) -> int:
        """Run the configured pre-commit and post-commit; returns the stamp.

        Raises TransactionAborted when certification refuses the commit.
        """
        self._require_inflight(ctx)
        if (self.serial_commit and self.certifier is _SSN
                and not ctx.snapshot_mode):
            with self.cert.latch:
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
            if ctx.snapshot_mode:
                return self._commit_snapshot_query(ctx)
            if self.certifier is _SSN:
                return self._commit_certified(ctx, serial=self.serial_commit)
            if self.certifier is _SSI:
                return self._commit_ssi(ctx)
            return self._commit_plain(ctx)
        except BaseException:
            if ctx.status == Status.COMMITTING:
                self._abort_cleanup(ctx, None, Status.COMMITTING)
            raise

    def _commit_snapshot_query(self, ctx) -> int:
        stamp = ctx.begin_stamp
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        ctx.cstamp = stamp
        transition_status(ctx, Status.COMMITTING, Status.COMMITTED)
        if self.trace:
            self.trace.commit(ctx.tid, ctx.slot, stamp)
        self.table.clear(ctx.slot)
        return stamp

    def _commit_certified(self, ctx, *, serial: bool) -> int:
        cstamp = self.cert.acquire_commit_stamp(ctx)
        if serial:
            cause = self.cert.certify_serial(ctx, self.store)
        else:
            cause = self.cert.certify_parallel(ctx, self.store)
        if cause is not None:
            if not self.observe:
                self._fail(ctx, cause, Status.COMMITTING)
            ctx.observed_violation = True
        self._finish_commit(ctx, cstamp)
        self.cert.table_commit_actions(ctx, self.store)
        return cstamp

    def _commit_ssi(self, ctx) -> int:
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        cstamp = self.clock.next()
        ctx.cstamp = cstamp
        self._ssi_pre_commit(ctx, cstamp)
        ctx.fold_sstamp(cstamp)
        self._finish_commit(ctx, cstamp)
        return cstamp

    def _commit_plain(self, ctx) -> int:
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        cstamp = self.clock.next()
        ctx.cstamp = cstamp
        ctx.fold_sstamp(cstamp)
        self._finish_commit(ctx, cstamp)
        return cstamp

    def _finish_commit(self, ctx, cstamp: int) -> None:
        transition_status(ctx, Status.COMMITTING, Status.COMMITTED)
        if self.trace:
            self.trace.commit(ctx.tid, ctx.slot, cstamp)
        self.store.finalize_commit(ctx)
        if ctx.read_mostly:
            self.table.record_commit_stamp(ctx.slot, cstamp)
        self._clear_reader_bits(ctx)
        self.table.clear(ctx.slot)

    # ---------------- the ssi certifier ----------------

    def _ssi_on_read(self, ctx, version) -> None:
        while True:
            word = version.sstamp
            if word == INFINITY:
                ctx.track_read(version)
                return
            if not is_tid(word):
                self._ssi_committed_overwrite(ctx, version)
                return
            peer = self.table.get(word_value(word))
            if peer is None:
                # Overwriter concluded; its sstamp settles on re-read.
                spin_until(lambda: version.sstamp != word,
                           "overwriter %d to conclude" % word_value(word))
                continue
            self._ssi_mark_inbound(ctx, peer)
            ctx.ssi.out_rw = True
            ctx.track_read(version)
            return

    def _ssi_mark_inbound(self, ctx, peer) -> None:
        """Record that peer has an inbound anti-dependency (from ctx).

        If peer already took its commit decision the mark arrived too late;
        when the flags peer froze make it a committed pivot, the marker is
        the only transaction left that can break the structure, so it aborts
        (conservatively even if peer itself ended up aborting).
        """
        if peer.ssi is None or peer is ctx:
            return
        seen = peer.ssi.in_rw.fetch_or(IN_RW)
        if seen & DECIDED and peer.ssi.committed_pivot(peer.cstamp):
            self._fail(ctx, "ssi_dangerous", ctx.status)

    def _ssi_committed_overwrite(self, ctx, version) -> None:
        mark = version.ssi_mark
        assert mark is not None, "ssi engine found an unmarked overwrite"
        overwriter_cstamp, overwriter_out, overwriter_partner = mark
        ctx.ssi.fold_partner(overwriter_cstamp)
        if (overwriter_out and overwriter_partner is not None
                and overwriter_partner < overwriter_cstamp):
            # The overwriter is a committed pivot; this read closes the
            # structure and the reader is the only one left to stop.
            self._fail(ctx, "ssi_dangerous", ctx.status)

    def _ssi_on_write(self, ctx, version) -> None:
        prev = version.prev
        foreign_bits = prev.readers & ~(1 << ctx.slot)
        if foreign_bits or prev.pstamp > prev.committed_stamp():
            ctx.ssi.in_rw.fetch_or(IN_RW)

    def _ssi_pre_commit(self, ctx, cstamp: int) -> None:
        for version in ctx.reads:
            kind, value = overwriter_outcome(self.table, version, ctx)
            if kind in ("own", "unwritten"):
                continue
            if kind == "final":
                self._ssi_committed_overwrite(ctx, version)
            elif kind == "committed":
                peer = value
                ctx.ssi.fold_partner(peer.cstamp)
                if (peer.ssi is not None
                        and peer.ssi.committed_pivot(peer.cstamp)):
                    self._fail(ctx, "ssi_dangerous", Status.COMMITTING)
            else:  # pending
                self._ssi_mark_inbound(ctx, value)
                ctx.ssi.out_rw = True
        decision = ctx.ssi.in_rw.fetch_or(DECIDED)
        if (decision & IN_RW and ctx.ssi.committed_pivot(cstamp)
                and not ctx.read_only):
            self._fail(ctx, "ssi_dangerous", Status.COMMITTING)

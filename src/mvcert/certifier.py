"""Commit-time serializability certification over a multi-version store.

The certifier keeps two watermarks per transaction: pstamp, the largest
commit stamp among committed predecessors (reads of their versions, or their
reads of versions this transaction overwrites), and sstamp, the smallest
successor watermark among committed overwriters of versions this transaction
read.  A transaction whose sstamp is not strictly above its pstamp at
pre-commit would leave a window in which a predecessor could also be a
successor, i.e. a potential dependency cycle, so it aborts:

    violation  <=>  sstamp <= pstamp

Two commit paths compute the same verdict.  The serial path assumes a global
latch around the whole commit and reads version stamps directly.  The
parallel path is latch-free: versions may carry an overwriter's transaction
id instead of a final stamp, which is resolved through the transaction table,
spinning only on peers that already hold a smaller commit stamp and are still
mid-commit.  Entering the COMMITTING status strictly before drawing the
commit stamp is what makes those spins sound: any peer observed in-flight is
guaranteed to draw a larger stamp.

Also here: active safe snapshots (a published stamp that acts as a reader of
every record, folded into overwriters' pstamp), the read-only commit-stamp
rule (empty write set under SI commits at its snapshot time), the stale-read
filter for read-mostly transactions plus the sstamp handshake that lets
updaters push their stamp into untracked readers, and table-granularity stamp
actions for scan/update modes.
"""

from __future__ import annotations

import threading

from .kernel import (
    INFINITY, LOCK_BIT, Scheme, Status, TableMode, TransactionContext,
    TransactionTable, GlobalClock, is_locked, is_tid, spin_until,
    transition_status, word_value,
)
from .store import Store, VersionMeta


class SafeSnapshot:
    __slots__ = ("stamp",)

    def __init__(self, stamp: int):
        self.stamp = stamp


class StalenessPolicy:
    """Reads of versions older than threshold ticks go untracked.

    threshold 0 disables the optimization entirely.
    """

    __slots__ = ("threshold",)

    def __init__(self, threshold: int = 0):
        if threshold < 0:
            raise ValueError("staleness threshold must be >= 0")
        self.threshold = threshold

    def untracked(self, clock: GlobalClock, cstamp: int) -> bool:
        if self.threshold == 0:
            return False
        return clock.current() - cstamp > self.threshold


class Verdict:
    """Outcome of the pre-commit certification step."""

    __slots__ = ("violation", "cause")

    def __init__(self, violation: bool, cause: str | None):
        self.violation = violation
        self.cause = cause


def overwriter_outcome(table: TransactionTable, version: VersionMeta,
                       ctx: TransactionContext):
    """Resolve what happened to the overwriter of a version ctx read.

    Returns one of:
        ("own", None)             ctx itself overwrote the version
        ("unwritten", None)       no overwrite yet
        ("final", raw_word)       overwrite committed and fully stamped
        ("committed", peer_ctx)   overwrite committed, stamps still pending
        ("pending", peer_ctx)     overwriter in flight or holding a larger stamp

    Mandatory discipline: the sstamp is snapshotted into a local before any
    branching, because the owner may finalize it at any moment.  A tid whose
    context is gone means the owner concluded, and an aborted owner is
    undoing its claim; either way the field is about to hold (or already
    holds) other content, which we wait for and re-read.
    """
    my_cstamp = ctx.cstamp.load()
    while True:
        word = version.sstamp
        if word == INFINITY:
            return "unwritten", None
        if not is_tid(word):
            return "final", word
        if word_value(word) == ctx.tid:
            return "own", None
        peer = table.get(word_value(word))
        if peer is not None:
            if peer.status.load() == Status.INFLIGHT:
                return "pending", peer
            # A peer that aborted before drawing a stamp never fills cstamp in.
            spin_until(lambda: peer.cstamp.load() != 0
                       or peer.status.load() == Status.ABORTED,
                       "peer %d commit stamp" % peer.tid)
            if peer.cstamp.load() != 0:
                if my_cstamp and peer.cstamp.load() >= my_cstamp:
                    return "pending", peer
                spin_until(lambda: peer.status.load() != Status.COMMITTING,
                           "peer %d pre-commit" % peer.tid)
                if peer.status.load() == Status.COMMITTED:
                    return "committed", peer
        spin_until(lambda: version.sstamp != word,
                   "overwriter %d to conclude" % word_value(word))


class ExclusionCertifier:
    """The pstamp/sstamp bookkeeping and both commit paths."""

    def __init__(self, clock: GlobalClock, table: TransactionTable, *,
                 staleness: StalenessPolicy | None = None,
                 observe: bool = False):
        self.clock = clock
        self.table = table
        self.staleness = staleness or StalenessPolicy(0)
        self.observe = observe
        self.latch = threading.Lock()
        self._snapshot = None

    # ---------------- safe snapshots ----------------

    def take_safe_snapshot(self) -> SafeSnapshot:
        snapshot = SafeSnapshot(self.clock.next())
        self._snapshot = snapshot
        return snapshot

    def current_snapshot(self) -> SafeSnapshot | None:
        return self._snapshot

    def _snapshot_pstamp(self, ctx: TransactionContext) -> int:
        """Stamp the active snapshot contributes to ctx's pstamp, or 0.

        The snapshot behaves as a transaction that read every record at its
        stamp, so an updater that was in flight when the snapshot was taken
        and overwrites any version created before it inherits the snapshot
        stamp as a committed predecessor.
        """
        snapshot = self._snapshot
        if snapshot is None:
            return 0
        if ctx.start_stamp >= snapshot.stamp:
            return 0
        for version in ctx.writes:
            if version.prev.committed_stamp() < snapshot.stamp:
                return snapshot.stamp
        return 0

    # ---------------- forward-processing hooks ----------------

    def on_read(self, ctx: TransactionContext, version: VersionMeta,
                cstamp: int, *, force_untracked: bool = False) -> None:
        """Dependency bookkeeping for one committed, visible version.

        The read folds the creator's stamp into pstamp.  If the version is
        already overwritten by a committed transaction the overwriter's
        successor watermark folds into sstamp; otherwise the version joins
        the read set for re-checking at pre-commit, unless it is stale under
        the read-mostly policy (stale reads stay out of the read set but
        still leave the reader bit and the pstamp fold behind).
        """
        ctx.pstamp = max(ctx.pstamp, cstamp)
        word = version.sstamp
        if word == INFINITY or is_tid(word):
            # No committed overwrite yet (an in-flight overwriter counts as
            # none; pre-commit resolves it through the transaction table).
            untracked = force_untracked or (
                ctx.read_mostly and self.staleness.untracked(self.clock, cstamp))
            if untracked:
                ctx.untracked_reads += 1
            else:
                ctx.track_read(version)
        else:
            ctx.sstamp.fold_min(word_value(word))
        self._early_check(ctx)

    def on_write(self, ctx: TransactionContext, version: VersionMeta) -> None:
        """Bookkeeping after version was installed by ctx.

        The overwritten predecessor's access stamp covers every reader that
        committed before the overwrite, hence the pstamp fold.  The new
        version joins the write set; a prior read of the predecessor is
        logically dropped from the read set by skipping entries whose sstamp
        carries the transaction's own tid.
        """
        if ctx.has_written(version):
            return
        ctx.pstamp = max(ctx.pstamp, version.prev.pstamp)
        ctx.track_write(version)
        self._early_check(ctx)

    def _early_check(self, ctx: TransactionContext) -> None:
        # Advisory only: stamps may still move, the binding check happens at
        # pre-commit.  In observe mode nothing aborts here either.
        pi = word_value(ctx.sstamp.load())
        if pi <= ctx.pstamp:
            if self.observe:
                ctx.observed_violation = True
            else:
                raise ExclusionViolation("ssn_exclusion")

    # ---------------- pre-commit ----------------

    def acquire_commit_stamp(self, ctx: TransactionContext) -> int:
        """COMMITTING transition, then the stamp draw; order is mandatory.

        A transaction with an empty write set under SI reuses its snapshot
        time, which keeps access stamps low for the updaters it precedes.
        The reuse is only safe while none of its reads carries an overwrite
        claim: a concurrent overwriter that already installed might have
        swept past this transaction while it was still in flight, assuming
        any in-flight peer would draw a later stamp.  With a claim present,
        a fresh stamp turns the conflict into an ordinary back edge that
        pre-commit certifies.
        """
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        cstamp = 0
        if (not ctx.writes and ctx.scheme is Scheme.SI
                and ctx.begin_stamp > 0 and ctx.untracked_reads == 0
                and all(v.sstamp == INFINITY for v in ctx.reads)):
            cstamp = ctx.begin_stamp
        if cstamp == 0:
            cstamp = self.clock.next()
        ctx.cstamp.store(cstamp)
        return cstamp

    def certify_serial(self, ctx: TransactionContext, store: Store) -> Verdict:
        """Watermark finalization and the window test, latched variant.

        The caller must hold self.latch from before this call until the
        post-commit propagation (or rollback) has finished.
        """
        ctx.sstamp.fold_min(ctx.cstamp.load())
        for version in ctx.reads:
            word = version.sstamp
            if word == INFINITY or is_tid(word):
                # Own overwrites are skipped; a foreign tid here belongs to a
                # transaction that cannot be mid-commit while we hold the
                # latch, so it counts as no committed overwrite.
                continue
            ctx.sstamp.fold_min(word_value(word))
        pstamp = ctx.pstamp
        if self.staleness.threshold > 0:
            # Untracked readers leave no access stamps behind, so even the
            # latched path must consult the bitmaps when the read-mostly
            # optimization is active.
            pstamp, handshake_failed = self._reader_sweep(ctx, pstamp)
        else:
            handshake_failed = False
            for version in ctx.writes:
                pstamp = max(pstamp, version.prev.pstamp)
        ctx.pstamp = pstamp
        if handshake_failed:
            return Verdict(True, "ssn_exclusion")
        return self._window_test(ctx, store)

    def certify_parallel(self, ctx: TransactionContext, store: Store) -> Verdict:
        """Latch-free watermark finalization and window test."""
        ctx.sstamp.fold_min(ctx.cstamp.load())
        for version in ctx.reads:
            kind, value = overwriter_outcome(self.table, version, ctx)
            if kind == "final":
                ctx.sstamp.fold_min(word_value(value))
            elif kind == "committed":
                ctx.sstamp.fold_min(word_value(value.sstamp.load()))
            # own / unwritten / pending contribute nothing

        pstamp, handshake_failed = self._reader_sweep(ctx, ctx.pstamp)
        ctx.pstamp = pstamp
        if handshake_failed:
            return Verdict(True, "ssn_exclusion")
        return self._window_test(ctx, store, seal=ctx.read_mostly)

    def _reader_sweep(self, ctx: TransactionContext, pstamp: int):
        """Fold committed readers of overwritten versions into pstamp.

        Walks the readers bitmap of each overwritten predecessor.  Readers
        holding an earlier commit stamp are waited out and folded; the
        per-slot last commit stamp covers untracked readers that already
        left; in-flight read-mostly readers get this updater's successor
        watermark pushed into their sstamp (the handshake), unless they
        sealed first, which aborts the updater.  Re-reading the predecessor's
        access stamp at the end catches any reader the bitmap walk missed.
        The caller has already folded every read into that watermark.
        """
        my_cstamp = ctx.cstamp.load()
        handshake_failed = False
        for version in ctx.writes:
            prev = version.prev
            bits = prev.readers
            while bits:
                slot = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                if slot == ctx.slot:
                    continue
                last = self.table.last_cstamp(slot)
                if 0 < last < my_cstamp:
                    pstamp = max(pstamp, last)
                reader = self.table.slots[slot].current
                if reader is None or reader is ctx:
                    continue
                status = reader.status.load()
                settled = False
                if status != Status.INFLIGHT:
                    spin_until(lambda: reader.cstamp.load() != 0
                               or reader.status.load() == Status.ABORTED,
                               "reader %d commit stamp" % reader.tid)
                    reader_cstamp = reader.cstamp.load()
                    if reader_cstamp == 0:
                        continue  # aborted before pre-commit; nothing to fold
                    if reader_cstamp < my_cstamp:
                        spin_until(lambda: reader.status.load() != Status.COMMITTING,
                                   "reader %d pre-commit" % reader.tid)
                        settled = True
                        if reader.status.load() == Status.COMMITTED:
                            pstamp = max(pstamp, reader_cstamp)
                if reader.read_mostly and not settled:
                    if not self._handshake(reader,
                                           word_value(ctx.sstamp.load())):
                        handshake_failed = True
            pstamp = max(pstamp, prev.pstamp)
        return pstamp, handshake_failed

    @staticmethod
    def _handshake(reader: TransactionContext, sstamp: int) -> bool:
        """Push an updater's successor watermark into a reader's sstamp.

        The reader is read-mostly and read a version the updater overwrites,
        so the updater is its successor and the reader's watermark must fall
        to the updater's, not merely to its commit stamp: the updater's own
        successors are the reader's transitive successors too.  Success means
        the reader will test its window with the lowered value.  A sealed
        sstamp (lock bit set) can no longer be influenced; the updater must
        abort instead.
        """
        while True:
            word = reader.sstamp.load()
            if word_value(word) <= sstamp:
                return True
            if is_locked(word):
                return False
            if reader.sstamp.compare_and_swap(word, sstamp):
                return True

    def _window_test(self, ctx: TransactionContext, store: Store, *,
                     seal: bool = False) -> Verdict:
        pstamp = ctx.pstamp
        for mode in ctx.table_modes:
            if mode in (TableMode.IW, TableMode.W):
                pstamp = max(pstamp, store.table_stamps.pstamp.load())
            if mode in (TableMode.R, TableMode.IR):
                word = store.table_stamps.sstamp.load()
                if word != INFINITY and not is_tid(word):
                    ctx.sstamp.fold_min(word_value(word))
        ctx.pstamp = pstamp
        snap = self._snapshot_pstamp(ctx)
        if seal:
            # From here on no updater may lower our sstamp; one that tries
            # will fail its compare-and-swap and abort itself.
            ctx.sstamp.fetch_or(LOCK_BIT)
        pi = word_value(ctx.sstamp.load())
        # A watermark equal to the own commit stamp means no back-edge
        # successor exists, so no predecessor can fall inside the window.
        # The distinction only matters for empty-write-set commits, whose
        # reused snapshot stamps may tie with a predecessor's.
        if pi < ctx.cstamp.load() and pi <= max(pstamp, snap):
            cause = "safe_snapshot" if pi > pstamp else "ssn_exclusion"
            return Verdict(True, cause)
        return Verdict(False, None)

    def table_commit_actions(self, ctx: TransactionContext, store: Store) -> None:
        """Post-commit table-stamp updates for the declared modes."""
        if ctx.table_modes & {TableMode.R, TableMode.IR}:
            store.table_stamps.pstamp.fold_max(ctx.cstamp.load())


class ExclusionViolation(Exception):
    """Early (advisory) window violation detected during forward processing."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


def verify_exclusion(pstamp: int, sstamp_word: int) -> bool:
    """True when the exclusion window is violated (sstamp <= pstamp).

    An infinite sstamp means no back-edge successor exists yet and always
    passes; the comparison is inclusive because a predecessor committing
    exactly at the successor watermark already closes the window.
    """
    return word_value(sstamp_word) <= pstamp

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
    INFINITY, LOCK_BIT, TID_TAG, VALUE_MASK, Scheme, Status, TableMode,
    TransactionContext, TransactionTable, GlobalClock, is_tid, spin_until,
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
    my_cstamp = ctx.cstamp
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
            if peer.status == Status.INFLIGHT:
                return "pending", peer
            # A peer that aborted before drawing a stamp never fills cstamp in.
            spin_until(lambda: peer.cstamp != 0
                       or peer.status == Status.ABORTED,
                       "peer %d commit stamp" % peer.tid)
            if peer.cstamp != 0:
                if my_cstamp and peer.cstamp >= my_cstamp:
                    return "pending", peer
                spin_until(lambda: peer.status != Status.COMMITTING,
                           "peer %d pre-commit" % peer.tid)
                if peer.status == Status.COMMITTED:
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
        the read-mostly policy (a read-mostly transaction's read of a version
        more than threshold ticks older than the clock; stale reads stay out
        of the read set but still leave the reader bit and the pstamp fold
        behind).  The window test after the folds is advisory: stamps may
        still move, the binding check happens at pre-commit.
        """
        if cstamp > ctx.pstamp:
            ctx.pstamp = cstamp
        word = version.sstamp
        if word == INFINITY or word & TID_TAG:
            # No committed overwrite yet (an in-flight overwriter counts as
            # none; pre-commit resolves it through the transaction table).
            threshold = self.staleness.threshold
            if force_untracked or (
                    ctx.read_mostly and threshold
                    and self.clock.current() - cstamp > threshold):
                ctx.untracked_reads += 1
            else:
                ctx.track_read(version)
        else:
            ctx.fold_sstamp(word & VALUE_MASK)
        if ctx.sstamp & VALUE_MASK <= ctx.pstamp:
            self._violation(ctx)

    def on_write(self, ctx: TransactionContext, version: VersionMeta) -> None:
        """Bookkeeping after version was installed by ctx.

        The overwritten predecessor's access stamp covers every reader that
        committed before the overwrite, hence the pstamp fold.  The new
        version joins the write set; a prior read of the predecessor is
        logically dropped from the read set by skipping entries whose sstamp
        carries the transaction's own tid.
        """
        if version in ctx.writes:
            return
        ctx.pstamp = max(ctx.pstamp, version.prev.pstamp)
        ctx.writes[version] = None
        if ctx.sstamp & VALUE_MASK <= ctx.pstamp:
            self._violation(ctx)

    def _violation(self, ctx: TransactionContext) -> None:
        """Advisory window violation: noted in observe mode, else aborts."""
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
        ctx.cstamp = cstamp
        return cstamp

    def certify_serial(self, ctx: TransactionContext,
                       store: Store) -> str | None:
        """Watermark finalization and the window test, latched variant.

        Returns the abort cause, or None when the commit may proceed.  The
        caller must hold self.latch from before this call until the
        post-commit propagation (or rollback) has finished.
        """
        ctx.fold_sstamp(ctx.cstamp)
        for version in ctx.reads:
            word = version.sstamp
            if word == INFINITY or is_tid(word):
                # Own overwrites are skipped; a foreign tid here belongs to a
                # transaction that cannot be mid-commit while we hold the
                # latch, so it counts as no committed overwrite.
                continue
            ctx.fold_sstamp(word_value(word))
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
            return "ssn_exclusion"
        return self._window_test(ctx, store)

    def certify_parallel(self, ctx: TransactionContext,
                         store: Store) -> str | None:
        """Latch-free watermark finalization and window test.

        Returns the abort cause, or None when the commit may proceed.
        """
        ctx.fold_sstamp(ctx.cstamp)
        for version in ctx.reads:
            if version.sstamp == INFINITY:
                continue  # not overwritten: nothing to resolve
            kind, value = overwriter_outcome(self.table, version, ctx)
            if kind == "final":
                ctx.fold_sstamp(word_value(value))
            elif kind == "committed":
                ctx.fold_sstamp(word_value(value.sstamp))
            # own / unwritten / pending contribute nothing

        pstamp, handshake_failed = self._reader_sweep(ctx, ctx.pstamp)
        ctx.pstamp = pstamp
        if handshake_failed:
            return "ssn_exclusion"
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
        my_cstamp = ctx.cstamp
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
                status = reader.status
                settled = False
                if status != Status.INFLIGHT:
                    spin_until(lambda: reader.cstamp != 0
                               or reader.status == Status.ABORTED,
                               "reader %d commit stamp" % reader.tid)
                    reader_cstamp = reader.cstamp
                    if reader_cstamp == 0:
                        continue  # aborted before pre-commit; nothing to fold
                    if reader_cstamp < my_cstamp:
                        spin_until(lambda: reader.status != Status.COMMITTING,
                                   "reader %d pre-commit" % reader.tid)
                        settled = True
                        if reader.status == Status.COMMITTED:
                            pstamp = max(pstamp, reader_cstamp)
                if reader.read_mostly and not settled:
                    if not self._handshake(reader, ctx.sstamp & VALUE_MASK):
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
            word = reader.sstamp
            if word & VALUE_MASK <= sstamp:
                return True
            if word & LOCK_BIT:
                return False
            if reader.swap_sstamp(word, sstamp):
                return True

    def _window_test(self, ctx: TransactionContext, store: Store, *,
                     seal: bool = False) -> str | None:
        pstamp = ctx.pstamp
        for mode in ctx.table_modes:
            if mode in (TableMode.IW, TableMode.W):
                pstamp = max(pstamp, store.table_stamps.pstamp.load())
            if mode in (TableMode.R, TableMode.IR):
                word = store.table_stamps.sstamp.load()
                if word != INFINITY and not is_tid(word):
                    ctx.fold_sstamp(word_value(word))
        ctx.pstamp = pstamp
        snap = self._snapshot_pstamp(ctx)
        if seal:
            # From here on no updater may lower our sstamp; one that tries
            # will fail its compare-and-swap and abort itself.
            ctx.seal_sstamp()
        pi = ctx.sstamp & VALUE_MASK
        # A watermark equal to the own commit stamp means no back-edge
        # successor exists, so no predecessor can fall inside the window.
        # The distinction only matters for empty-write-set commits, whose
        # reused snapshot stamps may tie with a predecessor's.
        if pi < ctx.cstamp and pi <= max(pstamp, snap):
            return "safe_snapshot" if pi > pstamp else "ssn_exclusion"
        return None

    def table_commit_actions(self, ctx: TransactionContext, store: Store) -> None:
        """Post-commit table-stamp updates for the declared modes."""
        if ctx.table_modes & {TableMode.R, TableMode.IR}:
            store.table_stamps.pstamp.fold_max(ctx.cstamp)


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

"""Certifiers: serializability checks layered over the access scheme.

The Engine runs the scheme (SI or RC visibility, write-write conflicts,
version installs and the write set) and reports each step to its certifier
through five hooks, without asking which certifier it has:

    begin(ctx)                     a transaction starts
    on_read(ctx, version, cstamp)  ctx read a committed foreign version
    on_write(ctx, version)         ctx installed a fresh version
    pre_commit(ctx)                the COMMITTING transition, the commit
                                   stamp draw and the verdict
    post_commit(ctx)               the commit is final and stamped

on_read, on_write and pre_commit return an abort cause, or None to go on.
There are three certifiers:

    Certifier           the bare scheme: no reader bits, no read set, no
                        verdict; commits are never refused
    ExclusionCertifier  SSN, the exclusion-window test
    SsiCertifier        a two-flag dangerous-structure test, for comparison

SSN keeps two watermarks per transaction: pstamp, the largest commit stamp
among committed predecessors (reads of their versions, or their reads of
versions this transaction overwrites), and sstamp, the smallest successor
watermark among committed overwriters of versions this transaction read.  A
transaction whose sstamp is not strictly above its pstamp at pre-commit
would leave a window in which a predecessor could also be a successor, i.e.
a potential dependency cycle, so it aborts:

    violation  <=>  sstamp <= pstamp

No certifier takes a lock around a commit; whether commits may overlap is
the Engine's choice.  An overwrite word in a read set may carry an
overwriter's transaction id instead of a final stamp.  overwriter_outcome
is the one place that resolves it, through the transaction table with
kernel.settle, waiting only on peers that already hold a smaller commit
stamp and are still mid-commit.  When the Engine runs one commit at a time
no overwriter is mid-commit, and the same code gives the reference verdict.
After the read set, SSN's pre-commit runs the reader sweep and handshake,
the table and snapshot pstamps, the seal of a read-mostly transaction's
sstamp, and the window test.

SSN also owns the active safe snapshot (a published stamp that acts as a
reader of every record, folded into overwriters' pstamp), the read-only
commit-stamp rule (empty write set under SI commits at its snapshot time),
the untracked-read filter for read-mostly transactions (stale reads, and
every read after a table scan) plus the sstamp handshake that lets updaters
push their watermark into untracked readers, and the table pstamp that table
scans raise and table updates fold in.

SSI keeps one conflict flag pair per transaction instead of full conflict
lists, which admits false positives but must never miss a cycle.  Three
rules together cover every dangerous structure: writers collect the inbound
flag from reader bitmaps and access stamps; readers push the inbound flag
into a live overwriter the moment they read under its uncommitted write; and
a reader that finds its version overwritten by an already-committed pivot
(both flags, partner first) aborts itself, because the pivot can no longer
be stopped.  Beyond the flags, SSI keeps only the set of versions that
committed pivots overwrote.
"""

from __future__ import annotations

from .kernel import (
    COMMITTING, INFINITY, INFLIGHT, LOCK_BIT, PENDING, TID_TAG, VALUE_MASK,
    AtomicCell, GlobalClock, Scheme, TableMode, TransactionContext,
    TransactionTable, is_tid, settle, spin_until, transition_status,
    word_value,
)
from .store import Store, VersionMeta


def overwriter_outcome(table: TransactionTable, version: VersionMeta,
                       ctx: TransactionContext):
    """Resolve what happened to the overwriter of a version ctx read.

    Returns one of:
        ("none", None)            no foreign overwrite yet, or ctx's own
        ("final", raw_word)       overwrite committed and fully stamped
        ("committed", peer_ctx)   overwrite committed, stamps still pending
        ("pending", peer_ctx)     overwriter in flight or holding a larger stamp

    Mandatory discipline: the sstamp is snapshotted into a local before any
    branching, because the owner may finalize it at any moment.  A tid whose
    context is gone means the owner concluded, and an aborted owner is
    undoing its claim; either way the field is about to hold (or already
    holds) other content, which we wait for and re-read.  settle judges the
    overwriter against ctx's commit stamp; a caller that has drawn none yet
    (ctx.cstamp == 0) gets "pending" for every live overwriter, committed
    or not, and never "committed".
    """
    while True:
        word = version.sstamp
        if word == INFINITY:
            return "none", None
        if not is_tid(word):
            return "final", word
        if word_value(word) == ctx.tid:
            return "none", None
        peer = table.get(word_value(word))
        if peer is not None:
            stamp = settle(peer, ctx.cstamp)
            if stamp == PENDING:
                return "pending", peer
            if stamp:
                return "committed", peer
        spin_until(lambda: version.sstamp != word,
                   "overwriter %d to conclude" % word_value(word))


class Certifier:
    """The bare scheme: every hook is a no-op and no commit is refused.

    It registers no reader bit and keeps no read set, so commits raise no
    access stamps; pre-commit only draws the commit stamp.
    """

    def __init__(self, clock: GlobalClock, table: TransactionTable,
                 store: Store):
        self.clock = clock
        self.table = table
        self.store = store

    def begin(self, ctx: TransactionContext) -> None:
        pass

    def on_read(self, ctx: TransactionContext, version: VersionMeta,
                cstamp: int) -> str | None:
        return None

    def on_write(self, ctx: TransactionContext,
                 version: VersionMeta) -> str | None:
        return None

    def pre_commit(self, ctx: TransactionContext) -> str | None:
        transition_status(ctx, INFLIGHT, COMMITTING)
        cstamp = self.clock.next()
        ctx.cstamp = cstamp
        ctx.fold_sstamp(cstamp)
        return None

    def post_commit(self, ctx: TransactionContext) -> None:
        pass


class ExclusionCertifier(Certifier):
    """SSN: the pstamp/sstamp bookkeeping and the commit check.

    observe notes violations in ctx.observed_violation instead of aborting;
    a read-mostly transaction's reads go untracked after a scan, or when the
    version is more than threshold ticks older than the clock (0: never).
    """

    def __init__(self, clock: GlobalClock, table: TransactionTable,
                 store: Store, *, observe: bool = False, threshold: int = 0):
        super().__init__(clock, table, store)
        self.observe = observe
        self.threshold = threshold
        self._snapshot = 0  # stamp of the active safe snapshot, 0 for none

    # ---------------- safe snapshots ----------------

    def take_safe_snapshot(self) -> int:
        self._snapshot = self.clock.next()
        return self._snapshot

    def begin(self, ctx: TransactionContext) -> None:
        if ctx.read_only and self._snapshot:
            # Read-only queries on the safe snapshot skip certification
            # entirely; the snapshot stamp is both visibility cut and
            # commit stamp.
            ctx.snapshot_mode = True
            ctx.begin_stamp = self._snapshot

    def _snapshot_pstamp(self, ctx: TransactionContext) -> int:
        """Stamp the active snapshot contributes to ctx's pstamp, or 0.

        The snapshot behaves as a transaction that read every record at its
        stamp, so an updater that was in flight when the snapshot was taken
        and overwrites any version created before it inherits the snapshot
        stamp as a committed predecessor.
        """
        snapshot = self._snapshot
        if not snapshot or ctx.start_stamp >= snapshot:
            return 0
        for version in ctx.writes:
            if version.prev.committed_stamp() < snapshot:
                return snapshot
        return 0

    # ---------------- forward-processing hooks ----------------

    def on_read(self, ctx: TransactionContext, version: VersionMeta,
                cstamp: int) -> str | None:
        """Dependency bookkeeping for one committed, visible version.

        The reader's bit goes up first, before the overwrite claim is
        loaded, so an overwriter either finds the bit or leaves a claim this
        read sees.  The read folds the creator's stamp into pstamp.  If the
        version is already overwritten by a committed transaction the
        overwriter's successor watermark folds into sstamp; otherwise the
        version joins the read set for re-checking at pre-commit, unless a
        read-mostly transaction makes the read untracked: either the version
        is more than threshold ticks older than the clock, or the
        transaction is in table mode R (it scanned).  Untracked reads stay
        out of the read set but still leave the reader bit and the pstamp
        fold behind.  The window test after the folds is advisory: stamps
        may still move, the binding check happens at pre-commit.
        """
        if ctx.snapshot_mode:
            return None
        self.store.register_reader(version, ctx.slot)
        if cstamp > ctx.pstamp:
            ctx.pstamp = cstamp
        word = version.sstamp
        if word == INFINITY or word & TID_TAG:
            # No committed overwrite yet (an in-flight overwriter counts as
            # none; pre-commit resolves it through the transaction table).
            threshold = self.threshold
            if ctx.read_mostly and (
                    (threshold and self.clock.current() - cstamp > threshold)
                    or TableMode.R in ctx.table_modes):
                ctx.untracked_reads += 1
            else:
                ctx.reads[version] = None
        else:
            ctx.fold_sstamp(word & VALUE_MASK)
        if ctx.sstamp & VALUE_MASK <= ctx.pstamp:
            return self._violation(ctx)
        return None

    def on_write(self, ctx: TransactionContext,
                 version: VersionMeta) -> str | None:
        """Bookkeeping after ctx installed version.

        The overwritten predecessor's access stamp covers every reader that
        committed before the overwrite, hence the pstamp fold.  A prior read
        of the predecessor stays in the read set; pre-commit and the
        post-commit stamping skip entries whose sstamp carries the
        transaction's own tid.
        """
        pstamp = version.prev.pstamp
        if pstamp > ctx.pstamp:
            ctx.pstamp = pstamp
        if ctx.sstamp & VALUE_MASK <= ctx.pstamp:
            return self._violation(ctx)
        return None

    def _violation(self, ctx: TransactionContext) -> str | None:
        """Advisory window violation: noted in observe mode, else a cause."""
        if self.observe:
            ctx.observed_violation = True
            return None
        return "ssn_exclusion"

    # ---------------- pre-commit ----------------

    def pre_commit(self, ctx: TransactionContext) -> str | None:
        if ctx.snapshot_mode:
            transition_status(ctx, INFLIGHT, COMMITTING)
            ctx.cstamp = ctx.begin_stamp
            return None
        self.acquire_commit_stamp(ctx)
        cause = self.certify_parallel(ctx)
        if cause is not None and self.observe:
            ctx.observed_violation = True
            return None
        return cause

    def acquire_commit_stamp(self, ctx: TransactionContext) -> None:
        """COMMITTING transition, then the stamp draw; order is mandatory.
        The stamp then caps sstamp: no successor watermark exceeds it.

        A transaction with an empty write set under SI reuses its snapshot
        time, which keeps access stamps low for the updaters it precedes.
        The reuse is only safe while none of its reads carries an overwrite
        claim: a concurrent overwriter that already installed might have
        swept past this transaction while it was still in flight, assuming
        any in-flight peer would draw a later stamp.  With a claim present,
        a fresh stamp turns the conflict into an ordinary back edge that
        pre-commit certifies.
        """
        transition_status(ctx, INFLIGHT, COMMITTING)
        if (not ctx.writes and ctx.scheme is Scheme.SI
                and ctx.begin_stamp > 0 and ctx.untracked_reads == 0
                and all(v.sstamp == INFINITY for v in ctx.reads)):
            ctx.cstamp = ctx.begin_stamp
        else:
            ctx.cstamp = self.clock.next()
        ctx.fold_sstamp(ctx.cstamp)

    def certify_parallel(self, ctx: TransactionContext) -> str | None:
        """Watermark finalization and the window test; commits may overlap.

        Returns the abort cause, or None when the commit may proceed.
        """
        for version in ctx.reads:
            if version.sstamp == INFINITY:
                continue  # not overwritten: nothing to resolve
            kind, value = overwriter_outcome(self.table, version, ctx)
            if kind == "final":
                ctx.fold_sstamp(word_value(value))
            elif kind == "committed":
                ctx.fold_sstamp(word_value(value.sstamp))
            # none / pending contribute nothing
        return self._window_test(ctx)

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

    def _window_test(self, ctx: TransactionContext) -> str | None:
        """The tail of the commit check, once the read set is folded.

        First the reader sweep: it walks the readers bitmap of each
        overwritten predecessor.  The per-slot last commit stamp covers
        untracked readers that already left; a reader that committed below
        this commit stamp folds into pstamp (settle waits it out); an
        in-flight read-mostly reader, or one holding a later stamp, gets
        this updater's successor watermark pushed into its sstamp (the
        handshake), unless it sealed first, which aborts the updater.
        Re-reading the predecessor's access stamp at the end catches any
        reader the bitmap walk missed.  Then table updates fold in the table
        pstamp, a read-mostly transaction seals its sstamp, and the window
        test decides.  Returns the abort cause, or None.
        """
        my_cstamp = ctx.cstamp
        pstamp = ctx.pstamp
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
                stamp = settle(reader, my_cstamp)
                if stamp > 0:
                    pstamp = max(pstamp, stamp)
                elif stamp == PENDING and reader.read_mostly:
                    if not self._handshake(reader, ctx.sstamp & VALUE_MASK):
                        handshake_failed = True
            pstamp = max(pstamp, prev.pstamp)
        ctx.pstamp = pstamp
        if handshake_failed:
            return "ssn_exclusion"
        if TableMode.W in ctx.table_modes:
            # Table updates inherit every committed scan as a predecessor.
            pstamp = max(pstamp, self.store.table_pstamp.load())
            ctx.pstamp = pstamp
        snap = self._snapshot_pstamp(ctx)
        if ctx.read_mostly:
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

    def post_commit(self, ctx: TransactionContext) -> None:
        """Publish what later updaters fold in: the read-mostly slot's last
        commit stamp and, after a table scan, the table pstamp."""
        if ctx.snapshot_mode:
            return
        if ctx.read_mostly:
            self.table.record_commit_stamp(ctx.slot, ctx.cstamp)
        if TableMode.R in ctx.table_modes:
            self.store.table_pstamp.fold_max(ctx.cstamp)


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


class SsiCertifier(Certifier):
    """Two-flag dangerous-structure certification, on SI only.

    Each transaction carries an SsiState in ctx.ssi.  A version's final
    sstamp is its overwriter's commit stamp (only the base pre-commit folds
    one).  pivot_overwrites holds the versions committed pivots overwrote; a
    committer updates it before its versions' sstamps turn final, so a reader
    that finds a final sstamp also finds whether the overwriter was a pivot.
    """

    def __init__(self, clock: GlobalClock, table: TransactionTable,
                 store: Store):
        super().__init__(clock, table, store)
        self.pivot_overwrites = set()

    def begin(self, ctx: TransactionContext) -> None:
        ctx.ssi = SsiState()

    def on_read(self, ctx: TransactionContext, version: VersionMeta,
                cstamp: int) -> str | None:
        self.store.register_reader(version, ctx.slot)
        # ctx has drawn no commit stamp, so a live overwriter is "pending".
        kind, value = overwriter_outcome(self.table, version, ctx)
        if kind == "final":
            return self._committed_overwrite(ctx, version, value)
        if kind == "pending":
            # Mark before tracking: a reader this aborts clears no bit here.
            if self._mark_inbound(ctx, value):
                return "ssi_dangerous"
            ctx.ssi.out_rw = True
        ctx.reads[version] = None
        return None

    def _mark_inbound(self, ctx: TransactionContext,
                      peer: TransactionContext) -> bool:
        """Record that peer has an inbound anti-dependency (from ctx).

        If peer already took its commit decision the mark arrived too late;
        when the flags peer froze make it a committed pivot, the marker is
        the only transaction left that can break the structure, so the
        result is True and it must abort (conservatively even if peer itself
        ended up aborting).
        """
        seen = peer.ssi.in_rw.fetch_or(IN_RW)
        return bool(seen & DECIDED) and peer.ssi.committed_pivot(peer.cstamp)

    def _committed_overwrite(self, ctx: TransactionContext,
                             version: VersionMeta, word: int) -> str | None:
        ctx.ssi.fold_partner(word_value(word))
        if version in self.pivot_overwrites:
            # The overwriter is a committed pivot; this read closes the
            # structure and the reader is the only one left to stop.
            return "ssi_dangerous"
        return None

    def on_write(self, ctx: TransactionContext,
                 version: VersionMeta) -> str | None:
        prev = version.prev
        foreign_bits = prev.readers & ~(1 << ctx.slot)
        if foreign_bits or prev.pstamp > prev.committed_stamp():
            ctx.ssi.in_rw.fetch_or(IN_RW)
        return None

    def pre_commit(self, ctx: TransactionContext) -> str | None:
        super().pre_commit(ctx)
        ssi = ctx.ssi
        for version in ctx.reads:
            kind, value = overwriter_outcome(self.table, version, ctx)
            if kind == "final":
                cause = self._committed_overwrite(ctx, version, value)
                if cause is not None:
                    return cause
            elif kind == "committed":
                ssi.fold_partner(value.cstamp)
                if value.ssi.committed_pivot(value.cstamp):
                    return "ssi_dangerous"
            elif kind == "pending":
                if self._mark_inbound(ctx, value):
                    return "ssi_dangerous"
                ssi.out_rw = True
        cstamp = ctx.cstamp
        decision = ssi.in_rw.fetch_or(DECIDED)
        pivot = ssi.committed_pivot(cstamp)
        if decision & IN_RW and pivot and not ctx.read_only:
            return "ssi_dangerous"
        # A non-pivot discards: a pivot rolled back after this hook left its
        # versions in the set, and their next overwriter decides again.
        mark = (self.pivot_overwrites.add if pivot
                else self.pivot_overwrites.discard)
        for version in ctx.writes:
            mark(version.prev)
        return None

"""Certifiers: serializability checks layered over the access scheme.

The Engine runs the scheme (SI or RC visibility, write-write conflicts,
version installs and the write set) and reports each step to its certifier
through five hooks, without asking which certifier it has:

    begin(ctx)                     a transaction starts
    on_read(ctx, version, cstamp)  ctx read a committed foreign version
    on_write(ctx, version)         ctx installed a fresh version
    pre_commit(ctx)                after the Engine's COMMITTING
                                   transition: the stamp draw and the verdict
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

No certifier takes a lock around a commit or moves a status; both are the
Engine's.  An overwrite word in a read set may carry an overwriter's
transaction id instead of a final stamp.  overwriter_outcome is the one
place that resolves it, through the transaction table with kernel.settle
(kernel rule 6), and it gives both certifiers one answer for a committed
overwrite: the overwriter's successor watermark.  When the Engine runs one
commit at a time no overwriter is mid-commit, and the same code gives the
reference verdict.
After the read set, SSN's pre-commit runs the reader sweep and handshake,
the table and snapshot pstamps, the seal of a read-mostly transaction's
sstamp, and the window test.

SSN also honours the active safe snapshot (a stamp the clock publishes in
the hold of the lock that draws it, which acts as a reader of every record,
folded into overwriters' pstamp).  It owns the read-only commit-stamp rule
(empty write set under SI commits at its snapshot time), the untracked-read
filter for read-mostly transactions (stale reads, and every read after a
table scan) plus the sstamp handshake that lets updaters push their
watermark into untracked readers, and the table pstamp that table scans
raise and table updates fold in.  Reader bits mark only untracked
reads and are never cleared; an overwriter finds tracked readers in the read
sets of the transactions still in the table.

SSI keeps two words per transaction instead of full conflict lists: an
inbound flag and the earliest commit stamp of a committed outbound partner.
That admits false positives but must never miss a cycle.  Three rules
together cover every dangerous structure: writers collect the inbound flag
from the read sets of readers still in the table and from access stamps;
readers push the inbound flag into a live overwriter the moment they read
under its uncommitted write; and a reader that finds its version
overwritten by an already-committed pivot (inbound flag, partner committed
first) aborts itself, because the pivot can no longer be stopped.  Beyond
the two words, SSI keeps only the set of versions that committed pivots
overwrote.
"""

from __future__ import annotations

from .kernel import (
    INFINITY, PENDING, SI, TID_TAG, GlobalClock, TableMode,
    TransactionContext, TransactionTable, is_tid, settle, spin_until,
    word_value,
)
from .store import Store, VersionMeta


def overwriter_outcome(table: TransactionTable, version: VersionMeta,
                       ctx: TransactionContext):
    """Resolve what happened to the overwriter of a version ctx read.

    Returns one of:
        ("none", None)          no foreign overwrite yet, or ctx's own
        ("committed", stamp)    overwrite committed; stamp is the
                                overwriter's successor watermark
        ("pending", peer_ctx)   overwriter in flight or holding a larger stamp

    The stamp is the version's final sstamp, or the overwriter's own
    sstamp while its stamps are still pending: settle reports a peer
    committed only once its pre-commit is over, so that word is final too.
    Mandatory discipline: the sstamp is snapshotted into a local before any
    branching, because the owner may finalize it at any moment.  A tid whose
    context is gone means the owner concluded, and an aborted owner is
    undoing its claim; either way the field is about to hold (or already
    holds) other content, which we wait for and re-read.  settle judges the
    overwriter against ctx's commit stamp; a caller that has drawn none yet
    (ctx.cstamp == 0) gets "pending" for every live overwriter, committed
    or not.
    """
    while True:
        word = version.sstamp
        if word == INFINITY:
            return "none", None
        if not is_tid(word):
            return "committed", word
        if word_value(word) == ctx.tid:
            return "none", None
        peer = table.get(word_value(word))
        if peer is not None:
            stamp = settle(peer, ctx.cstamp)
            if stamp == PENDING:
                return "pending", peer
            if stamp:
                return "committed", peer.sstamp
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

    # ---------------- safe snapshots ----------------

    def begin(self, ctx: TransactionContext) -> None:
        if ctx.read_only:
            snapshot = self.clock.snapshot
            if snapshot:
                # Read-only queries on the safe snapshot skip certification
                # entirely; the snapshot stamp is both visibility cut and
                # commit stamp.
                ctx.snapshot_mode = True
                ctx.begin_stamp = snapshot

    def _snapshot_pstamp(self, ctx: TransactionContext) -> int:
        """Stamp the active snapshot contributes to ctx's pstamp, or 0.

        The snapshot behaves as a transaction that read every record at its
        stamp, so an updater that was in flight when the snapshot was taken
        and overwrites any version created before it inherits the snapshot
        stamp as a committed predecessor.
        """
        snapshot = self.clock.snapshot
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

        The read folds the creator's stamp into pstamp.  If the version is
        already overwritten by a committed transaction the overwriter's
        successor watermark folds into sstamp; otherwise the version joins
        the read set for re-checking at pre-commit, unless a read-mostly
        transaction makes the read untracked: either the version is more
        than threshold ticks older than the clock, or the transaction is in
        table mode R (it scanned).  That is decided first, and an untracked
        read of a version outside the read set sets its reader bit, unless
        it is already set, before the overwrite claim is loaded, so an
        overwriter either finds the bit, for the handshake, or leaves a
        claim this read sees.  A read that sees a claim is tracked even if
        the filter left it out, because the overwriter may have swept
        already.  Tracked reads set no bit: overwriters find them through
        the transaction table.  The window test after the folds is
        advisory: stamps may still move, the binding check happens at
        pre-commit.
        """
        if ctx.snapshot_mode:
            return None
        threshold = self.threshold
        untracked = ctx.read_mostly and (
            (threshold and self.clock.current() - cstamp > threshold)
            or (ctx.table_modes and TableMode.R in ctx.table_modes))
        if (untracked and not version.readers >> ctx.slot & 1
                and version not in ctx.reads):
            self.store.register_reader(version, ctx.slot)
        if cstamp > ctx.pstamp:
            ctx.pstamp = cstamp
        word = version.sstamp
        if word == INFINITY:
            if untracked:
                ctx.untracked_reads += 1
            else:
                ctx.reads[version] = None
        elif word & TID_TAG:
            # An overwriter holds the claim and may have swept its readers
            # before this read's bit went up, so the read is tracked after
            # all: pre-commit resolves the overwrite through the table.
            ctx.reads[version] = None
        else:
            ctx.fold_sstamp(word)
        if ctx.sstamp <= ctx.pstamp:
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
        if ctx.sstamp <= ctx.pstamp:
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
            ctx.cstamp = ctx.begin_stamp
            return None
        self.acquire_commit_stamp(ctx)
        cause = self.certify_parallel(ctx)
        if cause is not None and self.observe:
            ctx.observed_violation = True
            return None
        return cause

    def acquire_commit_stamp(self, ctx: TransactionContext) -> None:
        """Draw the commit stamp, which then caps sstamp: no successor
        watermark exceeds it.

        A transaction with an empty write set under SI reuses its snapshot
        time, which keeps access stamps low for the updaters it precedes.
        The reuse is only safe while none of its reads carries an overwrite
        claim: a concurrent overwriter that already installed might have
        swept past this transaction while it was still in flight, assuming
        any in-flight peer would draw a later stamp.  With a claim present,
        a fresh stamp turns the conflict into an ordinary back edge that
        pre-commit certifies.
        """
        if (not ctx.writes and ctx.scheme is SI
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
            kind, stamp = overwriter_outcome(self.table, version, ctx)
            if kind == "committed":
                ctx.fold_sstamp(stamp)
            # none / pending contribute nothing
        return self._window_test(ctx)

    def _window_test(self, ctx: TransactionContext) -> str | None:
        """The tail of the commit check, once the read set is folded.

        First the reader sweep.  For each overwritten predecessor it visits
        the slots whose bit an untracked read raised, and the slots whose
        current transaction tracks the predecessor, less plain ones still in
        flight: those draw a later stamp and meet this updater's claim in
        their own certify_parallel.  The table is walked once per commit,
        after the stamp draw, for the peers whose read sets the sweep looks
        in.  That is sound for every predecessor: the claims all went up
        before the draw, and a peer that was in flight at the walk, or
        published after it, draws a later stamp, so it meets the claim in
        its own certify_parallel, as a peer skipped by a walk per
        predecessor would.  The per-slot last commit stamp covers
        untracked readers that already left; a reader that committed below
        this commit stamp folds into pstamp (settle waits it out); an
        in-flight read-mostly reader, or one holding a later stamp, gets
        this updater's successor watermark pushed into its sstamp (the
        handshake), unless it sealed first, which aborts the updater.  The
        final re-read of the predecessor's access stamp catches the readers
        that left, which raised it before clearing their slots.  Then table
        updates fold in the table pstamp, a read-mostly transaction seals
        its sstamp, and the window test decides.  Returns the abort cause,
        or None.
        """
        my_cstamp = ctx.cstamp
        my_slot = ctx.slot
        pstamp = ctx.pstamp
        handshake_failed = False
        table = self.table
        peers = table.peer_reads(my_slot, False) if ctx.writes else ()
        for version in ctx.writes:
            prev = version.prev
            bits = prev.readers
            for slot, reads in peers:
                if prev in reads:
                    bits |= 1 << slot
            while bits:
                slot = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                if slot == my_slot:
                    continue
                last = table.last_cstamp(slot)
                if pstamp < last < my_cstamp:
                    pstamp = last
                reader = table.current[slot]
                if reader is None:
                    continue
                stamp = settle(reader, my_cstamp)
                if stamp > pstamp:
                    pstamp = stamp
                elif stamp == PENDING and reader.read_mostly:
                    # The reader's watermark must fall to this updater's,
                    # not merely to its commit stamp: the updater's own
                    # successors are the reader's transitive successors.
                    if not reader.push_sstamp(ctx.sstamp):
                        handshake_failed = True
            if prev.pstamp > pstamp:
                pstamp = prev.pstamp
        ctx.pstamp = pstamp
        if handshake_failed:
            return "ssn_exclusion"
        if ctx.table_modes and TableMode.W in ctx.table_modes:
            # Table updates inherit every committed scan as a predecessor.
            table_pstamp = self.store.table_pstamp.load()
            if table_pstamp > pstamp:
                pstamp = ctx.pstamp = table_pstamp
        snap = self._snapshot_pstamp(ctx) if self.clock.snapshot else 0
        if ctx.read_mostly:
            # From here on no updater may lower our sstamp; one whose push
            # the seal refuses aborts itself.
            ctx.seal_sstamp()
        pi = ctx.sstamp
        # A watermark equal to the own commit stamp means no back-edge
        # successor exists, so no predecessor can fall inside the window.
        # The distinction only matters for empty-write-set commits, whose
        # reused snapshot stamps may tie with a predecessor's.
        if pi < ctx.cstamp and (pi <= pstamp or pi <= snap):
            return "safe_snapshot" if pi > pstamp else "ssn_exclusion"
        return None

    def post_commit(self, ctx: TransactionContext) -> None:
        """Publish what later updaters fold in: the read-mostly slot's last
        commit stamp and, after a table scan, the table pstamp."""
        if ctx.snapshot_mode:
            return
        if ctx.read_mostly:
            self.table.record_commit_stamp(ctx.slot, ctx.cstamp)
        if ctx.table_modes and TableMode.R in ctx.table_modes:
            self.store.table_pstamp.fold_max(ctx.cstamp)


IN_RW = 1       # has an inbound read anti-dependency
DECIDED = 2     # the owner already ran its commit check


class SsiCertifier(Certifier):
    """Two-flag dangerous-structure certification, on SI only.

    begin gives each transaction its two SSI words (kernel.py's
    TransactionContext): the flag word, in which peers raise IN_RW and
    the owner raises DECIDED when it takes its commit decision, and the
    earliest commit stamp of a committed out-partner, which only the owner
    lowers.  The transaction is a committed pivot when that stamp is below
    its own commit stamp; out-partners that have not committed decide
    nothing.  A committed overwriter's stamp is its commit stamp, since
    only the base pre-commit folds one into its sstamp.
    pivot_overwrites holds the versions committed pivots overwrote; a
    committer updates it before its COMMITTED transition, so a reader that
    finds the overwriter committed also finds whether it was a pivot.  SSI
    sets no reader bits: a reader joins the read set before it loads the
    claim, and a writer claims before it looks for readers in the table,
    so one of the two always sees the other.  A reader that left the table
    raised the version's access stamp first.
    """

    def __init__(self, clock: GlobalClock, table: TransactionTable,
                 store: Store):
        super().__init__(clock, table, store)
        self.pivot_overwrites = set()

    def begin(self, ctx: TransactionContext) -> None:
        ctx.ssi_flags = 0
        ctx.ssi_partner = INFINITY

    def on_read(self, ctx: TransactionContext, version: VersionMeta,
                cstamp: int) -> str | None:
        # Track before the claim is loaded: a writer whose claim the load
        # misses finds this reader through the table (on_write).
        reads = ctx.reads
        fresh = version not in reads
        reads[version] = None
        # ctx has drawn no commit stamp, so a live overwriter is "pending".
        kind, value = overwriter_outcome(self.table, version, ctx)
        if kind == "committed":
            if fresh:
                del reads[version]
            return self._committed_overwrite(ctx, version, value)
        if kind == "pending":
            return self._pending_overwrite(value)
        return None

    @staticmethod
    def _pending_overwrite(peer: TransactionContext) -> str | None:
        """A reader read a version that peer overwrites and has not
        committed below the reader: mark peer's inbound flag.

        If peer already took its commit decision the mark arrived too late;
        when peer's frozen partner stamp makes it a committed pivot, the
        reader is the only transaction left that can break the structure,
        so it aborts (conservatively even if peer itself ended up aborting).
        """
        seen = peer.set_ssi_flags(IN_RW)
        if seen & DECIDED and peer.ssi_partner < peer.cstamp:
            return "ssi_dangerous"
        return None

    def _committed_overwrite(self, ctx: TransactionContext,
                             version: VersionMeta, stamp: int) -> str | None:
        if stamp < ctx.ssi_partner:
            ctx.ssi_partner = stamp
        if version in self.pivot_overwrites:
            # The overwriter is a committed pivot; this read closes the
            # structure and the reader is the only one left to stop.
            return "ssi_dangerous"
        return None

    def on_write(self, ctx: TransactionContext,
                 version: VersionMeta) -> str | None:
        prev = version.prev
        readers = self.table.reader_slots(prev) & ~(1 << ctx.slot)
        if readers or prev.pstamp > prev.committed_stamp():
            ctx.set_ssi_flags(IN_RW)
        return None

    def pre_commit(self, ctx: TransactionContext) -> str | None:
        super().pre_commit(ctx)
        for version in ctx.reads:
            kind, value = overwriter_outcome(self.table, version, ctx)
            if kind == "committed":
                cause = self._committed_overwrite(ctx, version, value)
            elif kind == "pending":
                cause = self._pending_overwrite(value)
            else:
                continue
            if cause is not None:
                return cause
        pivot = ctx.ssi_partner < ctx.cstamp
        if ctx.set_ssi_flags(DECIDED) & IN_RW and pivot:
            return "ssi_dangerous"
        # A non-pivot discards: a pivot rolled back after this hook left its
        # versions in the set, and their next overwriter decides again.
        mark = (self.pivot_overwrites.add if pivot
                else self.pivot_overwrites.discard)
        for version in ctx.writes:
            mark(version.prev)
        return None

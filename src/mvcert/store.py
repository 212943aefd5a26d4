"""Multi-version record store: version chains, installs, readers, finalize.

Each record is a newest-first singly linked chain of versions.  A version's
cstamp holds the creator's transaction id until the creator's post-commit
turns it into a real timestamp, which is also the visibility switch: readers
skip tid-tagged versions that are not their own.  Chain appends serialize on
a single compare-and-swap of the record's cell, so writers never block
readers and vice versa.

Version stamps follow a strict lifecycle.  sstamp goes +inf -> overwriter
tid -> overwriter's successor watermark, never any other way; pstamp only
rises once the version is committed.  Aborts restore the overwritten
version's sstamp to +inf before unlinking the dead head, so no reader can
observe a dangling overwriter tid.

A version's stamps and reader bitmap are plain slots, like a transaction's
words: loads and stores are attribute accesses, atomic under the GIL.  Their
read-modify-writes run under kernel.RMW_LOCK, the lock every AtomicCell
shares: the sstamp claim and its restore (VersionMeta.swap_sstamp), setting
a reader bit (Store.register_reader), and two batches that take the lock
once per transaction, not once per version: a committer's pstamp raise over
its whole read set (Store.finalize_commit) and clearing its reader bits
(Store.clear_readers).  A record is itself the AtomicCell that holds the
newest version of its chain; the table pstamp is the store's other cell.

Nothing in the store points back up: a version links only to its
predecessor, and a transaction's write set maps each version it installed
to the record whose chain it heads, which is how rollback finds the cell to
unlink.  The store therefore holds no reference cycle, and reference
counting frees a dropped engine, or a cut chain tail, without the cyclic
collector.

The store keeps no certifier state beyond these words.  A reader bit goes up
only when a certifier registers the read, and finalize_commit raises the
access stamps of the committer's read set, which the bare scheme leaves
empty.
"""

from __future__ import annotations

from .kernel import (
    COMMITTED, INFINITY, RMW_LOCK, TID_TAG, VALUE_MASK, AtomicCell, Scheme,
    TransactionContext, TransactionTable, is_tid, settle, spin_until,
    word_value,
)

# Enum members are slow to look up as class attributes on CPython 3.11;
# the read path compares against these module constants instead.
_SI = Scheme.SI


class WriteConflict(Exception):
    """Install refused: uncommitted write-write overlap or temporal skew."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class VersionMeta:
    __slots__ = ("creator_tid", "cstamp", "pstamp", "sstamp", "prev",
                 "readers", "payload")

    def __init__(self, creator_tid: int, cstamp_word: int, prev, payload):
        self.creator_tid = creator_tid
        self.cstamp = cstamp_word
        self.pstamp = 0
        self.sstamp = INFINITY
        self.prev = prev
        self.readers = 0
        self.payload = payload

    def committed_stamp(self) -> int:
        word = self.cstamp
        assert not is_tid(word)
        return word_value(word)

    def swap_sstamp(self, expected: int, new: int) -> bool:
        """Compare-and-swap of sstamp: an overwriter's claim or its restore."""
        with RMW_LOCK:
            if self.sstamp == expected:
                self.sstamp = new
                return True
            return False


class Record(AtomicCell):
    """One record: the cell that holds the newest version of its chain.

    Appends and unlinks are the inherited compare_and_swap.  Every record
    starts with a committed "invalid" version: payload None, creation stamp
    0, creator 0 (nobody).
    """

    __slots__ = ()

    def __init__(self):
        self._value = VersionMeta(0, 0, None, None)

    @property
    def head(self):
        """The record itself, for perfbench/spans.py's record.head.load()."""
        return self


class Store:
    """A single flat table of db_size records.

    The transaction table gives visibility indirection: a version whose
    creation stamp still holds the creator's tid belongs to a transaction
    that may have survived pre-commit already, and snapshot readers must
    treat it by the creator's verdict rather than skipping it outright, or
    their reads drift behind the stamp order.
    """

    def __init__(self, size: int, table: TransactionTable):
        if size < 1:
            raise ValueError("store needs at least one record")
        self.records = [Record() for _ in range(size)]
        # Largest commit stamp of a table scan: the access stamp of the
        # whole table, which table updates fold into their pstamp.
        self.table_pstamp = AtomicCell(0)
        self.table = table

    def visible_version(self, ctx: TransactionContext,
                        record: Record) -> VersionMeta:
        """Version of record that ctx is allowed to read.

        SI returns the newest version with a committed stamp at or below the
        snapshot; RC returns the newest committed version.  Both skip versions
        created by in-flight transactions, and both return the transaction's
        own uncommitted head if it created one.

        Snapshot reads must not skip a version merely because its creator has
        not finished stamping it: the creator's stamp was drawn before the
        reader's snapshot, so skipping would hand the reader an already
        overwritten version and break the snapshot ordering.  A creator that
        survived pre-commit counts as committed, with its stamp inferred from
        its context instead of the version; post-commit stragglers delay
        nobody.  A snapshot reader settles a creator that holds a stamp
        inside its snapshot (kernel.settle), because only the verdict decides
        whether the version is part of the snapshot; RC readers never wait.
        """
        snapshot = ctx.scheme is _SI or ctx.snapshot_mode
        begin_stamp = ctx.begin_stamp
        version = record._value
        while version is not None:
            word = version.cstamp
            if word & TID_TAG:
                if word & VALUE_MASK == ctx.tid:
                    break  # read-own-writes
                creator = self.table.get(word & VALUE_MASK)
                if creator is None:
                    # Creator concluded: a committed creator finalized the
                    # stamp before vacating its slot, so a still-tagged stamp
                    # marks an unlinked orphan from an abort.
                    if version.cstamp & TID_TAG:
                        version = version.prev
                    continue
                if snapshot:
                    if settle(creator, begin_stamp + 1) > 0:
                        break
                elif creator.status == COMMITTED:
                    break
            elif not snapshot or word & VALUE_MASK <= begin_stamp:
                break
            version = version.prev
        assert version is not None, "chain lost its initial version"
        return version

    def creation_stamp(self, version: VersionMeta) -> int:
        """Commit stamp of a visible version, resolving pending post-commit.

        Only call on versions returned by visible_version for some reader
        other than the creator: the creator is committed, so either the
        version already carries the final stamp or the creator's context
        still holds it.
        """
        word = version.cstamp
        if not word & TID_TAG:
            return word  # an untagged word is the stamp itself
        creator = self.table.get(word & VALUE_MASK)
        if creator is not None and creator.status == COMMITTED:
            stamp = creator.cstamp
            if stamp:
                return stamp
        # The creator left its slot after the first load, so it has already
        # written the final stamp (or is about to).
        spin_until(lambda: not is_tid(version.cstamp),
                   "creation stamp of tid %d" % word_value(word))
        return word_value(version.cstamp)

    def install_version(self, ctx: TransactionContext, record: Record,
                        payload) -> VersionMeta:
        """Append a new uncommitted version, or refuse with WriteConflict.

        Conflicts: the head is another transaction's uncommitted write, or
        (SI only) the head committed after the writer's snapshot.  A repeated
        overwrite by the same transaction replaces the payload in place.
        """
        head = record._value
        head_word = head.cstamp
        if head_word & TID_TAG:
            if head_word & VALUE_MASK == ctx.tid:
                head.payload = payload
                return head
            raise WriteConflict("uncommitted")
        if ctx.scheme is _SI and head_word & VALUE_MASK > ctx.begin_stamp:
            raise WriteConflict("skew")
        claim = TID_TAG | ctx.tid
        version = VersionMeta(ctx.tid, claim, head, payload)
        if not record.compare_and_swap(head, version):
            # Another writer won the append race; treat like any other
            # write-write conflict rather than blocking.
            raise WriteConflict("uncommitted")
        swapped = head.swap_sstamp(INFINITY, claim)
        assert swapped, "overwritten head carried a foreign overwriter tid"
        return version

    def register_reader(self, version: VersionMeta, slot: int) -> None:
        with RMW_LOCK:
            version.readers |= 1 << slot

    def clear_readers(self, versions, slot: int) -> None:
        """Clear slot's bit in every version's reader bitmap, in one lock."""
        keep = ~(1 << slot)
        with RMW_LOCK:
            for version in versions:
                version.readers &= keep

    def finalize_commit(self, ctx: TransactionContext) -> None:
        """Post-commit stamp propagation for a committed transaction.

        Raises the access stamp of every tracked read, all under one hold of
        the lock, then finalizes each written version: the overwritten
        predecessor's sstamp becomes the committer's successor watermark (tid
        tag cleared), and the new version gets its creation and access
        stamps.  Reads the transaction itself overwrote are skipped; their
        stamps die with the overwrite.
        """
        cstamp = ctx.cstamp
        if ctx.reads:
            own = TID_TAG | ctx.tid
            with RMW_LOCK:
                for version in ctx.reads:
                    if version.sstamp != own and cstamp > version.pstamp:
                        version.pstamp = cstamp
        pi = ctx.sstamp & VALUE_MASK
        for version in ctx.writes:
            version.prev.sstamp = pi
            version.pstamp = cstamp
            version.cstamp = cstamp

    def rollback(self, ctx: TransactionContext) -> None:
        """Unlink every version an aborted transaction installed.

        ctx.writes maps each installed version to its record.  The
        predecessor's sstamp is restored before the head is unlinked so a
        concurrent reader never sees an overwriter tid with no overwriter.
        """
        for version, record in reversed(ctx.writes.items()):
            restored = version.prev.swap_sstamp(TID_TAG | ctx.tid, INFINITY)
            assert restored, "aborting overwriter lost its sstamp claim"
            unlinked = record.compare_and_swap(version, version.prev)
            assert unlinked, "aborted head was overwritten concurrently"

    def dump_stamps(self):
        """Raw stamp words per record, oldest version first (for tests)."""
        dump = []
        for record in self.records:
            chain = []
            version = record._value
            while version is not None:
                chain.append((version.creator_tid, version.cstamp,
                              version.pstamp, version.sstamp,
                              version.payload))
                version = version.prev
            chain.reverse()
            dump.append(chain)
        return dump

    def check_chains(self) -> None:
        """Assert quiescent chain well-formedness (stress-test support)."""
        for key, record in enumerate(self.records):
            version = record._value
            last = None
            while version is not None:
                word = version.cstamp
                assert not is_tid(word), \
                    "record %r retains an uncommitted head" % (key,)
                stamp = word_value(word)
                if last is not None:
                    assert stamp < last, \
                        "record %r chain stamps not strictly increasing" % (key,)
                last = stamp
                version = version.prev

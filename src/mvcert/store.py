"""Multi-version record store: version chains, installs, readers, finalize.

Each record is a newest-first singly linked chain of versions, and the
store's list holds each chain's head version itself: one object per record.
Every version carries its record's key in a slot that fills the spare
bytes of its allocation, and a new version copies its predecessor's, so an
install or an abort finds the list slot from the version alone.

A version's cstamp holds the creator's transaction id until the creator's
post-commit turns it into a real timestamp, which is also the visibility
switch: readers skip tid-tagged versions that are not their own.  A writer
appends under one hold of the lock: it checks that the head it saw is
still the list's head and unclaimed, then links its version in and claims
the old head.  Readers take no lock, so writers never block readers and
vice versa.

Version stamps follow a strict lifecycle.  sstamp goes +inf -> overwriter
tid -> overwriter's successor watermark, never any other way; pstamp only
rises once the version is committed.  Aborts restore the overwritten
version's sstamp to +inf before unlinking the dead head, in the same hold
of the lock, so no reader can observe a dangling overwriter tid.

A version's stamps and reader bitmap, and the list's items, are plain
slots (kernel rule 1).  Their read-modify-writes (kernel rule 2) are an
append with its claim (Store.install_version), an unlink with the claim's
restore (Store.rollback), setting one reader bit (Store.register_reader),
and a committer's pstamp raise over its read set (Store.finalize_commit),
which takes the lock once per transaction, not once per version.  The
table pstamp is the store's one AtomicCell.

Nothing in the store points back up: a version links only to its
predecessor, and a transaction's write set maps each version it installed
to None, since rollback finds the list slot through the version's key.
The store therefore holds no reference cycle, and reference counting frees
a dropped engine, or a cut chain tail, without the cyclic collector.

For the same reason a collection during a store's build can find nothing,
yet a large build would trip hundreds of them.  Store.__init__ therefore
builds with the collector paused and then promotes the new versions to the
oldest generation without walking them; its docstring says why both are
sound.

The store keeps no certifier state beyond these words.  A reader bit marks an
untracked read, one kept out of the read set (SSN's read-mostly filter), and
is never cleared; tracked readers are found through the transaction table.
finalize_commit raises the access stamps of the committer's read set, which
the bare scheme leaves empty.
"""

from __future__ import annotations

import gc

from .kernel import (
    COMMITTED, INFINITY, RMW_LOCK, SI, TID_TAG, VALUE_MASK, AtomicCell,
    TransactionContext, TransactionTable, is_tid, settle, spin_until,
    word_value,
)


class WriteConflict(Exception):
    """Install refused: uncommitted write-write overlap or temporal skew.

    kind, "uncommitted" or "skew", is the exception's one argument; like
    TransactionAborted, the class defines no __init__.
    """

    @property
    def kind(self) -> str:
        return self.args[0]


class VersionMeta:
    """One version of a record; the initial one has creator 0 (nobody),
    stamp 0 and payload None."""

    __slots__ = ("creator_tid", "cstamp", "pstamp", "sstamp", "prev",
                 "readers", "payload", "key")

    def __init__(self, creator_tid: int, cstamp_word: int, prev, payload,
                 key: int):
        self.creator_tid = creator_tid
        self.cstamp = cstamp_word
        self.pstamp = 0
        self.sstamp = INFINITY
        self.prev = prev
        self.readers = 0
        self.payload = payload
        self.key = key

    def committed_stamp(self) -> int:
        word = self.cstamp
        assert not is_tid(word)
        return word_value(word)

    def load(self):
        """The version itself, so perfbench/spans.py's record.head.load()
        yields the head the store's list holds."""
        return self

    head = property(load)


class Store:
    """A single flat table of db_size records: records[key] is the head
    version of key's chain.

    The transaction table gives visibility indirection: a version whose
    creation stamp still holds the creator's tid belongs to a transaction
    that may have survived pre-commit already, and snapshot readers must
    treat it by the creator's verdict rather than skipping it outright, or
    their reads drift behind the stamp order.
    """

    def __init__(self, size: int, table: TransactionTable):
        """Build size records, each an initial version.

        While the collector is on and nothing is frozen, the versions are
        built with it paused, and then every object the collector tracks is
        promoted to the oldest generation, which also resets the young
        count.  The pause is sound because the versions form no cycle:
        reference counting alone frees them.  The promotion is sound
        because a full collection still examines the oldest generation, so
        any garbage promoted along with the versions is found there.  A
        collector the caller disabled, or objects the caller froze, are left
        as they are, and the build then runs unchanged.
        """
        if size < 1:
            raise ValueError("store needs at least one record")
        pause = gc.isenabled() and not gc.get_freeze_count()
        if pause:
            gc.disable()
        try:
            self.records = [VersionMeta(0, 0, None, None, key)
                            for key in range(size)]
        finally:
            if pause:
                gc.freeze()
                gc.unfreeze()
                gc.enable()
        # Largest commit stamp of a table scan: the access stamp of the
        # whole table, which table updates fold into their pstamp.
        self.table_pstamp = AtomicCell(0)
        self.table = table

    def visible_version(self, ctx: TransactionContext,
                        head: VersionMeta) -> VersionMeta:
        """Version of head's chain that ctx is allowed to read.

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
        snapshot = ctx.scheme is SI or ctx.snapshot_mode
        begin_stamp = ctx.begin_stamp
        version = head
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

    def install_version(self, ctx: TransactionContext, head: VersionMeta,
                        payload) -> VersionMeta:
        """Append a new uncommitted version on head, or refuse with
        WriteConflict.

        Conflicts: head is another transaction's uncommitted write, or (SI
        only) head committed after the writer's snapshot, or head is no
        longer its chain's head.  A repeated overwrite by the same
        transaction replaces the payload in place.  The append and the
        claim of the old head happen in one hold of the lock, after every
        check, so a refused install changes nothing.
        """
        head_word = head.cstamp
        if head_word & TID_TAG:
            if head_word & VALUE_MASK == ctx.tid:
                head.payload = payload
                return head
            raise WriteConflict("uncommitted")
        if ctx.scheme is SI and head_word & VALUE_MASK > ctx.begin_stamp:
            raise WriteConflict("skew")
        claim = TID_TAG | ctx.tid
        key = head.key
        version = VersionMeta(ctx.tid, claim, head, payload, key)
        records = self.records
        with RMW_LOCK:
            if records[key] is not head:
                # Another writer won the append race; treat like any other
                # write-write conflict rather than blocking.
                raise WriteConflict("uncommitted")
            # Checked before anything changes, so a failed check leaves
            # the chain as it was.
            assert head.sstamp == INFINITY, \
                "overwritten head carried a foreign overwriter tid"
            records[key] = version
            head.sstamp = claim
        return version

    def register_reader(self, version: VersionMeta, slot: int) -> None:
        """Set slot's reader bit on version, for an untracked read."""
        with RMW_LOCK:
            version.readers |= 1 << slot

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
        pi = ctx.sstamp
        for version in ctx.writes:
            version.prev.sstamp = pi
            version.pstamp = cstamp
            version.cstamp = cstamp

    def rollback(self, ctx: TransactionContext) -> None:
        """Unlink every version an aborted transaction installed.

        ctx.writes holds each installed version, whose key names its list
        slot.  Each version takes one hold of the lock, in which the
        predecessor's sstamp is restored before the head is unlinked, so a
        concurrent reader never sees an overwriter tid with no overwriter.
        """
        claim = TID_TAG | ctx.tid
        records = self.records
        for version in reversed(ctx.writes):
            prev, key = version.prev, version.key
            with RMW_LOCK:
                assert prev.sstamp == claim, \
                    "aborting overwriter lost its sstamp claim"
                assert records[key] is version, \
                    "aborted head was overwritten concurrently"
                prev.sstamp = INFINITY
                records[key] = prev

    def dump_stamps(self):
        """Raw stamp words per record, oldest version first (for tests)."""
        dump = []
        for version in self.records:
            chain = []
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
        for key, version in enumerate(self.records):
            last = None
            while version is not None:
                assert version.key == key, \
                    "record %r chain holds a version of key %r" \
                    % (key, version.key)
                word = version.cstamp
                assert not is_tid(word), \
                    "record %r retains an uncommitted head" % (key,)
                stamp = word_value(word)
                if last is not None:
                    assert stamp < last, \
                        "record %r chain stamps not strictly increasing" % (key,)
                last = stamp
                version = version.prev

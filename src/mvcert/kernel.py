"""Timestamps, stamp words, transaction contexts, and the worker-slot table.

Everything here is shared, mutable state touched by up to 64 worker threads.
This docstring is the one statement of the concurrency contract; the other
modules cite its rules by number:

1. Shared words are plain slots of the object that owns them: a
   transaction's status, cstamp, sstamp, seal flag and SSI flag word and
   the table's lists and top here, a version's stamps and reader bits and
   the store's list of chain heads in store.py.
   Under the GIL a load or store of one attribute or list item is atomic.
2. Every read-modify-write of a shared word is a method of its owner that
   takes one hold of RMW_LOCK, the one module-wide lock; changes that must
   be seen together share the hold.  The lock is not reentrant, so no
   read-modify-write may run another while it holds it.  An AtomicCell is
   a word that stands alone: the table pstamp and the clock, whose
   safe-snapshot draw publishes its stamp in the same hold.
3. A word that only its owner writes changes by a plain store: a
   transaction's status (transition_status) and SSI partner stamp, a
   table slot's items, and the sstamp of a transaction that is not
   read-mostly, since peers lower only a read-mostly reader's sstamp,
   through push_sstamp (the handshake).
4. A C call that runs no bytecode is atomic under the GIL: the tid draw
   (next() on an itertools.count), a trace row append (array.frombytes),
   and a lookup in a peer's read set, a dict of versions hashed by
   identity.
5. Every wait goes through spin_until, which yields each round and fails
   loudly past SPIN_LIMIT.
6. Every wait for a peer's pre-commit verdict goes through settle, which
   waits only on a peer that holds a smaller commit stamp.  A transaction
   enters COMMITTING strictly before it draws its stamp, so a peer seen in
   flight draws a stamp later than any the caller holds, and no two
   transactions wait on each other.

Stamp words are 64-bit integers with a fixed layout:

    bit 62        tag: 1 = transaction id, 0 = timestamp
    bits 0..61    value

Timestamp value 0 is reserved as "invalid"; the global clock never issues it.
The +infinity sentinel used for successor stamps is the largest representable
timestamp value, which preserves min() semantics without special cases.
A timestamp word is its value, and a transaction id's word is
``TID_TAG | tid``.  Only a version's words carry the tag; a transaction's
stamps are plain timestamps.  The operation path tests ``word & TID_TAG``
and masks with ``VALUE_MASK`` inline; two helpers serve the cold paths and
the tests: is_tid and word_value.
"""

from __future__ import annotations

import itertools
import threading
import time
from enum import Enum, IntEnum

VALUE_BITS = 62
VALUE_MASK = (1 << VALUE_BITS) - 1
TID_TAG = 1 << 62
INFINITY = VALUE_MASK  # timestamp-tagged "no successor yet" sentinel

MAX_WORKERS = 64
SLOT_MASK = MAX_WORKERS - 1

# Spin loops yield the processor each iteration; a loop this long means the
# protocol is wedged, so fail loudly instead of hanging the suite.
SPIN_LIMIT = 2_000_000


class UsageError(ValueError):
    """Caller violated an operation precondition (not a data race)."""


class IllegalTransition(RuntimeError):
    """A status edge outside the transaction lifecycle machine."""


class TransactionAborted(Exception):
    """Raised whenever a transaction cannot continue; carries the cause.

    reason is one of: cc_conflict, ssn_exclusion, ssi_dangerous,
    safe_snapshot, user.  It is the exception's one argument; the class
    defines no __init__, so raising one runs no bytecode to build it.
    """

    @property
    def reason(self) -> str:
        return self.args[0]


def is_tid(word: int) -> bool:
    return bool(word & TID_TAG)


def word_value(word: int) -> int:
    return word & VALUE_MASK


# Rule 2's lock: under the GIL it gives the same atomicity as a lock per
# word, without building one for each.
RMW_LOCK = threading.Lock()


class AtomicCell:
    """One shared machine word: plain load/store, locked read-modify-write."""

    __slots__ = ("_value",)

    def __init__(self, value=0):
        self._value = value

    def load(self):
        return self._value

    def store(self, value):
        self._value = value

    def compare_and_swap(self, expected, new) -> bool:
        with RMW_LOCK:
            if self._value == expected:
                self._value = new
                return True
            return False

    def fetch_add(self, delta: int) -> int:
        with RMW_LOCK:
            old = self._value
            self._value = old + delta
            return old

    def fetch_or(self, bits: int) -> int:
        with RMW_LOCK:
            old = self._value
            self._value = old | bits
            return old

    def fetch_and(self, bits: int) -> int:
        with RMW_LOCK:
            old = self._value
            self._value = old & bits
            return old

    def fold_min(self, value: int) -> int:
        """Lower the cell to value if smaller; returns the new content."""
        with RMW_LOCK:
            if value < self._value:
                self._value = value
            return self._value

    def fold_max(self, value: int) -> int:
        with RMW_LOCK:
            if value > self._value:
                self._value = value
            return self._value


def spin_until(cond, what: str) -> None:
    """Bounded busy-wait; raises if the condition never comes true."""
    spins = 0
    while not cond():
        time.sleep(0)
        spins += 1
        if spins > SPIN_LIMIT:
            raise RuntimeError("spin limit exceeded waiting for %s" % what)


class GlobalClock:
    """Strictly increasing timestamp source backed by one fetch-and-add.

    snapshot is the stamp of the active safe snapshot, 0 for none.  Only
    draw_snapshot stores it, in the hold of the lock that draws it, so a
    commit that draws a later stamp finds the snapshot published.
    """

    __slots__ = ("_cell", "snapshot")

    def __init__(self):
        self._cell = AtomicCell(0)
        self.snapshot = 0

    def next(self) -> int:
        value = self._cell.fetch_add(1) + 1
        assert value < INFINITY, "timestamp counter exhausted"
        return value

    def draw_snapshot(self) -> int:
        """Draw a stamp and publish it as the safe snapshot; returns it."""
        cell = self._cell
        with RMW_LOCK:
            value = cell._value + 1
            cell._value = self.snapshot = value
        assert value < INFINITY, "timestamp counter exhausted"
        return value

    def current(self) -> int:
        """Most recently issued timestamp (0 before the first draw)."""
        return self._cell._value


class Status(IntEnum):
    INFLIGHT = 0
    COMMITTING = 1
    COMMITTED = 2
    ABORTED = 3


class Scheme(Enum):
    SI = "si"
    RC = "rc"


# Enum members are slow to look up as class attributes on CPython 3.11; the
# hot paths of every module compare against these constants instead.
INFLIGHT, COMMITTING, COMMITTED, ABORTED = (
    Status.INFLIGHT, Status.COMMITTING, Status.COMMITTED, Status.ABORTED)
SI, RC = Scheme.SI, Scheme.RC

# The legal successors of each status, indexed by the status.
_SUCCESSORS = ((COMMITTING, ABORTED), (COMMITTED, ABORTED), (), ())


class TableMode(Enum):
    """Declared table-granularity access modes: a scan (R) raises the table
    pstamp at commit, a table update or insert (W) folds it in."""

    R = "r"
    W = "w"


# Every transaction starts with this one empty set of table modes; a scan or
# a declared mode replaces it with a new set and never mutates it.
NO_TABLE_MODES = frozenset()


class TransactionContext:
    """Per-transaction state, owned by one worker thread.

    Peers may read status, cstamp, sstamp and the two SSI words, may lower
    a read-mostly transaction's sstamp through push_sstamp (the handshake)
    and may raise SSI flags; everything else is private.  Only the owner
    stores status and cstamp, and seals sstamp.  writes is the engine's
    write set, an insertion-ordered dict from each installed version to
    None.
    reads is the certifier's read set (the bare scheme keeps none), an
    insertion-ordered dict from each tracked version to None, in which
    overwriters look up versions (rule 4).  Only the SSI certifier's begin
    sets the two SSI words: ssi_flags, the inbound and decided flags, which
    change only through set_ssi_flags, and ssi_partner, the earliest commit
    stamp among committed overwriters of versions this transaction read
    (INFINITY for none), which only the owner stores.
    """

    __slots__ = (
        "tid", "slot", "scheme", "read_only", "read_mostly", "snapshot_mode",
        "status", "cstamp", "pstamp", "sstamp", "sealed", "begin_stamp",
        "start_stamp", "reads", "writes", "table_modes", "untracked_reads",
        "observed_violation", "ssi_flags", "ssi_partner",
    )

    def __init__(self, tid: int, slot: int, scheme: Scheme,
                 read_only: bool = False, read_mostly: bool = False,
                 begin_stamp: int = 0, start_stamp: int = 0):
        self.tid = tid
        self.slot = slot
        self.scheme = scheme
        self.read_only = read_only
        self.read_mostly = read_mostly
        self.snapshot_mode = False
        self.status = INFLIGHT
        self.cstamp = 0
        self.pstamp = 0
        self.sstamp = INFINITY
        self.sealed = False
        self.begin_stamp = begin_stamp
        self.start_stamp = start_stamp
        self.reads = {}
        self.writes = {}
        self.table_modes = NO_TABLE_MODES
        self.untracked_reads = 0
        self.observed_violation = False

    def fold_sstamp(self, value: int) -> int:
        """Lower sstamp to value if smaller; returns the new content.

        Only the owner folds, and only before sealing.  Peers lower a
        read-mostly transaction's sstamp too, so its fold is a push; any
        other is a plain store (rule 3).
        """
        if self.read_mostly:
            lowered = self.push_sstamp(value)
            assert lowered, "a read-mostly owner folded after its seal"
        elif value < self.sstamp:
            self.sstamp = value
        return self.sstamp

    def seal_sstamp(self) -> None:
        """Seal sstamp: from then on no push can lower it."""
        with RMW_LOCK:
            self.sealed = True

    def push_sstamp(self, value: int) -> bool:
        """Lower sstamp to value unless the seal holds it above value; the
        handshake.  Returns whether sstamp ends at or below value.

        sstamp only falls, and once sealed it never moves, so both answers
        that change nothing are read before the lock is taken, the seal
        first, and checked again inside it: the lock is held only to lower.
        """
        if self.sealed or self.sstamp <= value:
            return self.sstamp <= value
        with RMW_LOCK:
            if self.sstamp > value and not self.sealed:
                self.sstamp = value
            return self.sstamp <= value

    def set_ssi_flags(self, bits: int) -> int:
        """Raise bits in ssi_flags; returns the word as it was."""
        with RMW_LOCK:
            old = self.ssi_flags
            self.ssi_flags = old | bits
            return old

    @property
    def tracked_reads(self) -> int:
        """Size of the read set; a read once tracked is never dropped."""
        return len(self.reads)


def transition_status(ctx: TransactionContext, src: Status, dst: Status) -> None:
    """Move ctx along a legal lifecycle edge with a plain store (rule 3).

    The engine makes every transition, on the caller's own context, so
    nothing changes the status between the check and the store.
    """
    if dst not in _SUCCESSORS[src]:
        raise IllegalTransition("illegal status edge %s -> %s" % (src.name, dst.name))
    if ctx.status != src:
        raise IllegalTransition(
            "status of %d is %s, expected %s" % (ctx.tid, ctx.status.name, src.name))
    ctx.status = dst


# settle's answer for a peer with no verdict that bears on the caller: one in
# flight, or one whose stamp is at or above the caller's bound.  It is below
# every commit stamp, so ``settle(...) > 0`` reads "committed below the bound".
PENDING = -1


def settle(peer: TransactionContext, before: int) -> int:
    """Peer's verdict as far as it bears on commit stamps below before.

    Returns peer's commit stamp when it committed below before, 0 when it
    aborted, and PENDING when it is in flight or drew a stamp at or above
    before.  It waits (rule 6) only on a peer that holds a stamp below
    before, or has entered COMMITTING and is about to draw one.
    """
    if peer.status == INFLIGHT:
        return PENDING
    # A peer that aborted before drawing a stamp never fills cstamp in.
    spin_until(lambda: peer.cstamp or peer.status == ABORTED,
               "peer %d commit stamp" % peer.tid)
    cstamp = peer.cstamp
    if 0 < cstamp < before:
        spin_until(lambda: peer.status != COMMITTING,
                   "peer %d verdict" % peer.tid)
    if peer.status == ABORTED:
        return 0
    return cstamp if cstamp < before else PENDING


class TransactionTable:
    """Thread-indexed registry of in-flight transactions.

    Two flat lists indexed by slot: current holds each slot's transaction
    (None when the slot is free), last_cstamps the largest commit stamp the
    slot has recorded.  Slot i's items are written only by worker i
    (rule 3); any thread may read any slot.  A transaction id encodes its
    slot in the low bits, so lookups by tid can detect that the slot has
    moved on to a newer transaction.  top is one past the highest slot ever
    published: table walks stop there.
    """

    def __init__(self):
        self.current = [None] * MAX_WORKERS
        self.last_cstamps = [0] * MAX_WORKERS
        self.top = 0
        self._tid_seq = itertools.count(1)

    def allocate_tid(self, slot: int) -> int:
        # An atomic fetch-and-add without the lock (rule 4).
        return next(self._tid_seq) << 6 | slot

    def publish(self, slot: int, ctx: TransactionContext) -> None:
        if self.current[slot] is not None:
            raise UsageError("worker slot %d already occupied" % slot)
        if slot >= self.top:
            with RMW_LOCK:
                self.top = max(self.top, slot + 1)
        self.current[slot] = ctx

    def peer_reads(self, skip: int, plain_inflight: bool) -> list:
        """(slot, read set) of each current transaction outside slot skip;
        plain_inflight=False leaves out in-flight peers that are not
        read-mostly.  This is the one walk of the table."""
        found = []
        current = self.current
        for slot in range(self.top):
            peer = current[slot]
            if peer is None or slot == skip or not (
                    plain_inflight or peer.read_mostly
                    or peer.status != INFLIGHT):
                continue
            found.append((slot, peer.reads))
        return found

    def reader_slots(self, version, plain_inflight: bool = True) -> int:
        """Bitmap of the slots whose current transaction tracks version."""
        bits = 0
        for slot, reads in self.peer_reads(-1, plain_inflight):
            if version in reads:
                bits |= 1 << slot
        return bits

    def clear(self, slot: int) -> None:
        self.current[slot] = None

    def get(self, tid: int) -> TransactionContext | None:
        """Context for tid, or None if that transaction has concluded."""
        ctx = self.current[tid & SLOT_MASK]
        if ctx is not None and ctx.tid == tid:
            return ctx
        return None

    def record_commit_stamp(self, slot: int, cstamp: int) -> None:
        if cstamp > self.last_cstamps[slot]:
            self.last_cstamps[slot] = cstamp

    def last_cstamp(self, slot: int) -> int:
        return self.last_cstamps[slot]

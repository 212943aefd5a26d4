"""Timestamps, stamp words, transaction contexts, and the worker-slot table.

Everything here is shared, mutable state touched by up to 64 worker threads.
The concurrency contract is deliberately narrow: under CPython the GIL makes
single-attribute loads and stores atomic, and one module-wide lock, RMW_LOCK,
serializes every read-modify-write cycle of a cross-thread word; all waiting
is bounded spinning.  Shared words are plain slots of the object that owns
them: a transaction's status, cstamp and sstamp here, a version's stamps and
reader bits in store.py.  Their read-modify-writes are methods of that owner
that run under RMW_LOCK (the status compare-and-swap, the sstamp min-fold,
the seal and the handshake's sstamp compare-and-swap for a transaction).
AtomicCells (plain load/store plus locked fetch-add, fetch-or,
compare-and-swap) remain only where a word stands alone: each record, which
is the cell holding the newest version of its chain, the table pstamp, the
clock, the tid sequence and the SSI inbound flags.  The lock is not
reentrant, so no read-modify-write may run another while it holds the lock.
Every wait for a peer's pre-commit verdict goes through one function,
settle, which waits only on a peer that holds a smaller commit stamp.

Stamp words are 64-bit integers with a fixed layout:

    bit 63        lock flag (used only to seal a transaction's sstamp)
    bit 62        tag: 1 = transaction id, 0 = timestamp
    bits 0..61    value

Timestamp value 0 is reserved as "invalid"; the global clock never issues it.
The +infinity sentinel used for successor stamps is the largest representable
timestamp value, which preserves min() semantics without special cases.
A timestamp word is its value, and a transaction id's word is
``TID_TAG | tid``.  The operation path tests ``word & TID_TAG`` and masks
with ``VALUE_MASK`` inline; three helpers serve the cold paths and the
tests: is_tid, is_locked and word_value.
"""

from __future__ import annotations

import threading
import time
from enum import Enum, IntEnum

VALUE_BITS = 62
VALUE_MASK = (1 << VALUE_BITS) - 1
TID_TAG = 1 << 62
LOCK_BIT = 1 << 63
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
    safe_snapshot, user.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def is_tid(word: int) -> bool:
    return bool(word & TID_TAG)


def is_locked(word: int) -> bool:
    return bool(word & LOCK_BIT)


def word_value(word: int) -> int:
    return word & VALUE_MASK


# One lock for every read-modify-write, of cells and plain words alike:
# under the GIL it gives the same atomicity as a lock per word, without
# building one for each.  Not reentrant.
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
        """Lower the cell to value if smaller; returns the new content.

        Only the owning thread folds its own sstamp, and only before sealing,
        so a locked word must never show up here.
        """
        with RMW_LOCK:
            assert not is_locked(self._value)
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
    """Strictly increasing timestamp source backed by one fetch-and-add."""

    __slots__ = ("_cell",)

    def __init__(self):
        self._cell = AtomicCell(0)

    def next(self) -> int:
        value = self._cell.fetch_add(1) + 1
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


# Enum members are slow to look up as class attributes on CPython 3.11; the
# hot paths of every module compare against these constants instead.
INFLIGHT, COMMITTING, COMMITTED, ABORTED = (
    Status.INFLIGHT, Status.COMMITTING, Status.COMMITTED, Status.ABORTED)


_LEGAL_EDGES = {
    (Status.INFLIGHT, Status.COMMITTING),
    (Status.COMMITTING, Status.COMMITTED),
    (Status.COMMITTING, Status.ABORTED),
    (Status.INFLIGHT, Status.ABORTED),
}


class Scheme(Enum):
    SI = "si"
    RC = "rc"


class TableMode(Enum):
    """Declared table-granularity access modes: a scan (R) raises the table
    pstamp at commit, a table update or insert (W) folds it in."""

    R = "r"
    W = "w"


class TransactionContext:
    """Per-transaction state, owned by one worker thread.

    Peers may read status, cstamp and sstamp, and may compare-and-swap
    sstamp (the read-mostly handshake); everything else is private.  The
    three shared words are plain slots whose read-modify-writes are the
    methods below, under RMW_LOCK; cstamp is only ever stored.  writes is
    the engine's write set, an insertion-ordered dict from each installed
    version to its record; reads is the certifier's read set (the bare
    scheme keeps none), an insertion-ordered dict used as a set.  ssi holds
    the SSI certifier's flags, whose inbound cell peers may set.
    """

    __slots__ = (
        "tid", "slot", "scheme", "read_only", "read_mostly", "snapshot_mode",
        "status", "cstamp", "pstamp", "sstamp", "begin_stamp", "start_stamp",
        "reads", "writes", "table_modes", "ssi", "untracked_reads",
        "observed_violation",
    )

    def __init__(self, tid: int, slot: int, scheme: Scheme, *,
                 read_only: bool = False, read_mostly: bool = False,
                 begin_stamp: int = 0, start_stamp: int = 0):
        self.tid = tid
        self.slot = slot
        self.scheme = scheme
        self.read_only = read_only
        self.read_mostly = read_mostly
        self.snapshot_mode = False
        self.status = Status.INFLIGHT
        self.cstamp = 0
        self.pstamp = 0
        self.sstamp = INFINITY
        self.begin_stamp = begin_stamp
        self.start_stamp = start_stamp
        self.reads = {}
        self.writes = {}
        self.table_modes = set()
        self.ssi = None
        self.untracked_reads = 0
        self.observed_violation = False

    def swap_status(self, expected: Status, new: Status) -> bool:
        with RMW_LOCK:
            if self.status == expected:
                self.status = new
                return True
            return False

    def fold_sstamp(self, value: int) -> int:
        """Lower sstamp to value if smaller; returns the new content.

        Only the owning thread folds its own sstamp, and only before sealing,
        so a locked word must never show up here.
        """
        with RMW_LOCK:
            assert not is_locked(self.sstamp)
            if value < self.sstamp:
                self.sstamp = value
            return self.sstamp

    def seal_sstamp(self) -> None:
        """Set the lock bit; from then on no handshake can lower sstamp."""
        with RMW_LOCK:
            self.sstamp |= LOCK_BIT

    def swap_sstamp(self, expected: int, new: int) -> bool:
        """Compare-and-swap of sstamp, for a peer's handshake."""
        with RMW_LOCK:
            if self.sstamp == expected:
                self.sstamp = new
                return True
            return False

    @property
    def tracked_reads(self) -> int:
        """Size of the read set; a read once tracked is never dropped."""
        return len(self.reads)


def transition_status(ctx: TransactionContext, src: Status, dst: Status) -> None:
    """Atomically move ctx along a legal lifecycle edge."""
    if (src, dst) not in _LEGAL_EDGES:
        raise IllegalTransition("illegal status edge %s -> %s" % (src.name, dst.name))
    if not ctx.swap_status(src, dst):
        raise IllegalTransition(
            "status of %d is %s, expected %s" % (ctx.tid, ctx.status.name, src.name))


# settle's answer for a peer with no verdict that bears on the caller: one in
# flight, or one whose stamp is at or above the caller's bound.  It is below
# every commit stamp, so ``settle(...) > 0`` reads "committed below the bound".
PENDING = -1


def settle(peer: TransactionContext, before: int) -> int:
    """Peer's verdict as far as it bears on commit stamps below before.

    Returns peer's commit stamp when it committed below before, 0 when it
    aborted, and PENDING when it is in flight or drew a stamp at or above
    before.  This is the one place where a transaction waits out a peer's
    pre-commit, and it waits only on a peer that already holds a stamp below
    before (or has entered COMMITTING and is about to draw one).  Entering
    COMMITTING strictly before drawing the stamp makes that sound: a peer
    seen in flight draws a stamp later than any the caller already holds,
    so no two transactions wait on each other.
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


class _Slot:
    __slots__ = ("current", "last_cstamp")

    def __init__(self):
        self.current = None
        self.last_cstamp = 0


class TransactionTable:
    """Thread-indexed registry of in-flight transactions.

    Slot i is written only by worker i; any thread may read any slot.  A
    transaction id encodes its slot in the low bits, so lookups by tid can
    detect that the slot has moved on to a newer transaction.
    """

    def __init__(self):
        self.slots = [_Slot() for _ in range(MAX_WORKERS)]
        self._tid_seq = AtomicCell(0)

    def allocate_tid(self, slot: int) -> int:
        seq = self._tid_seq.fetch_add(1) + 1
        return (seq << 6) | slot

    def publish(self, slot: int, ctx: TransactionContext) -> None:
        entry = self.slots[slot]
        if entry.current is not None:
            raise UsageError("worker slot %d already occupied" % slot)
        entry.current = ctx

    def clear(self, slot: int) -> None:
        self.slots[slot].current = None

    def get(self, tid: int) -> TransactionContext | None:
        """Context for tid, or None if that transaction has concluded."""
        ctx = self.slots[tid & SLOT_MASK].current
        if ctx is not None and ctx.tid == tid:
            return ctx
        return None

    def record_commit_stamp(self, slot: int, cstamp: int) -> None:
        entry = self.slots[slot]
        if cstamp > entry.last_cstamp:
            entry.last_cstamp = cstamp

    def last_cstamp(self, slot: int) -> int:
        return self.slots[slot].last_cstamp

import importlib
import pkgutil
import random
import sys
import threading
import tracemalloc

import pytest

import mvcert
from mvcert import kernel
from mvcert.kernel import (
    INFINITY, PENDING, TID_TAG, VALUE_MASK, AtomicCell, GlobalClock,
    IllegalTransition, Scheme, Status, TransactionContext, TransactionTable,
    UsageError, is_tid, settle, spin_until,
    transition_status, word_value,
)
from mvcert.bench import ClientGroup, WorkloadConfig, run_bench
from mvcert.certifier import overwriter_outcome
from mvcert.schedulers import CertifierMode, Engine
from mvcert.store import Store, VersionMeta
from mvcert.trace import TraceLog


class TestStampWords:
    def test_timestamp_words_are_plain_values(self):
        assert not is_tid(41)

    def test_tid_words_carry_the_tag(self):
        word = TID_TAG | 129
        assert is_tid(word)
        assert word_value(word) == 129

    def test_infinity_is_the_largest_timestamp(self):
        assert INFINITY == VALUE_MASK
        assert not is_tid(INFINITY)
        assert min(INFINITY, 5) == 5

    def test_tag_and_lock_bits_do_not_collide_with_values(self):
        assert TID_TAG > VALUE_MASK


class TestAtomicCell:
    def test_rmw_primitives(self):
        cell = AtomicCell(10)
        assert cell.fetch_add(5) == 10
        assert cell.load() == 15
        assert cell.fetch_or(1 << 8) == 15
        assert cell.load() == 15 | 256
        cell.store(4)
        assert cell.compare_and_swap(4, 9)
        assert not cell.compare_and_swap(4, 11)
        assert cell.load() == 9

    def test_fold_min_and_max(self):
        cell = AtomicCell(INFINITY)
        assert cell.fold_min(50) == 50
        assert cell.fold_min(80) == 50
        top = AtomicCell(0)
        assert top.fold_max(3) == 3
        assert top.fold_max(2) == 3

    def test_concurrent_fetch_add_loses_nothing(self):
        cell = AtomicCell(0)

        def bump():
            for _ in range(20_000):
                cell.fetch_add(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cell.load() == 80_000

    def test_concurrent_cas_increments_over_shared_cells_are_exact(self):
        # Every cell shares one lock; a retry loop of compare-and-swap
        # increments must still lose nothing on any of them.
        cells = [AtomicCell(0) for _ in range(16)]

        def bump(seed):
            rng = random.Random(seed)
            for _ in range(20_000):
                cell = cells[rng.randrange(16)]
                while True:
                    old = cell.load()
                    if cell.compare_and_swap(old, old + 1):
                        break

        threads = [threading.Thread(target=bump, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = [0] * 16
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(20_000):
                expected[rng.randrange(16)] += 1
        assert [cell.load() for cell in cells] == expected

    def test_versions_carry_no_per_cell_lock(self):
        # A flat version takes about 88 B; a cell per stamp word cost
        # 264 B, a lock per cell about 650 B.
        word = TID_TAG | 65
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            head = None
            for _ in range(10_000):
                head = VersionMeta(65, word, head, None, 0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert head is not None
        assert not any(isinstance(getattr(head, name), AtomicCell)
                       for name in VersionMeta.__slots__)
        assert retained / 10_000 <= 100

    def test_records_stay_small(self):
        # A record is its initial version (96 B), whose key is an int
        # (28 B), and the list slot that holds it (8 B): tracemalloc
        # measured 136 B per record.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = Store(10_000, TransactionTable())
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store.records) == 10_000
        assert retained / 10_000 <= 136


class _RecordingLock:
    """Stands in for the shared RMW lock: records each acquisition.

    probe reads the state the read-modify-write under test may change; it
    is sampled on entry and on exit, so the test can tell that the update
    happened inside the lock.  Re-entry fails, as it would deadlock the
    real, non-reentrant lock.
    """

    def __init__(self, probe):
        self.probe = probe
        self.seen = []
        self.held = False

    def __enter__(self):
        assert not self.held, "a read-modify-write re-entered the lock"
        self.held = True
        self.seen.append(self.probe())

    def __exit__(self, *exc):
        self.seen.append(self.probe())
        self.held = False


def _replace_shared_lock(monkeypatch, probe):
    """Put a _RecordingLock in place of RMW_LOCK in every mvcert module."""
    shared, lock = kernel.RMW_LOCK, _RecordingLock(probe)
    for module in _mvcert_modules():
        for attr, value in list(vars(module).items()):
            if value is shared:
                monkeypatch.setattr(module, attr, lock)
    return lock


def _version():
    return VersionMeta(65, TID_TAG | 65, None, None, 0)


def _version_words(version):
    return version.cstamp, version.pstamp, version.sstamp, version.readers


def _ctx():
    return TransactionContext(65, 1, Scheme.SI)


def _read_mostly_ctx():
    return TransactionContext(65, 1, Scheme.SI, read_mostly=True)


def _ssi_ctx():
    ctx = _ctx()
    ctx.ssi_flags = 0
    return ctx


def _ctx_words(ctx):
    return ctx.status, ctx.cstamp, ctx.sstamp, ctx.sealed


def _head_words(store):
    return [_version_words(head) for head in store.records]


def _writer():
    # A writer about to overwrite record 0, and that record's head.
    store = Store(2, TransactionTable())
    return store, _ctx(), store.records[0]


def _aborted_writer():
    store, ctx, head = _writer()
    ctx.writes[store.install_version(ctx, head, None)] = None
    ctx.status = Status.ABORTED
    return store, ctx, head


def _head_and_claim(t):
    store, _, head = t
    return store.records[0], head.sstamp


def _committed_reader():
    # A committed transaction that tracked a read of both heads.
    store = Store(2, TransactionTable())
    ctx = _ctx()
    for head in store.records:
        ctx.reads[head] = None
    ctx.status, ctx.cstamp, ctx.sstamp = Status.COMMITTED, 3, 3
    return store, ctx


# name: (make target, run the read-modify-write, probe its state)
READ_MODIFY_WRITES = {
    "AtomicCell.compare_and_swap": (
        lambda: AtomicCell(0), lambda c: c.compare_and_swap(0, 1),
        AtomicCell.load),
    "AtomicCell.fetch_add": (
        lambda: AtomicCell(0), lambda c: c.fetch_add(1), AtomicCell.load),
    "AtomicCell.fetch_or": (
        lambda: AtomicCell(0), lambda c: c.fetch_or(2), AtomicCell.load),
    "AtomicCell.fetch_and": (
        lambda: AtomicCell(3), lambda c: c.fetch_and(1), AtomicCell.load),
    "AtomicCell.fold_min": (
        lambda: AtomicCell(INFINITY), lambda c: c.fold_min(5),
        AtomicCell.load),
    "AtomicCell.fold_max": (
        lambda: AtomicCell(0), lambda c: c.fold_max(5), AtomicCell.load),
    # Peers write only a read-mostly transaction's sstamp (the handshake),
    # so only its owner's fold needs the lock.
    "TransactionContext.fold_sstamp": (
        _read_mostly_ctx, lambda c: c.fold_sstamp(5), _ctx_words),
    "TransactionContext.seal_sstamp": (
        _ctx, lambda c: c.seal_sstamp(), _ctx_words),
    "TransactionContext.push_sstamp": (
        _ctx, lambda c: c.push_sstamp(5), _ctx_words),
    # Peers raise the SSI inbound flag, and the owner the decided flag.
    "TransactionContext.set_ssi_flags": (
        _ssi_ctx, lambda c: c.set_ssi_flags(1), lambda c: c.ssi_flags),
    # The store's reader-bit and pstamp updates take the lock themselves;
    # finalize_commit takes it once for the whole read set.
    "Store.register_reader": (
        lambda: Store(2, TransactionTable()),
        lambda s: s.register_reader(s.records[0], 2),
        _head_words),
    "Store.finalize_commit": (
        _committed_reader, lambda t: t[0].finalize_commit(t[1]),
        lambda t: _head_words(t[0])),
    # An append and its claim, or an unlink and the claim's restore, happen
    # in one hold of the lock.
    "Store.install_version": (
        _writer, lambda t: t[0].install_version(t[1], t[0].records[0], None),
        _head_and_claim),
    "Store.rollback": (
        _aborted_writer, lambda t: t[0].rollback(t[1]), _head_and_claim),
    # Publishing into a slot above the high-water mark raises it.
    "TransactionTable.publish": (
        TransactionTable, lambda t: t.publish(3, _ctx()),
        lambda t: t.top),
}


def _mvcert_modules():
    return [importlib.import_module("mvcert." + info.name)
            for info in pkgutil.iter_modules(mvcert.__path__)]


class TestLockDiscipline:
    def test_the_shared_lock_is_the_only_module_lock(self):
        lock_type = type(threading.Lock())
        for module in _mvcert_modules():
            for name, value in vars(module).items():
                if isinstance(value, lock_type):
                    assert value is kernel.RMW_LOCK, \
                        "%s.%s is a second lock" % (module.__name__, name)

    def test_every_read_modify_write_is_listed(self):
        # Every method of the classes that own shared words, apart from
        # these, changes a shared word.  The Store and TransactionTable
        # entries are listed by hand: most of their methods change no
        # shared word or reach theirs through the others.
        plain = {"load", "store", "committed_stamp"}
        defined = {"%s.%s" % (cls.__name__, name)
                   for cls in (AtomicCell, VersionMeta, TransactionContext)
                   for name, value in vars(cls).items()
                   if callable(value) and not name.startswith("__")
                   and name not in plain}
        assert defined == {name for name in READ_MODIFY_WRITES
                           if not name.startswith(("Store.",
                                                   "TransactionTable."))}

    @pytest.mark.parametrize("name", sorted(READ_MODIFY_WRITES))
    def test_read_modify_write_runs_under_the_shared_lock(
            self, monkeypatch, name):
        make, run, probe = READ_MODIFY_WRITES[name]
        target = make()
        lock = _replace_shared_lock(monkeypatch, lambda: probe(target))
        before = probe(target)
        run(target)
        after = probe(target)
        assert before != after
        assert lock.seen == [before, after], \
            "%s changed its word outside the shared lock" % name

    def test_a_plain_owner_folds_its_sstamp_without_the_lock(
            self, monkeypatch):
        ctx = _ctx()
        lock = _replace_shared_lock(monkeypatch, lambda: _ctx_words(ctx))
        assert ctx.fold_sstamp(5) == 5
        assert ctx.fold_sstamp(9) == 5
        assert ctx.sstamp == 5 and lock.seen == []

    # push_sstamp(5), the handshake, from each state: (sealed, sstamp
    # before, answer, sstamp after, holds of the lock).
    @pytest.mark.parametrize("sealed, start, answer, end, holds", [
        (False, 9, True, 5, 1),
        (False, 5, True, 5, 0),
        (False, 3, True, 3, 0),
        (True, 9, False, 9, 0),
        (True, 5, True, 5, 0),
        (True, 3, True, 3, 0),
    ])
    def test_a_push_holds_the_lock_only_to_lower(
            self, monkeypatch, sealed, start, answer, end, holds):
        ctx = _read_mostly_ctx()
        ctx.sstamp, ctx.sealed = start, sealed
        lock = _replace_shared_lock(monkeypatch, lambda: _ctx_words(ctx))
        assert ctx.push_sstamp(5) is answer
        assert ctx.sstamp == end and ctx.sealed is sealed
        assert len(lock.seen) == 2 * holds

    def test_a_snapshot_is_published_in_the_hold_that_draws_it(
            self, monkeypatch):
        clock = GlobalClock()
        clock.next()
        lock = _replace_shared_lock(
            monkeypatch, lambda: (clock.current(), clock.snapshot))
        assert clock.draw_snapshot() == 2
        assert lock.seen == [(1, 0), (2, 2)]

    def test_an_owner_moves_its_status_without_the_lock(self, monkeypatch):
        # Only the owner writes its status, so each move is a plain store.
        committer, aborter = _ctx(), _ctx()
        lock = _replace_shared_lock(
            monkeypatch, lambda: (committer.status, aborter.status))
        transition_status(committer, Status.INFLIGHT, Status.COMMITTING)
        transition_status(committer, Status.COMMITTING, Status.COMMITTED)
        transition_status(aborter, Status.INFLIGHT, Status.ABORTED)
        assert committer.status == Status.COMMITTED
        assert aborter.status == Status.ABORTED and lock.seen == []

    # Holds of the shared lock in a seeded lone-worker run of 200 commits:
    # per commit, the clock draw and three appends, plus SSN's pstamp raise
    # over the read set (4 and 5); the tid draw takes no lock; publish
    # raises the table's top once.
    @pytest.mark.parametrize("certifier, holds", [
        (CertifierMode.NONE, 4 * 200 + 1), (CertifierMode.SSN, 5 * 200 + 1)])
    def test_lock_holds_of_a_lone_worker_run(self, monkeypatch, certifier,
                                              holds):
        lock = _replace_shared_lock(monkeypatch, lambda: None)
        stats, _ = run_bench(WorkloadConfig(
            db_size=1000, groups=[ClientGroup(1, 8, 12, 3)],
            txns_per_thread=200, seed=1, certifier=certifier))
        assert stats.committed == 200 and stats.total_aborts == 0
        assert len(lock.seen) // 2 == holds


class TestGlobalClock:
    def test_first_draw_is_one(self):
        clock = GlobalClock()
        assert clock.current() == 0
        assert clock.next() == 1

    def test_sequential_draws_count_up(self):
        clock = GlobalClock()
        assert [clock.next() for _ in range(1000)] == list(range(1, 1001))

    def test_concurrent_draws_unique_and_monotonic_per_thread(self):
        clock = GlobalClock()
        draws = [[] for _ in range(8)]

        def worker(bucket):
            for _ in range(100_000):
                bucket.append(clock.next())

        threads = [threading.Thread(target=worker, args=(draws[i],))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = [stamp for bucket in draws for stamp in bucket]
        assert len(merged) == len(set(merged)) == 800_000
        assert 0 not in merged
        for bucket in draws:
            assert bucket == sorted(bucket)


def test_concurrent_trace_emitters_log_in_real_time_order():
    """The shared log keeps rows whole and in the order they were emitted.

    Each thread's rows keep its own emit order, and a row emitted after an
    Event that another thread set once its own row was in comes after that
    row.  The tids' low bits are not the thread: the log must not derive
    the thread from them.
    """
    trace = TraceLog()
    emits, middle = 20_000, 10_000
    handed_over = threading.Event()
    waited = []

    def emit(thread):
        for count in range(emits):
            if thread == 1 and count == middle:
                waited.append(handed_over.wait(timeout=60))
            trace.begin(thread << 20 | count, thread)
            if thread == 0 and count == middle:
                handed_over.set()

    threads = [threading.Thread(target=emit, args=(thread,))
               for thread in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert waited == [True]
    events = list(trace.merged())
    assert len(events) == 4 * emits
    assert [event.seq for event in events] == list(range(4 * emits))
    for thread in range(4):
        assert [event.tid for event in events if event.thread == thread] == [
            thread << 20 | count for count in range(emits)]
    row = {event.tid: event.seq for event in events}
    assert row[0 << 20 | middle] < row[1 << 20 | middle]


class TestStatusMachine:
    def _ctx(self):
        return TransactionContext(65, 1, Scheme.SI)

    def test_initial_values_match_the_contract(self):
        ctx = self._ctx()
        assert ctx.status == Status.INFLIGHT
        assert ctx.cstamp == 0
        assert ctx.pstamp == 0
        assert ctx.sstamp == INFINITY
        assert not ctx.reads and not ctx.writes

    def test_legal_path_to_committed(self):
        ctx = self._ctx()
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        transition_status(ctx, Status.COMMITTING, Status.COMMITTED)
        assert ctx.status == Status.COMMITTED

    def test_early_abort_edge(self):
        ctx = self._ctx()
        transition_status(ctx, Status.INFLIGHT, Status.ABORTED)
        assert ctx.status == Status.ABORTED

    def test_committed_to_aborted_is_illegal(self):
        ctx = self._ctx()
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        transition_status(ctx, Status.COMMITTING, Status.COMMITTED)
        with pytest.raises(IllegalTransition):
            transition_status(ctx, Status.COMMITTED, Status.ABORTED)

    def test_stale_source_is_rejected(self):
        ctx = self._ctx()
        with pytest.raises(IllegalTransition):
            transition_status(ctx, Status.COMMITTING, Status.COMMITTED)

    def test_observer_sees_stamp_after_status_changes(self):
        # Entering the committing status strictly precedes the stamp draw,
        # so any observer that saw a non-inflight status eventually reads a
        # non-zero commit stamp.
        ctx = self._ctx()
        clock = GlobalClock()
        seen = []

        def observer():
            spin_until(lambda: ctx.status != Status.INFLIGHT, "status")
            spin_until(lambda: ctx.cstamp != 0, "cstamp")
            seen.append(ctx.cstamp)

        watcher = threading.Thread(target=observer)
        watcher.start()
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        ctx.cstamp = clock.next()
        watcher.join()
        assert seen == [1]


class TestTransactionTable:
    def test_concurrent_tid_draws_are_unique_and_keep_the_slot(self):
        table = TransactionTable()
        draws = [[] for _ in range(8)]

        def worker(slot):
            bucket = draws[slot]
            for _ in range(50_000):
                bucket.append(table.allocate_tid(slot))

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        merged = [tid for bucket in draws for tid in bucket]
        assert len(merged) == len(set(merged)) == 400_000
        # The sequence above the slot bits hands out 1..400,000 once each.
        assert sorted(tid >> 6 for tid in merged) == list(range(1, 400_001))
        for slot, bucket in enumerate(draws):
            assert all(tid & 63 == slot for tid in bucket)

    def test_publish_and_lookup(self):
        table = TransactionTable()
        tid = table.allocate_tid(3)
        assert tid & 63 == 3
        ctx = TransactionContext(tid, 3, Scheme.RC)
        table.publish(3, ctx)
        assert table.get(tid) is ctx

    def test_busy_slot_is_a_usage_error(self):
        table = TransactionTable()
        ctx = TransactionContext(table.allocate_tid(0), 0, Scheme.SI)
        table.publish(0, ctx)
        with pytest.raises(UsageError):
            table.publish(0, TransactionContext(table.allocate_tid(0), 0, Scheme.SI))

    def test_stale_tid_lookup_misses(self):
        table = TransactionTable()
        old_tid = table.allocate_tid(2)
        old = TransactionContext(old_tid, 2, Scheme.SI)
        table.publish(2, old)
        table.clear(2)
        new = TransactionContext(table.allocate_tid(2), 2, Scheme.SI)
        table.publish(2, new)
        assert table.get(old_tid) is None
        assert table.get(new.tid) is new

    def test_reader_slots_walks_the_published_slots(self):
        table = TransactionTable()
        version, other = _version(), _version()
        assert table.top == 0 and table.reader_slots(version) == 0
        for slot in (5, 2):
            ctx = TransactionContext(table.allocate_tid(slot), slot,
                                     Scheme.SI, read_mostly=slot == 2)
            ctx.reads[version] = None
            table.publish(slot, ctx)
        assert table.top == 6
        assert table.reader_slots(version) == 1 << 5 | 1 << 2
        assert table.reader_slots(other) == 0
        # Without plain in-flight peers: the read-mostly one stays, and the
        # plain one counts again once it is committing.
        assert table.reader_slots(version, False) == 1 << 2
        table.current[5].status = Status.COMMITTING
        assert table.reader_slots(version, False) == 1 << 5 | 1 << 2
        table.clear(5)
        assert table.reader_slots(version) == 1 << 2
        assert table.top == 6

    def test_peer_reads_skips_the_callers_slot(self):
        table = TransactionTable()
        contexts = {}
        for slot in (0, 3):
            ctx = contexts[slot] = TransactionContext(
                table.allocate_tid(slot), slot, Scheme.SI)
            table.publish(slot, ctx)
        assert table.peer_reads(-1, True) == [
            (0, contexts[0].reads), (3, contexts[3].reads)]
        assert table.peer_reads(3, True) == [(0, contexts[0].reads)]
        assert table.peer_reads(3, False) == []
        contexts[0].status = Status.COMMITTING
        [(slot, reads)] = table.peer_reads(3, False)
        assert slot == 0 and reads is contexts[0].reads

    def test_last_cstamp_is_monotonic(self):
        table = TransactionTable()
        table.record_commit_stamp(5, 10)
        table.record_commit_stamp(5, 7)
        assert table.last_cstamp(5) == 10
        table.record_commit_stamp(5, 12)
        assert table.last_cstamp(5) == 12


def test_spin_until_gives_up_loudly(monkeypatch):
    monkeypatch.setattr("mvcert.kernel.SPIN_LIMIT", 100)
    with pytest.raises(RuntimeError, match="spin limit"):
        spin_until(lambda: False, "a condition that never holds")


def test_stamp_resolution_waits_through_spin_until(monkeypatch):
    # A claim by a transaction that is gone from the table but never
    # settles: each resolution loop must give up through spin_until.
    monkeypatch.setattr("mvcert.kernel.SPIN_LIMIT", 100)
    engine = Engine(2, Scheme.SI, CertifierMode.SSI)
    ghost = TID_TAG | engine.table.allocate_tid(1)
    version = engine.store.records[0]
    ctx = engine.begin(0)
    orphan = VersionMeta(word_value(ghost), ghost, version, 1, 0)
    with pytest.raises(RuntimeError, match="spin limit"):
        engine.store.creation_stamp(orphan)
    version.sstamp = ghost
    with pytest.raises(RuntimeError, match="spin limit"):
        overwriter_outcome(engine.table, version, ctx)
    with pytest.raises(RuntimeError, match="spin limit"):
        engine.cert.on_read(ctx, version, 0)


class TestSettle:
    """settle(peer, before) for each state a peer can be seen in.  The spin
    limit is low, so a wait that should not happen raises at once."""

    @pytest.fixture(autouse=True)
    def short_spins(self, monkeypatch):
        monkeypatch.setattr(kernel, "SPIN_LIMIT", 100)

    @staticmethod
    def _peer(status, cstamp=0):
        peer = TransactionContext(65, 1, Scheme.SI)
        peer.status, peer.cstamp = status, cstamp
        return peer

    def test_in_flight_peer_is_pending(self):
        assert settle(self._peer(Status.INFLIGHT), 10) == PENDING

    def test_committing_peer_at_or_above_the_bound_is_pending(self):
        assert settle(self._peer(Status.COMMITTING, 10), 10) == PENDING
        assert settle(self._peer(Status.COMMITTING, 12), 10) == PENDING

    def test_committing_peer_below_the_bound_is_waited_out(self, monkeypatch):
        peer = self._peer(Status.COMMITTING, 5)
        with pytest.raises(RuntimeError, match="spin limit"):
            settle(peer, 10)
        monkeypatch.setattr(kernel, "SPIN_LIMIT", 2_000_000)
        for verdict, expected in ((Status.COMMITTED, 5), (Status.ABORTED, 0)):
            peer = self._peer(Status.COMMITTING, 5)
            timer = threading.Timer(
                0.05, lambda: setattr(peer, "status", verdict))
            timer.start()
            try:
                assert settle(peer, 10) == expected
            finally:
                timer.join(timeout=5)
            assert not timer.is_alive()

    def test_committing_peer_without_a_stamp_is_waited_for(self):
        with pytest.raises(RuntimeError, match="spin limit"):
            settle(self._peer(Status.COMMITTING), 10)

    def test_committed_peer(self):
        assert settle(self._peer(Status.COMMITTED, 5), 10) == 5
        assert settle(self._peer(Status.COMMITTED, 10), 10) == PENDING

    def test_aborted_peer_settles_to_zero(self):
        assert settle(self._peer(Status.ABORTED), 10) == 0
        assert settle(self._peer(Status.ABORTED, 5), 10) == 0
        assert settle(self._peer(Status.ABORTED, 12), 10) == 0

import gc
import sys
import tracemalloc

import pytest

import mvcert.store

from mvcert.kernel import (
    INFINITY, TID_TAG, Scheme, Status, TransactionContext, TransactionTable,
    is_tid, transition_status, word_value,
)
from mvcert.store import Store, VersionMeta, WriteConflict
from mvcert import CertifierMode, ClientGroup, Engine, WorkloadConfig, run_bench


def make_ctx(table, slot=0, scheme=Scheme.SI, begin=0):
    tid = table.allocate_tid(slot)
    ctx = TransactionContext(tid, slot, scheme, begin_stamp=begin,
                             start_stamp=begin)
    table.publish(slot, ctx)
    return ctx


def committed_version(store, key, ctx, stamp, payload):
    """Install and immediately finalize one version (test plumbing)."""
    version = store.install_version(ctx, store.records[key], payload)
    ctx.writes[version] = None
    transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
    ctx.cstamp = stamp
    ctx.fold_sstamp(stamp)
    transition_status(ctx, Status.COMMITTING, Status.COMMITTED)
    store.finalize_commit(ctx)
    store.table.clear(ctx.slot)
    return version


@pytest.fixture
def table():
    return TransactionTable()


@pytest.fixture
def store(table):
    return Store(4, table)


class TestInitialState:
    def test_every_record_has_an_invalid_initial_version(self, store):
        for head in store.records:
            assert head.payload is None
            assert head.creator_tid == 0
            assert head.cstamp == 0
            assert head.prev is None

    def test_the_list_holds_each_initial_version_itself(self, store):
        for key, head in enumerate(store.records):
            assert type(head) is VersionMeta
            assert head.key == key and head.prev is None

    def test_a_version_fits_the_96_byte_block(self):
        # The key filled the last spare word: one more slot would move
        # every version into the next size class.
        assert sys.getsizeof(VersionMeta(0, 0, None, None, 0)) <= 96

    def test_initial_version_is_visible_but_not_found_when_required(self):
        engine = Engine(4)
        ctx = engine.begin(0)
        assert engine.read(ctx, 3) is None


class TestVisibility:
    def _chain(self, store, table):
        # record 0 carries committed versions with stamps 3 and 7
        committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "v3")
        committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 7, "v7")

    def test_si_returns_newest_at_or_below_snapshot(self, store, table):
        self._chain(store, table)
        ctx = make_ctx(table, 0, Scheme.SI, begin=5)
        assert store.visible_version(ctx, store.records[0]).payload == "v3"

    def test_rc_returns_newest_committed(self, store, table):
        self._chain(store, table)
        ctx = make_ctx(table, 0, Scheme.RC)
        assert store.visible_version(ctx, store.records[0]).payload == "v7"

    def test_rc_skips_inflight_head(self, store, table):
        self._chain(store, table)
        writer = make_ctx(table, 2, Scheme.RC)
        store.install_version(writer, store.records[0], "dirty")
        reader = make_ctx(table, 0, Scheme.RC)
        assert store.visible_version(reader, store.records[0]).payload == "v7"

    def test_read_own_uncommitted_write(self, store, table):
        self._chain(store, table)
        writer = make_ctx(table, 2, Scheme.SI, begin=7)
        store.install_version(writer, store.records[0], "mine")
        assert store.visible_version(writer, store.records[0]).payload == "mine"

    def test_committed_creator_mid_postcommit_is_visible(self, store, table):
        # A creator that survived pre-commit counts as committed even while
        # its stamps are pending; readers resolve it through the table.
        committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "v3")
        writer = make_ctx(table, 2, Scheme.SI, begin=3)
        version = store.install_version(writer, store.records[0], "v9")
        writer.writes[version] = None
        transition_status(writer, Status.INFLIGHT, Status.COMMITTING)
        writer.cstamp = 9
        transition_status(writer, Status.COMMITTING, Status.COMMITTED)
        # post-commit has not run yet: cstamp still carries the tid, but the
        # stamp resolves through the creator's context
        reader = make_ctx(table, 0, Scheme.RC)
        got = store.visible_version(reader, store.records[0])
        assert got.payload == "v9"
        assert is_tid(got.cstamp)
        assert store.creation_stamp(got) == 9


class TestInstall:
    def test_si_temporal_skew_conflict(self, store, table):
        committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 7, "v7")
        writer = make_ctx(table, 0, Scheme.SI, begin=5)
        with pytest.raises(WriteConflict) as failure:
            store.install_version(writer, store.records[0], "late")
        assert failure.value.kind == "skew"

    def test_rc_overwrites_newer_committed_head(self, store, table):
        committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 7, "v7")
        writer = make_ctx(table, 0, Scheme.RC)
        version = store.install_version(writer, store.records[0], "v8")
        assert is_tid(version.cstamp)
        assert word_value(version.cstamp) == writer.tid
        assert store.records[0] is version

    def test_uncommitted_head_conflicts(self, store, table):
        first = make_ctx(table, 1, Scheme.RC)
        store.install_version(first, store.records[0], "w1")
        second = make_ctx(table, 2, Scheme.RC)
        with pytest.raises(WriteConflict) as failure:
            store.install_version(second, store.records[0], "w2")
        assert failure.value.kind == "uncommitted"

    def test_install_claims_previous_sstamp(self, store, table):
        prev = committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "v3")
        writer = make_ctx(table, 0, Scheme.RC)
        store.install_version(writer, store.records[0], "v4")
        assert prev.sstamp == TID_TAG | writer.tid

    def test_repeated_own_overwrite_replaces_payload_in_place(self, store, table):
        writer = make_ctx(table, 0, Scheme.RC)
        first = store.install_version(writer, store.records[0], "a")
        second = store.install_version(writer, store.records[0], "b")
        assert second is first
        assert first.payload == "b"
        assert first.prev is store.records[0].prev


class TestReaders:
    def test_register_sets_the_slot_bit(self, store):
        version = store.records[0]
        store.register_reader(version, 2)
        assert version.readers == 1 << 2

    def test_register_is_idempotent_and_keeps_other_slots(self, store):
        version = store.records[0]
        store.register_reader(version, 5)
        store.register_reader(version, 5)
        store.register_reader(version, 2)
        assert version.readers == 1 << 5 | 1 << 2
        assert store.records[1].readers == 0


class TestFinalizeAndRollback:
    def test_commit_raises_read_pstamps(self, store, table):
        version = committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "x")
        version.pstamp = 4
        reader = make_ctx(table, 0, Scheme.RC)
        reader.reads[version] = None
        transition_status(reader, Status.INFLIGHT, Status.COMMITTING)
        reader.cstamp = 9
        reader.fold_sstamp(9)
        transition_status(reader, Status.COMMITTING, Status.COMMITTED)
        store.finalize_commit(reader)
        assert version.pstamp == 9

    def test_commit_finalizes_overwritten_sstamp_and_new_stamps(self, store, table):
        prev = committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "x")
        version = committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 9, "y")
        final = prev.sstamp
        assert not is_tid(final)
        assert word_value(final) == 9
        assert version.cstamp == 9
        assert version.pstamp == 9

    def test_rollback_restores_chain_and_sstamp(self, store, table):
        prev = committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "x")
        writer = make_ctx(table, 0, Scheme.RC)
        version = store.install_version(writer, store.records[0], "doomed")
        writer.writes[version] = None
        transition_status(writer, Status.INFLIGHT, Status.ABORTED)
        store.rollback(writer)
        assert store.records[0] is prev
        assert prev.sstamp == INFINITY

    def test_own_overwritten_reads_keep_their_stamps(self, store, table):
        # A version the transaction both read and overwrote is dropped from
        # stamp propagation: its access stamp dies with the overwrite.
        prev = committed_version(store, 0, make_ctx(table, 1, Scheme.RC), 3, "x")
        ctx = make_ctx(table, 0, Scheme.RC)
        ctx.reads[prev] = None
        version = store.install_version(ctx, store.records[0], "y")
        ctx.writes[version] = None
        transition_status(ctx, Status.INFLIGHT, Status.COMMITTING)
        ctx.cstamp = 8
        ctx.fold_sstamp(8)
        transition_status(ctx, Status.COMMITTING, Status.COMMITTED)
        store.finalize_commit(ctx)
        assert prev.pstamp == 3  # not raised to 8


class TestChainStress:
    def test_concurrent_chains_stay_well_formed(self):
        config = WorkloadConfig(
            db_size=20, groups=[ClientGroup(6, 4, 8, 2)],
            txns_per_thread=300, seed=11, certifier=CertifierMode.SSN,
            retry=True)
        stats, _ = run_bench(config)
        assert stats.committed == stats.offered

    def test_check_chains_after_contended_run(self):
        engine_cfg = WorkloadConfig(
            db_size=10, groups=[ClientGroup(8, 3, 6, 2)],
            txns_per_thread=200, seed=5, certifier=CertifierMode.NONE,
            retry=False)
        stats, _ = run_bench(engine_cfg)
        assert stats.committed + stats.total_aborts == stats.offered


def test_store_chain_validator_detects_health():
    engine = Engine(8, Scheme.SI, CertifierMode.SSN)
    for round_ in range(5):
        ctx = engine.begin(0)
        engine.write(ctx, round_ % 8)
        engine.commit(ctx)
    engine.store.check_chains()


def test_store_chain_validator_detects_out_of_order_stamps():
    engine = Engine(2, Scheme.SI, CertifierMode.SSN)
    ctx = engine.begin(0)
    engine.write(ctx, 1)
    engine.commit(ctx)
    engine.store.records[1].cstamp = 0   # ties the initial version
    with pytest.raises(AssertionError,
                       match="record 1 chain stamps not strictly increasing"):
        engine.store.check_chains()


def test_store_chain_validator_detects_a_version_of_another_key():
    engine = Engine(3, Scheme.SI, CertifierMode.SSN)
    for _ in range(2):
        ctx = engine.begin(0)
        engine.write(ctx, 1)
        engine.commit(ctx)
    engine.store.check_chains()
    engine.store.records[1].prev.key = 2   # the middle of a committed chain
    with pytest.raises(AssertionError,
                       match="record 1 chain holds a version of key 2"):
        engine.store.check_chains()


def test_store_needs_a_record():
    with pytest.raises(ValueError, match="store needs at least one record"):
        Store(0, TransactionTable())


def test_a_failed_claim_check_changes_nothing_and_frees_the_key():
    # install_version checks the claim before it changes anything, so an
    # install that fails the check leaves the head and its sstamp as they
    # were, and once the claim is gone the next writer of the key commits.
    engine = Engine(2, Scheme.SI, CertifierMode.SSN)
    head = engine.store.records[0]
    foreign = TID_TAG | 129
    head.sstamp = foreign
    writer = engine.begin(0)
    with pytest.raises(AssertionError, match="foreign overwriter tid"):
        engine.write(writer, 0)
    assert writer.status == Status.ABORTED
    assert engine.store.records[0] is head and head.sstamp == foreign
    head.sstamp = INFINITY
    successor = engine.begin(0)
    engine.write(successor, 0)
    engine.commit(successor)
    assert engine.store.records[0].prev is head
    assert head.sstamp == successor.cstamp


class TestReclamation:
    """Nothing in the engine points back up a chain, so reference counting
    alone frees it; the cyclic collector is switched off to show that."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("certifier", list(CertifierMode))
    def test_a_dropped_engine_leaves_no_cyclic_garbage(self, certifier):
        config = WorkloadConfig(
            db_size=20, groups=[ClientGroup(2, 3, 6, 2)],
            txns_per_thread=150, seed=9, certifier=certifier,
            retry=True, emit_trace=True)
        stats, events = run_bench(config)
        assert stats.committed == stats.offered and events
        del stats, events
        assert gc.collect() == 0

    def test_a_long_chain_frees_by_reference_counting(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            head = None
            for tid in range(1, 200_001):
                head = VersionMeta(tid, tid, head, None, 0)
            built = tracemalloc.get_traced_memory()[0] - before
            del head
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert built > 200_000 * 64
        assert left < 64 * 1024


class TestCollectorPause:
    """Store construction runs no collection, then promotes the new records
    to the oldest generation, and leaves the collector as it found it."""

    @pytest.fixture(autouse=True)
    def collected(self):
        gc.collect()

    def test_a_build_runs_no_collection(self, table):
        collections = []

        def hook(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            Store(5_000, table)
        finally:
            gc.callbacks.remove(hook)
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_build_leaves_the_collector_as_it_was(self, table, enabled):
        if not enabled:
            gc.disable()
        try:
            Store(100, table)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert gc.get_freeze_count() == 0

    def test_every_record_and_initial_version_is_in_the_oldest_generation(
            self, table):
        store = Store(5_000, table)
        oldest = {id(obj) for obj in gc.get_objects(generation=2)}
        assert all(id(head) in oldest for head in store.records)

    def test_a_callers_frozen_objects_stay_frozen(self, table):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            Store(100, table)
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_a_failed_build_restores_the_collector(self, table, monkeypatch):
        built = []

        def failing_version(*args):
            if len(built) == 50:
                raise MemoryError("build failed")
            built.append(None)
            return None

        monkeypatch.setattr(mvcert.store, "VersionMeta", failing_version)
        with pytest.raises(MemoryError):
            Store(100, table)
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

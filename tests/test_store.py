import gc
import tracemalloc

import pytest

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


def committed_version(store, record, ctx, stamp, payload):
    """Install and immediately finalize one version (test plumbing)."""
    version = store.install_version(ctx, record, payload)
    ctx.writes[version] = record
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
        for record in store.records:
            head = record.load()
            assert head.payload is None
            assert head.creator_tid == 0
            assert head.cstamp == 0
            assert head.prev is None

    def test_initial_version_is_visible_but_not_found_when_required(self):
        engine = Engine(4)
        ctx = engine.begin(0)
        assert engine.read(ctx, 3) is None


class TestVisibility:
    def _chain(self, store, table):
        # record 0 carries committed versions with stamps 3 and 7
        record = store.records[0]
        committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "v3")
        committed_version(store, record, make_ctx(table, 1, Scheme.RC), 7, "v7")
        return record

    def test_si_returns_newest_at_or_below_snapshot(self, store, table):
        record = self._chain(store, table)
        ctx = make_ctx(table, 0, Scheme.SI, begin=5)
        assert store.visible_version(ctx, record).payload == "v3"

    def test_rc_returns_newest_committed(self, store, table):
        record = self._chain(store, table)
        ctx = make_ctx(table, 0, Scheme.RC)
        assert store.visible_version(ctx, record).payload == "v7"

    def test_rc_skips_inflight_head(self, store, table):
        record = self._chain(store, table)
        writer = make_ctx(table, 2, Scheme.RC)
        store.install_version(writer, record, "dirty")
        reader = make_ctx(table, 0, Scheme.RC)
        assert store.visible_version(reader, record).payload == "v7"

    def test_read_own_uncommitted_write(self, store, table):
        record = self._chain(store, table)
        writer = make_ctx(table, 2, Scheme.SI, begin=7)
        store.install_version(writer, record, "mine")
        assert store.visible_version(writer, record).payload == "mine"

    def test_committed_creator_mid_postcommit_is_visible(self, store, table):
        # A creator that survived pre-commit counts as committed even while
        # its stamps are pending; readers resolve it through the table.
        record = store.records[0]
        committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "v3")
        writer = make_ctx(table, 2, Scheme.SI, begin=3)
        version = store.install_version(writer, record, "v9")
        writer.writes[version] = record
        transition_status(writer, Status.INFLIGHT, Status.COMMITTING)
        writer.cstamp = 9
        transition_status(writer, Status.COMMITTING, Status.COMMITTED)
        # post-commit has not run yet: cstamp still carries the tid, but the
        # stamp resolves through the creator's context
        reader = make_ctx(table, 0, Scheme.RC)
        got = store.visible_version(reader, record)
        assert got.payload == "v9"
        assert is_tid(got.cstamp)
        assert store.creation_stamp(got) == 9


class TestInstall:
    def test_si_temporal_skew_conflict(self, store, table):
        record = store.records[0]
        committed_version(store, record, make_ctx(table, 1, Scheme.RC), 7, "v7")
        writer = make_ctx(table, 0, Scheme.SI, begin=5)
        with pytest.raises(WriteConflict) as failure:
            store.install_version(writer, record, "late")
        assert failure.value.kind == "skew"

    def test_rc_overwrites_newer_committed_head(self, store, table):
        record = store.records[0]
        committed_version(store, record, make_ctx(table, 1, Scheme.RC), 7, "v7")
        writer = make_ctx(table, 0, Scheme.RC)
        version = store.install_version(writer, record, "v8")
        assert is_tid(version.cstamp)
        assert word_value(version.cstamp) == writer.tid
        assert record.load() is version

    def test_uncommitted_head_conflicts(self, store, table):
        record = store.records[0]
        first = make_ctx(table, 1, Scheme.RC)
        store.install_version(first, record, "w1")
        second = make_ctx(table, 2, Scheme.RC)
        with pytest.raises(WriteConflict) as failure:
            store.install_version(second, record, "w2")
        assert failure.value.kind == "uncommitted"

    def test_install_claims_previous_sstamp(self, store, table):
        record = store.records[0]
        prev = committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "v3")
        writer = make_ctx(table, 0, Scheme.RC)
        store.install_version(writer, record, "v4")
        assert prev.sstamp == TID_TAG | writer.tid

    def test_repeated_own_overwrite_replaces_payload_in_place(self, store, table):
        record = store.records[0]
        writer = make_ctx(table, 0, Scheme.RC)
        first = store.install_version(writer, record, "a")
        second = store.install_version(writer, record, "b")
        assert second is first
        assert first.payload == "b"
        assert first.prev is record.load().prev


class TestReaders:
    def test_register_sets_the_slot_bit(self, store):
        version = store.records[0].load()
        store.register_reader(version, 2)
        assert version.readers == 1 << 2

    def test_register_is_idempotent_and_clear_removes(self, store):
        version = store.records[0].load()
        other = store.records[1].load()
        store.register_reader(version, 5)
        store.register_reader(version, 5)
        store.register_reader(other, 5)
        store.register_reader(other, 2)
        store.clear_readers([version, other], 5)
        assert version.readers == 0
        assert other.readers == 1 << 2


class TestFinalizeAndRollback:
    def test_commit_raises_read_pstamps(self, store, table):
        record = store.records[0]
        version = committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "x")
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
        record = store.records[0]
        prev = committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "x")
        version = committed_version(store, record, make_ctx(table, 1, Scheme.RC), 9, "y")
        final = prev.sstamp
        assert not is_tid(final)
        assert word_value(final) == 9
        assert version.cstamp == 9
        assert version.pstamp == 9

    def test_rollback_restores_chain_and_sstamp(self, store, table):
        record = store.records[0]
        prev = committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "x")
        writer = make_ctx(table, 0, Scheme.RC)
        version = store.install_version(writer, record, "doomed")
        writer.writes[version] = record
        transition_status(writer, Status.INFLIGHT, Status.ABORTED)
        store.rollback(writer)
        assert record.load() is prev
        assert prev.sstamp == INFINITY

    def test_own_overwritten_reads_keep_their_stamps(self, store, table):
        # A version the transaction both read and overwrote is dropped from
        # stamp propagation: its access stamp dies with the overwrite.
        record = store.records[0]
        prev = committed_version(store, record, make_ctx(table, 1, Scheme.RC), 3, "x")
        ctx = make_ctx(table, 0, Scheme.RC)
        ctx.reads[prev] = None
        version = store.install_version(ctx, record, "y")
        ctx.writes[version] = record
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
    engine.store.records[1].load().cstamp = 0   # ties the initial version
    with pytest.raises(AssertionError,
                       match="record 1 chain stamps not strictly increasing"):
        engine.store.check_chains()


def test_store_needs_a_record():
    with pytest.raises(ValueError, match="store needs at least one record"):
        Store(0, TransactionTable())


def test_failed_sstamp_swap_leaves_the_word():
    version = VersionMeta(0, 0, None, None)
    assert not version.swap_sstamp(TID_TAG | 65, INFINITY - 1)
    assert version.sstamp == INFINITY


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
                head = VersionMeta(tid, tid, head, None)
            built = tracemalloc.get_traced_memory()[0] - before
            del head
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert built > 200_000 * 64
        assert left < 64 * 1024

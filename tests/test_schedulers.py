"""Scheme dispatch and the two-flag dangerous-structure certifier."""

import pytest

from mvcert import (
    INFINITY, CertifierMode, ClientGroup, Engine, ExclusionCertifier, Scheme,
    TransactionAborted, UsageError, WorkloadConfig, check_trace,
    replay_scripted, run_bench,
)
from mvcert.kernel import Status, transition_status
from mvcert.store import Store
from mvcert.trace import TraceLog

SI, RC = Scheme.SI, Scheme.RC
SSI, SSN, NONE = CertifierMode.SSI, CertifierMode.SSN, CertifierMode.NONE

FIG_SCHEDULE = """
T1 read B
T3 read A
T2 write B
T2 commit
T3 read B
T1 write A
T1 commit
T3 commit
"""

WRITE_SKEW = """
T1 read X
T2 read Y
T1 write Y
T2 write X
T1 commit
T2 commit
"""


def outcomes(result):
    return {label: outcome[0] for label, outcome in result.outcomes.items()}


class TestSchemeDispatch:
    def test_rc_reads_newest_committed_without_side_effects(self):
        engine = Engine(2, RC, NONE)
        writer = engine.begin(0)
        engine.write(writer, 0, "new")
        engine.commit(writer)
        reader = engine.begin(0)
        assert engine.read(reader, 0) == "new"
        assert engine.commit(reader) > 0

    def test_si_write_over_post_snapshot_version_aborts(self):
        engine = Engine(2, SI, NONE)
        slow = engine.begin(0)
        engine.read(slow, 0)
        fast = engine.begin(1)
        engine.write(fast, 0, "winner")
        engine.commit(fast)
        with pytest.raises(TransactionAborted) as failure:
            engine.write(slow, 0, "loser")
        assert failure.value.reason == "cc_conflict"

    def test_write_over_own_version_keeps_one_chain_node(self):
        engine = Engine(2, RC, NONE)
        ctx = engine.begin(0)
        engine.write(ctx, 0, "a")
        engine.write(ctx, 0, "b")
        engine.commit(ctx)
        chain = engine.store.dump_stamps()[0]
        assert len(chain) == 2  # initial version plus one
        assert chain[-1][-1] == "b"

    def test_ssn_read_side_effects_applied_through_scheme_read(self):
        engine = Engine(2, SI, SSN)
        writer = engine.begin(0)
        engine.write(writer, 0)
        engine.commit(writer)
        reader = engine.begin(0)
        engine.read(reader, 0)
        assert reader.pstamp == writer.cstamp

    @pytest.mark.parametrize("mode", list(CertifierMode))
    def test_negative_staleness_threshold_is_refused(self, mode):
        with pytest.raises(ValueError, match="staleness threshold"):
            Engine(2, SI, mode, read_mostly_threshold=-1)

    def test_ssi_requires_si(self):
        with pytest.raises(UsageError):
            Engine(2, RC, SSI)

    def test_begin_on_busy_slot_is_a_usage_error(self):
        engine = Engine(2, RC, SSN)
        engine.begin(0)
        with pytest.raises(UsageError):
            engine.begin(0)


def _after_commit(step):
    """Run step(engine, ctx) on a transaction that already committed."""
    def run():
        engine = Engine(2, SI, SSN)
        ctx = engine.begin(0)
        engine.commit(ctx)
        step(engine, ctx)
    return run


def _write_in_snapshot_mode():
    engine = Engine(2, SI, SSN)
    engine.take_safe_snapshot()
    engine.write(engine.begin(0, read_only=True), 0)


def _scan_without_ssn():
    engine = Engine(2, SI, NONE)
    engine.scan(engine.begin(0))


@pytest.mark.parametrize("call, message", [
    (lambda: Engine(2, SI, NONE, observe=True),
     "observe mode records exclusion checks; needs ssn"),
    (_after_commit(Engine.commit), "is not in flight"),
    (_after_commit(lambda engine, ctx: engine.read(ctx, 0)),
     "is not in flight"),
    (_after_commit(lambda engine, ctx: engine.write(ctx, 0)),
     "is not in flight"),
    (_write_in_snapshot_mode, "is read-only"),
    (_scan_without_ssn, "table scans need the ssn certifier"),
    (lambda: Engine(2, SI, SSI).take_safe_snapshot(),
     "safe snapshots need the ssn certifier"),
], ids=["observe-without-ssn", "commit-after-commit", "read-after-commit",
        "write-after-commit", "write-in-snapshot-mode", "scan-without-ssn",
        "snapshot-without-ssn"])
def test_usage_errors_name_the_misuse(call, message):
    with pytest.raises(UsageError, match=message):
        call()


@pytest.mark.parametrize("misuse, message", [
    (lambda engine, ctx, query: engine.begin(-1), "slot -1 is outside 0..63"),
    (lambda engine, ctx, query: engine.begin(64), "slot 64 is outside 0..63"),
    (lambda engine, ctx, query: engine.begin(0), "slot 0 already occupied"),
    (lambda engine, ctx, query: engine.read(ctx, -1), "key -1 is negative"),
    (lambda engine, ctx, query: engine.write(ctx, -1), "key -1 is negative"),
    (lambda engine, ctx, query: engine.read(ctx, 2),
     "key 2 is past the last key 1"),
    (lambda engine, ctx, query: engine.write(ctx, 2),
     "key 2 is past the last key 1"),
    (lambda engine, ctx, query: engine.write(query, 0), "is read-only"),
], ids=["slot-below", "slot-above", "slot-busy", "read-negative-key",
        "write-negative-key", "read-key-past-the-end",
        "write-key-past-the-end", "write-read-only"])
def test_a_refused_operation_has_no_effect(misuse, message):
    """No tid drawn, no row traced, no version installed, and the
    transactions stay in flight."""
    engine = Engine(2, SI, NONE, trace=TraceLog())
    ctx = engine.begin(0)
    query = engine.begin(1, read_only=True)
    with pytest.raises(UsageError, match=message):
        misuse(engine, ctx, query)
    assert len(engine.trace.merged()) == 2
    assert engine.store.dump_stamps() == Engine(2, SI, NONE).store.dump_stamps()
    assert ctx.status == query.status == Status.INFLIGHT
    engine.commit(ctx)
    assert engine.begin(0).tid == 3 << 6


@pytest.mark.parametrize("certifier", [NONE, SSN, SSI])
def test_a_read_only_transaction_cannot_close_a_write_skew(certifier):
    engine = Engine(2, SI, certifier, trace=TraceLog())
    t1 = engine.begin(0, read_only=True)
    t2 = engine.begin(1)
    engine.read(t1, 0)
    engine.read(t2, 1)
    with pytest.raises(UsageError, match="is read-only"):
        engine.write(t1, 1)
    engine.write(t2, 0)
    assert engine.commit(t2) == 1
    engine.commit(t1)
    assert check_trace(engine.trace.merged()).clean


@pytest.mark.parametrize("serial", [False, True])
def test_scan_aborts_on_a_window_violation(serial):
    # W reads key 2 under its old snapshot, which X already overwrote, so
    # W's successor watermark is X's stamp 1; W then overwrites key 1.  S's
    # scan reads C's key 0 (stamp 2) and key 1's initial version, whose
    # committed overwriter W hands S that watermark: 1 <= 2 closes S's
    # window in the scan's own on_read.
    engine = Engine(3, SI, SSN, serial_commit=serial, trace=TraceLog())
    w = engine.begin(0)
    for slot, key in ((1, 2), (2, 0)):
        ctx = engine.begin(slot)
        engine.write(ctx, key)
        engine.commit(ctx)
    s = engine.begin(3)
    engine.read(w, 2)
    engine.write(w, 1)
    engine.commit(w)
    with pytest.raises(TransactionAborted) as failure:
        engine.scan(s)
    assert failure.value.reason == "ssn_exclusion"
    assert s.status == Status.ABORTED
    assert check_trace(engine.trace.merged()).clean


class TestSsiCertifier:
    def test_dangerous_structure_aborts_the_pivot(self):
        result = replay_scripted(FIG_SCHEDULE, SI, SSI)
        assert outcomes(result) == {
            "T1": "aborted", "T2": "committed", "T3": "committed"}
        assert result.outcomes["T1"][1] == "ssi_dangerous"

    def test_ssn_admits_what_ssi_rejects_on_the_same_schedule(self):
        admitted = replay_scripted(FIG_SCHEDULE, SI, SSN)
        rejected = replay_scripted(FIG_SCHEDULE, SI, SSI)
        ssn_aborts = sum(1 for o in admitted.outcomes.values() if o[0] == "aborted")
        ssi_aborts = sum(1 for o in rejected.outcomes.values() if o[0] == "aborted")
        assert ssn_aborts == 0 and ssi_aborts == 1

    def test_write_skew_rejected(self):
        result = replay_scripted(WRITE_SKEW, SI, SSI)
        assert outcomes(result) == {"T1": "committed", "T2": "aborted"}

    def test_outbound_only_commits(self):
        engine = Engine(2, SI, SSI)
        reader = engine.begin(0)
        engine.read(reader, 0)
        overwriter = engine.begin(1)
        engine.write(overwriter, 0)
        engine.commit(overwriter)
        engine.commit(reader)  # outbound only: no structure
        assert reader.status == Status.COMMITTED

    def test_read_only_skips_the_commit_check(self):
        # A read-only query cannot write, so nothing raises its inbound
        # flag: it commits although its out-partner committed first.
        engine = Engine(2, SI, SSI)
        query = engine.begin(0, read_only=True)
        engine.read(query, 0)
        overwriter = engine.begin(1)
        engine.write(overwriter, 0)
        engine.commit(overwriter)
        engine.commit(query)
        assert query.status == Status.COMMITTED
        assert query.ssi_partner == overwriter.cstamp < query.cstamp

    def test_late_reader_of_committed_pivot_aborts_itself(self):
        # pivot commits while the structure's tail reader is still in flight
        engine = Engine(3, SI, SSI)
        seed = engine.begin(0)
        engine.write(seed, 0, "a0")
        engine.write(seed, 1, "b0")
        engine.write(seed, 2, "c0")
        engine.commit(seed)

        tail = engine.begin(0)          # will read what the pivot overwrote
        engine.read(tail, 2)            # pin its snapshot before the pivot
        first = engine.begin(1)
        pivot = engine.begin(2)
        engine.read(pivot, 0)
        engine.write(first, 0, "a1")
        engine.commit(first)            # pivot's outbound partner commits first
        engine.write(pivot, 1, "b1")    # pivot overwrites what tail will read
        engine.commit(pivot)
        with pytest.raises(TransactionAborted) as failure:
            engine.read(tail, 1)        # reads b0 under the committed pivot
        assert failure.value.reason == "ssi_dangerous"

    def test_no_pivot_leaves_no_overwrite_mark(self):
        # T1 overwrites Y and commits with no committed outbound partner
        result = replay_scripted(WRITE_SKEW, SI, SSI)
        assert outcomes(result) == {"T1": "committed", "T2": "aborted"}
        assert result.engine.cert.pivot_overwrites == set()

    def test_ssi_runs_are_serializable_under_contention(self):
        config = WorkloadConfig(
            db_size=40, groups=[ClientGroup(6, 6, 10, 3)],
            txns_per_thread=400, seed=9, scheme=SI, certifier=SSI,
            retry=True, emit_trace=True)
        stats, events = run_bench(config)
        assert stats.committed == stats.offered
        assert check_trace(events).clean

    def test_ssi_aborts_at_least_ssn_on_the_schedule_family(self):
        for tail in ("T1 commit\nT3 commit\n", "T3 commit\nT1 commit\n"):
            base = FIG_SCHEDULE.rsplit("T1 commit", 1)[0]
            ssn = replay_scripted(base + tail, SI, SSN)
            ssi = replay_scripted(base + tail, SI, SSI)
            ssn_aborts = sum(1 for o in ssn.outcomes.values() if o[0] == "aborted")
            ssi_aborts = sum(1 for o in ssi.outcomes.values() if o[0] == "aborted")
            assert ssi_aborts >= ssn_aborts


class TestPlainSchemes:
    def test_none_leaves_no_certifier_state(self):
        # The bare scheme sets no reader bit, keeps no read set and raises
        # no access stamp.
        engine = Engine(2, SI, NONE)
        writer = engine.begin(0)
        engine.write(writer, 0, "x")
        engine.commit(writer)
        version = engine.store.records[0]
        reader = engine.begin(1)
        assert engine.read(reader, 0) == "x"
        assert version.readers == 0
        assert not reader.reads and reader.tracked_reads == 0
        assert engine.commit(reader) > version.pstamp == writer.cstamp

    def test_pure_si_write_skew_commits_and_oracle_sees_one_cycle(self):
        result = replay_scripted(WRITE_SKEW, SI, NONE)
        assert outcomes(result) == {"T1": "committed", "T2": "committed"}
        report = check_trace(result.trace)
        assert len(report.sccs) == 1
        assert len(report.sccs[0]) == 2

    def test_user_abort_rolls_back(self):
        engine = Engine(2, SI, NONE, trace=TraceLog())
        ctx = engine.begin(0)
        engine.write(ctx, 0, "gone")
        engine.abort(ctx)
        assert ctx.status == Status.ABORTED
        fresh = engine.begin(0)
        assert engine.read(fresh, 0) is None
        events = engine.trace.merged()
        assert [e.kind for e in events if e.tid == ctx.tid][-1] == "abort"


def _read_as_the_store_sees_it(engine, ctx, key):
    """engine.read, checked against the store's own answer at that point:
    the traced (creator, stamp) row is what visible_version and
    creation_stamp give, whichever way the engine found the version."""
    store = engine.store
    version = store.visible_version(ctx, store.records[key])
    own = version.creator_tid == ctx.tid
    expected = (version.creator_tid,
                0 if own else store.creation_stamp(version))
    assert engine.read(ctx, key) == version.payload
    *_, row = engine.trace.merged()
    assert (row.kind, row.tid, row.key) == ("read", ctx.tid, key)
    assert (row.ver_creator, row.ver_cstamp) == expected
    return row


def _committed(engine, writes):
    ctx = engine.begin(3)
    for key, payload in writes:
        engine.write(ctx, key, payload)
    engine.commit(ctx)
    return ctx


@pytest.mark.parametrize("scheme", [SI, RC])
class TestReadTracesWhatTheStoreSees:
    def test_committed_heads_inside_and_past_the_snapshot(self, scheme):
        engine = Engine(3, scheme, NONE, trace=TraceLog())
        first = _committed(engine, [(0, "a")])
        reader = engine.begin(0)
        assert _read_as_the_store_sees_it(engine, reader, 0).ver_cstamp \
            == first.cstamp
        assert _read_as_the_store_sees_it(engine, reader, 1).ver_creator == 0
        later = _committed(engine, [(0, "b"), (1, "c")])
        # SI keeps the snapshot's versions; RC reads the newer heads.
        expected = first if scheme is SI else later
        assert _read_as_the_store_sees_it(engine, reader, 0).ver_creator \
            == expected.tid
        _read_as_the_store_sees_it(engine, reader, 1)

    def test_own_write(self, scheme):
        engine = Engine(2, scheme, NONE, trace=TraceLog())
        _committed(engine, [(0, "a")])
        ctx = engine.begin(0)
        engine.write(ctx, 0, "mine")
        row = _read_as_the_store_sees_it(engine, ctx, 0)
        assert (row.ver_creator, row.ver_cstamp) == (ctx.tid, 0)

    def test_a_head_written_by_a_peer_in_flight(self, scheme):
        engine = Engine(2, scheme, NONE, trace=TraceLog())
        first = _committed(engine, [(0, "a")])
        peer = engine.begin(1)
        engine.write(peer, 0, "pending")
        reader = engine.begin(0)
        assert _read_as_the_store_sees_it(engine, reader, 0).ver_creator \
            == first.tid

    def test_a_head_committed_but_not_yet_finalized(self, scheme):
        engine = Engine(2, scheme, NONE, trace=TraceLog())
        _committed(engine, [(0, "a")])
        peer = engine.begin(1)
        engine.write(peer, 0, "b")
        transition_status(peer, Status.INFLIGHT, Status.COMMITTING)
        assert engine.cert.pre_commit(peer) is None
        transition_status(peer, Status.COMMITTING, Status.COMMITTED)
        reader = engine.begin(0)
        row = _read_as_the_store_sees_it(engine, reader, 0)
        assert (row.ver_creator, row.ver_cstamp) == (peer.tid, peer.cstamp)
        engine.store.finalize_commit(peer)
        engine.table.clear(peer.slot)
        assert _read_as_the_store_sees_it(engine, reader, 0) == row._replace(
            seq=row.seq + 1)

    def test_a_safe_snapshot_query(self, scheme):
        engine = Engine(2, scheme, SSN, trace=TraceLog())
        first = _committed(engine, [(0, "a")])
        engine.take_safe_snapshot()
        _committed(engine, [(0, "b")])
        query = engine.begin(0, read_only=True)
        assert query.snapshot_mode
        assert _read_as_the_store_sees_it(engine, query, 0).ver_creator \
            == first.tid
        assert _read_as_the_store_sees_it(engine, query, 1).ver_creator == 0


@pytest.mark.parametrize("certifier", [NONE, SSN, SSI])
def test_serial_commit_holds_the_engine_latch_through_pre_commit(certifier):
    engine = Engine(2, SI, certifier, serial_commit=True)
    pre_commit = engine.cert.pre_commit
    held = []

    def spy(ctx):
        held.append(engine.latch.locked())
        return pre_commit(ctx)

    engine.cert.pre_commit = spy
    ctx = engine.begin(0)
    engine.read(ctx, 0)
    engine.write(ctx, 1, "v")
    engine.commit(ctx)
    assert held == [True]
    assert not engine.latch.locked()
    assert Engine(2, SI, certifier).latch is None


class TestFailureAtomicity:
    @pytest.mark.parametrize("serial", [False, True])
    def test_error_inside_pre_commit_rolls_back_and_frees_the_slot(
            self, monkeypatch, serial):
        engine = Engine(2, SI, SSN, serial_commit=serial, trace=TraceLog())
        seed = engine.begin(0)
        engine.write(seed, 1, "old")
        engine.commit(seed)
        old = engine.store.records[1]
        read = engine.store.records[0]
        ctx = engine.begin(0)
        engine.read(ctx, 0)
        engine.write(ctx, 1, "doomed")

        def explode(self, ctx):
            raise RuntimeError("injected")

        monkeypatch.setattr(ExclusionCertifier, "certify_parallel", explode)
        with pytest.raises(RuntimeError, match="injected"):
            engine.commit(ctx)
        monkeypatch.undo()

        assert ctx.status == Status.ABORTED
        assert engine.store.records[1] is old
        assert old.sstamp == INFINITY
        assert read.readers == 0
        later = engine.begin(0)                 # the slot is free again
        engine.write(later, 1, "new")
        engine.commit(later)
        assert engine.read(engine.begin(1), 1) == "new"
        events = engine.trace.merged()
        # No abort line: the trace format has no reason for this case.
        assert [e.kind for e in events if e.tid == ctx.tid] == [
            "begin", "read", "write"]
        assert check_trace(events).clean

    @pytest.mark.parametrize("hook", ["on_read", "on_write"])
    def test_error_inside_a_forward_hook_rolls_back_and_frees_the_slot(
            self, monkeypatch, hook):
        engine = Engine(3, SI, SSN, trace=TraceLog())
        seed = engine.begin(0)
        engine.write(seed, 1, "old")
        engine.commit(seed)
        old, untouched = (engine.store.records[key] for key in (1, 2))
        ctx = engine.begin(1)
        engine.write(ctx, 1, "doomed")

        def explode(self, ctx, version, *stamp):
            raise RuntimeError("injected")

        monkeypatch.setattr(ExclusionCertifier, hook, explode)
        with pytest.raises(RuntimeError, match="injected"):
            if hook == "on_read":
                engine.read(ctx, 0)
            else:
                engine.write(ctx, 2, "doomed too")
        monkeypatch.undo()

        assert ctx.status == Status.ABORTED
        assert engine.store.records[1] is old
        assert engine.store.records[2] is untouched
        assert old.sstamp == untouched.sstamp == INFINITY
        assert engine.table.current[1] is None
        later = engine.begin(1)                 # the slot is free again
        engine.write(later, 1, "new")           # and no dead head blocks it
        engine.commit(later)
        assert engine.read(engine.begin(0), 1) == "new"
        events = engine.trace.merged()
        assert "abort" not in [e.kind for e in events if e.tid == ctx.tid]
        assert check_trace(events).clean

    def test_an_error_after_commit_fails_loudly_and_keeps_the_slot(
            self, monkeypatch):
        engine = Engine(3, SI, SSN, trace=TraceLog())
        ctx = engine.begin(0)
        engine.write(ctx, 1, "kept")

        def explode(self, ctx):
            raise RuntimeError("injected")

        monkeypatch.setattr(Store, "finalize_commit", explode)
        with pytest.raises(RuntimeError, match="injected"):
            engine.commit(ctx)
        monkeypatch.undo()

        assert ctx.status == Status.COMMITTED and ctx.cstamp > 0
        assert engine.table.current[0] is ctx
        # The version keeps its tid tag; peers resolve it through the table.
        assert engine.read(engine.begin(1), 1) == "kept"
        writer = engine.begin(2)
        with pytest.raises(TransactionAborted) as failure:
            engine.write(writer, 1, "blocked")
        assert failure.value.reason == "cc_conflict"
        with pytest.raises(UsageError, match="slot 0 already occupied"):
            engine.begin(0)
        events = engine.trace.merged()
        assert [e.kind for e in events if e.tid == ctx.tid] == [
            "begin", "write", "commit"]

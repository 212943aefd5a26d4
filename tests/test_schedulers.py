"""Scheme dispatch and the two-flag dangerous-structure certifier."""

import pytest

from mvcert import (
    INFINITY, CertifierMode, ClientGroup, Engine, ExclusionCertifier, Scheme,
    TransactionAborted, UsageError, WorkloadConfig, check_trace,
    replay_scripted, run_bench,
)
from mvcert.kernel import Status
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
    (_write_in_snapshot_mode, "snapshot queries are read-only"),
    (_scan_without_ssn, "table scans need the ssn certifier"),
    (lambda: Engine(2, SI, SSI).take_safe_snapshot(),
     "safe snapshots need the ssn certifier"),
], ids=["observe-without-ssn", "commit-after-commit", "read-after-commit",
        "write-after-commit", "write-in-snapshot-mode", "scan-without-ssn",
        "snapshot-without-ssn"])
def test_usage_errors_name_the_misuse(call, message):
    with pytest.raises(UsageError, match=message):
        call()


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
        engine.commit(reader)  # out_rw only: no structure
        assert reader.status == Status.COMMITTED
        assert reader.ssi.out_rw

    def test_read_only_skips_the_commit_check(self):
        engine = Engine(2, SI, SSI)
        query = engine.begin(0, read_only=True)
        engine.read(query, 0)
        overwriter = engine.begin(1)
        engine.write(overwriter, 0)
        engine.commit(overwriter)
        query.ssi.in_rw.fetch_or(1)  # even with a (spurious) inbound flag
        engine.commit(query)
        assert query.status == Status.COMMITTED

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
        version = engine.store.records[0].load()
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
        old = engine.store.records[1].load()
        read = engine.store.records[0].load()
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
        assert engine.store.records[1].load() is old
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

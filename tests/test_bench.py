"""Workload harness: determinism, accounting invariants, CLI surface."""

import dataclasses
import hashlib
import importlib
import os
import pickle
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from mvcert import (
    CertifierMode, ClientGroup, Scheme, TraceLog, WorkloadConfig, check_trace,
    parse_script, replay_scripted, run_bench, write_trace,
)
from mvcert.bench import _sample_program
from mvcert.cli import main
from mvcert.kernel import VALUE_MASK, TransactionAborted
from mvcert.schedulers import Engine
from mvcert.store import WriteConflict
from mvcert.trace import (
    ABORT_REASONS, MalformedTrace, TraceEvent, parse_trace, read_trace,
    render_event, render_trace,
)


def config(**overrides):
    base = dict(
        db_size=50, groups=[ClientGroup(1, 4, 8, 2)], txns_per_thread=200,
        seed=3, scheme=Scheme.SI, certifier=CertifierMode.SSN,
        retry=True, emit_trace=True)
    base.update(overrides)
    return WorkloadConfig(**base)


class TestValidation:
    def test_footprint_must_fit_database(self):
        with pytest.raises(ValueError):
            config(groups=[ClientGroup(1, 4, 80, 2)]).validate()

    def test_writes_must_fit_smallest_footprint(self):
        with pytest.raises(ValueError):
            ClientGroup(1, 4, 8, 5).validate(50)

    def test_read_only_group_cannot_write(self):
        with pytest.raises(ValueError):
            ClientGroup(1, 4, 8, 1, read_only=True).validate(50)

    def test_worker_cap(self):
        with pytest.raises(ValueError):
            config(groups=[ClientGroup(65, 4, 8, 2)]).validate()

    def test_snapshots_require_the_certifier(self):
        with pytest.raises(ValueError):
            config(certifier=CertifierMode.NONE,
                   safe_snapshot_interval=10).validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(groups=[ClientGroup(0, 4, 8, 2)]),
         "group needs at least one thread"),
        (dict(db_size=0), "db_size must be positive"),
        (dict(groups=[]), "need at least one client group"),
        (dict(txns_per_thread=0), "txns_per_thread must be positive"),
        (dict(safe_snapshot_interval=-1),
         "safe_snapshot_interval must be >= 0"),
    ], ids=["no-threads", "no-records", "no-groups", "no-txns",
            "negative-interval"])
    def test_config_errors_name_their_cause(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            config(**overrides).validate()


def _reference_program(rng, group, db_size, distinct_writes):
    """_sample_program written with rng.randint and rng.randrange."""
    size = rng.randint(group.footprint_min, group.footprint_max)
    records = [rng.randrange(db_size) for _ in range(size)]
    m = group.writes_per_txn
    reads, writes = records[:size - m], records[size - m:]
    if distinct_writes and m:
        forbidden = set(reads)
        if db_size > len(forbidden):
            writes = []
            while len(writes) < m:
                key = rng.randrange(db_size)
                if key not in forbidden:
                    writes.append(key)
    return reads, writes


class TestDeterminism:
    @pytest.mark.parametrize("distinct_writes", [False, True])
    @pytest.mark.parametrize("db_size", [1, 2, 64, 1000, 100_000])
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_sampler_draws_what_randint_and_randrange_draw(
            self, width, db_size, distinct_writes):
        # The inlined draws must keep every seeded workload as it was; a
        # Python whose randrange draws differently fails here.
        group = ClientGroup(1, 2, 1 + width, 2)
        for seed in range(200):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert (_sample_program(fast, group, db_size, distinct_writes)
                        == _reference_program(slow, group, db_size,
                                              distinct_writes))
            assert fast.getstate() == slow.getstate()

    def test_single_thread_traces_are_bit_identical(self):
        first_stats, first_events = run_bench(config())
        second_stats, second_events = run_bench(config())
        assert render_trace(first_events) == render_trace(second_events)
        assert first_stats.committed == second_stats.committed

    def test_different_seeds_differ(self):
        _, first_events = run_bench(config())
        _, second_events = run_bench(config(seed=4))
        assert render_trace(first_events) != render_trace(second_events)


class TestAccounting:
    def test_single_thread_run_commits_everything(self):
        stats, events = run_bench(config(txns_per_thread=1000,
                                         groups=[ClientGroup(1, 8, 12, 3)],
                                         db_size=100))
        assert stats.committed == stats.offered == 1000
        assert stats.total_aborts == 0
        assert check_trace(events).clean

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_transaction_past_the_retry_cap_fails_the_run(
            self, monkeypatch, threads):
        # Every commit is refused, so each worker retries until the cap;
        # with two threads the first worker's error is re-raised by the
        # caller after both have stopped.
        def refuse(engine, ctx):
            engine.abort(ctx)
            raise TransactionAborted("user")

        monkeypatch.setattr("mvcert.bench.RETRY_CAP", 3)
        monkeypatch.setattr(Engine, "commit", refuse)
        with pytest.raises(RuntimeError,
                           match="transaction exceeded 3 retries on slot"):
            run_bench(config(groups=[ClientGroup(threads, 4, 8, 2)]))

    def test_retry_mode_commits_offered_and_counts_retries(self):
        stats, _ = run_bench(config(
            db_size=10, groups=[ClientGroup(4, 3, 6, 2)],
            txns_per_thread=150))
        assert stats.committed == stats.offered
        assert stats.total_aborts == sum(g.retries for g in stats.groups)

    def test_drop_mode_balances_commits_and_aborts(self):
        stats, _ = run_bench(config(
            retry=False, db_size=10, groups=[ClientGroup(4, 3, 6, 2)],
            txns_per_thread=150))
        assert stats.committed + stats.total_aborts == stats.offered

    def test_every_abort_carries_exactly_one_cause(self):
        stats, _ = run_bench(config(
            retry=False, db_size=10, groups=[ClientGroup(4, 3, 6, 2)],
            txns_per_thread=150, scheme=Scheme.RC))
        for group in stats.groups:
            assert group.total_aborts == sum(group.aborts.values())

    def test_stats_render_has_stable_keys(self):
        stats, _ = run_bench(config())
        text = stats.render()
        for token in ("run scheme=si certifier=ssn", "group id=0",
                      "committed=", "abort_cc=", "abort_exclusion=",
                      "tracked_reads=", "total offered="):
            assert token in text

    def test_mixed_groups_report_separately(self):
        stats, _ = run_bench(config(
            db_size=500,
            groups=[ClientGroup(1, 40, 60, 1, read_mostly=True),
                    ClientGroup(1, 4, 8, 2)],
            read_mostly_threshold=30, txns_per_thread=100))
        readers, writers = stats.groups
        assert readers.untracked_reads > 0
        assert writers.untracked_reads == 0


class TestCli:
    def test_bench_then_check_pipeline(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace"
        code = main(["bench", "--db", "50", "--threads", "2", "--txns", "50",
                     "--footprint", "4:8", "--writes", "2",
                     "--certifier", "ssn", "--seed", "7",
                     "--emit-trace", str(trace_path)])
        assert code == 0
        assert "total offered=" in capsys.readouterr().out
        assert main(["check", str(trace_path)]) == 0
        assert "sccs=0" in capsys.readouterr().out

    @pytest.mark.parametrize("certifier, verdict", [("none", 2), ("ssn", 0)])
    def test_contended_threads_make_cycles_only_without_a_certifier(
            self, certifier, verdict, tmp_path, capsys):
        # Multi-worker runs yield after every operation, so four threads on
        # twenty records overlap enough for the bare scheme to close cycles.
        trace_path = tmp_path / "run.trace"
        assert main(["bench", "--db", "20", "--threads", "4",
                     "--footprint", "4:6", "--writes", "2", "--txns", "200",
                     "--certifier", certifier,
                     "--emit-trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["check", str(trace_path)]) == verdict

    def test_check_flags_write_skew_with_exit_2(self, tmp_path, capsys):
        result = replay_scripted(
            "T1 read X\nT2 read Y\nT1 write Y\nT2 write X\n"
            "T1 commit\nT2 commit\n", Scheme.SI, CertifierMode.NONE)
        trace_path = tmp_path / "skew.trace"
        write_trace(result.trace, trace_path)
        assert main(["check", str(trace_path)]) == 2
        out = capsys.readouterr().out
        assert "scc size=2" in out
        assert "r:w" in out

    def test_replay_subcommand(self, tmp_path, capsys):
        script = tmp_path / "fig.script"
        script.write_text(
            "T1 read B\nT3 read A\nT2 write B\nT2 commit\n"
            "T3 read B\nT1 write A\nT1 commit\nT3 commit\n")
        assert main(["replay", str(script), "--scheme", "rc"]) == 0
        out = capsys.readouterr().out
        assert "T3 aborted reason=ssn_exclusion" in out
        assert "T1 committed" in out

    def test_replay_emit_trace_writes_the_replayed_trace(self, tmp_path,
                                                         capsys):
        text = ("T1 read B\nT3 read A\nT2 write B\nT2 commit\n"
                "T3 read B\nT1 write A\nT1 commit\nT3 commit\n")
        script = tmp_path / "fig.script"
        script.write_text(text)
        emitted = tmp_path / "replay.trace"
        assert main(["replay", str(script), "--scheme", "rc",
                     "--emit-trace", str(emitted)]) == 0
        assert "T3 aborted reason=ssn_exclusion" in capsys.readouterr().out
        expected = tmp_path / "expected.trace"
        write_trace(replay_scripted(parse_script(text), Scheme.RC).trace,
                    expected)
        assert emitted.read_text() == expected.read_text()
        assert "abort " in emitted.read_text()
        assert main(["check", str(emitted)]) == 0

    def test_enumerate_subcommand(self, tmp_path, capsys):
        a = tmp_path / "a.script"
        b = tmp_path / "b.script"
        a.write_text("T read x\nT write y\nT commit\n")
        b.write_text("T read y\nT write x\nT commit\n")
        assert main(["enumerate", str(a), str(b)]) == 0
        # One key map serves both scripts, so x and y name the same
        # records in each: the write-skew pair.
        assert capsys.readouterr().out == "histories=20 cyclic=18\n"

    def test_distinct_writes_keep_write_keys_out_of_the_read_set(
            self, tmp_path, capsys):
        emitted = tmp_path / "distinct.trace"
        assert main(["bench", "--db", "12", "--footprint", "6:10",
                     "--writes", "3", "--txns", "200", "--distinct-writes",
                     "--emit-trace", str(emitted)]) == 0
        assert "committed=200" in capsys.readouterr().out
        reads, writes = {}, {}
        for event in read_trace(emitted):
            if event.kind == "read":
                reads.setdefault(event.tid, set()).add(event.key)
            elif event.kind == "write":
                writes.setdefault(event.tid, set()).add(event.key)
        assert len(writes) == 200
        for tid, written in writes.items():
            assert not written & reads.get(tid, set())

    def test_module_entry_point_exits_with_the_check_status(self, tmp_path):
        trace = tmp_path / "skew.trace"
        write_trace(replay_scripted(
            "T1 read X\nT2 read Y\nT1 write Y\nT2 write X\n"
            "T1 commit\nT2 commit\n", Scheme.SI, CertifierMode.NONE).trace,
            trace)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "mvcert.cli", "check", str(trace)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout.startswith("serializable=no sccs=1\n")

    def test_unknown_file_is_a_usage_error(self, capsys):
        assert main(["check", "/nonexistent/trace"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_read_of_own_version_before_its_write_is_malformed(
            self, tmp_path, capsys):
        trace_path = tmp_path / "own.trace"
        trace_path.write_text("begin 65 1\nread 65 1 0 65 0\n"
                              "write 65 1 0 0 0\ncommit 65 1 1\n")
        assert main(["check", str(trace_path)]) == 1
        assert capsys.readouterr().err == (
            "error: event 1: version (0, 65) referenced before creation\n")

    def test_bad_footprint_flag(self, capsys):
        assert main(["bench", "--footprint", "banana"]) == 1

    def test_group_flag_parses(self, capsys):
        code = main(["bench", "--db", "200", "--txns", "20",
                     "--group", "threads=1,fmin=20,fmax=30,writes=1,read_mostly=1",
                     "--group", "threads=1,fmin=3,fmax=5,writes=2",
                     "--read-mostly-threshold", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "group id=1" in out

    @pytest.mark.parametrize("spec, message", [
        ("threads=1,fmax=5", "error: group spec needs 'fmin'"),
        ("threads=1,fmin=x,fmax=5",
         "error: invalid literal for int() with base 10: 'x'"),
        ("threads=1,fmin=3,fmax=5,fmid=4",
         "error: unknown group fields ['fmid']"),
        ("threads=1,fmin=3,fmax", "error: bad group field 'fmax'"),
    ])
    def test_group_flag_reports_the_real_error(self, capsys, spec, message):
        assert main(["bench", "--group", spec]) == 1
        assert capsys.readouterr().err.strip() == message


class TestTraceRoundTrip:
    def test_file_round_trip_preserves_events(self, tmp_path):
        _, events = run_bench(config(txns_per_thread=30))
        text = render_trace(events)
        parsed = list(parse_trace(text.splitlines()))
        assert len(parsed) == len(events)
        assert render_trace(parsed) == text

    def test_parsed_events_carry_every_field_and_share_numbers(self):
        parsed = list(parse_trace([
            "begin 70001 1", "read 70001 1 3 0 0",
            "# a comment keeps its line index", "",
            "commit 70001 1 90001", "begin 70002 2",
            "write 70002 2 3 70001 90001", "abort 70002 2 user"]))
        assert parsed == [
            TraceEvent(0, "begin", 70001, 1),
            TraceEvent(1, "read", 70001, 1, 3, 0, 0),
            TraceEvent(4, "commit", 70001, 1, cstamp=90001),
            TraceEvent(5, "begin", 70002, 2),
            TraceEvent(6, "write", 70002, 2, 3, 70001, 90001),
            TraceEvent(7, "abort", 70002, 2, reason="user"),
        ]
        assert parsed[0].tid is parsed[4].ver_creator
        assert parsed[2].cstamp is parsed[4].ver_cstamp

    def test_log_view_yields_the_events_emitted(self):
        # Every kind, every abort reason, threads 0 and 63, and values at
        # the top of the stamp range come back as the TraceEvents a list of
        # nine-field tuples held, and survive a render and parse.
        top = VALUE_MASK
        emits = [
            ("begin", (top, 0), {}),
            ("begin", (1, 63), {}),
            ("read", (top, 0, 7, top - 1, top - 2),
             dict(key=7, ver_creator=top - 1, ver_cstamp=top - 2)),
            ("read", (1, 63, 0, 0, 0), dict(key=0, ver_creator=0,
                                            ver_cstamp=0)),
            ("write", (top, 0, top, 0, 0), dict(key=top, ver_creator=0,
                                                ver_cstamp=0)),
            ("write", (1, 63, 3, top, top), dict(key=3, ver_creator=top,
                                                 ver_cstamp=top)),
            ("commit", (top, 0, top), dict(cstamp=top)),
            ("commit", (1, 63, 5), dict(cstamp=5)),
            *(("abort", (top - index, 63 * (index % 2), reason),
               dict(reason=reason))
              for index, reason in enumerate(ABORT_REASONS)),
        ]
        log = TraceLog()
        expected = []
        for seq, (kind, args, fields) in enumerate(emits):
            getattr(log, kind)(*args)
            expected.append(TraceEvent(seq, kind, *args[:2], **fields))
        view = log.merged()
        assert len(view) == len(expected)
        assert list(view) == expected
        assert list(parse_trace(render_trace(view).splitlines())) == expected
        # The view is the log as it stood; later emits do not show in it.
        log.begin(2, 1)
        assert len(view) == len(expected)
        assert list(view) == expected
        # A field outside int64 raises before any word of the row lands.
        with pytest.raises(struct.error):
            log.read(3, 1, 1 << 63, 0, 0)
        assert list(log.merged())[-1] == TraceEvent(len(expected), "begin",
                                                    2, 1)

    def test_an_unknown_kind_does_not_render(self):
        with pytest.raises(ValueError, match="unknown event kind 'frob'"):
            render_event(TraceEvent(0, "frob", 1, 0))

    @pytest.mark.parametrize("line, message", [
        ("begin 1", "event 1: unparseable line 'begin 1'"),
        ("commit 1 0 5 6", "event 1: unparseable line"),
        ("frob 1 0", "event 1: unparseable line"),
        ("read 1 0 x 0 0", "event 1: non-numeric field in 'read 1 0 x 0 0'"),
        ("abort 1 0 bogus", "event 1: unknown abort reason 'bogus'"),
    ])
    def test_malformed_lines_name_their_index(self, line, message):
        with pytest.raises(MalformedTrace) as caught:
            list(parse_trace(["begin 1 0", line]))
        assert str(caught.value).startswith(message)
        assert caught.value.index == 1


def _refused(call, *args):
    with pytest.raises(TransactionAborted) as failure:
        call(*args)
    return failure.value.reason


class TestEngineRows:
    def test_engine_rows_equal_the_emit_methods_rows(self):
        # The engine packs its rows inline; they must be the very words the
        # TraceLog methods append for the same events.  Two engines share
        # one log, so every kind and every abort reason lands in it.
        log = TraceLog()
        engine = Engine(3, Scheme.SI, CertifierMode.SSN, trace=log)
        first = engine.begin(0)
        engine.read(first, 0)
        engine.write(first, 1, "a")
        engine.commit(first)                                # stamp 1
        loser, user = engine.begin(1), engine.begin(2)
        engine.read(loser, 1)
        engine.write(user, 1, "b")
        assert _refused(engine.write, loser, 1, "c") == "cc_conflict"
        engine.abort(user)
        left, right = engine.begin(0), engine.begin(1)      # write skew
        engine.read(left, 0)
        engine.read(right, 2)
        engine.write(left, 2, "d")
        engine.write(right, 0, "e")
        engine.commit(left)                                 # stamp 2
        assert _refused(engine.commit, right) == "ssn_exclusion"  # 3
        writer = engine.begin(0)
        engine.read(writer, 2)
        overwriter = engine.begin(1)
        engine.write(overwriter, 2, "f")
        engine.commit(overwriter)                           # stamp 4
        engine.take_safe_snapshot()                         # stamp 5
        engine.write(writer, 1, "g")
        assert _refused(engine.commit, writer) == "safe_snapshot"
        ssi = Engine(2, Scheme.SI, CertifierMode.SSI, trace=log)
        pivot_in, pivot = ssi.begin(0), ssi.begin(1)
        ssi.read(pivot_in, 0)
        ssi.read(pivot, 1)
        ssi.write(pivot_in, 1, "h")
        ssi.write(pivot, 0, "i")
        ssi.commit(pivot_in)                                # stamp 1
        assert _refused(ssi.commit, pivot) == "ssi_dangerous"

        expected = TraceLog()
        for kind, *args in [
                ("begin", 64, 0), ("read", 64, 0, 0, 0, 0),
                ("write", 64, 0, 1, 0, 0), ("commit", 64, 0, 1),
                ("begin", 129, 1), ("begin", 194, 2),
                ("read", 129, 1, 1, 64, 1), ("write", 194, 2, 1, 64, 1),
                ("abort", 129, 1, "cc_conflict"), ("abort", 194, 2, "user"),
                ("begin", 256, 0), ("begin", 321, 1),
                ("read", 256, 0, 0, 0, 0), ("read", 321, 1, 2, 0, 0),
                ("write", 256, 0, 2, 0, 0), ("write", 321, 1, 0, 0, 0),
                ("commit", 256, 0, 2), ("abort", 321, 1, "ssn_exclusion"),
                ("begin", 384, 0), ("read", 384, 0, 2, 256, 2),
                ("begin", 449, 1), ("write", 449, 1, 2, 256, 2),
                ("commit", 449, 1, 4), ("write", 384, 0, 1, 64, 1),
                ("abort", 384, 0, "safe_snapshot"),
                ("begin", 64, 0), ("begin", 129, 1),
                ("read", 64, 0, 0, 0, 0), ("read", 129, 1, 1, 0, 0),
                ("write", 64, 0, 1, 0, 0), ("write", 129, 1, 0, 0, 0),
                ("commit", 64, 0, 1), ("abort", 129, 1, "ssi_dangerous")]:
            getattr(expected, kind)(*args)
        assert {event.reason for event in expected.merged()} == {
            None, *ABORT_REASONS}
        assert log._words == expected._words

    @pytest.mark.parametrize("error, field, cause", [
        (TransactionAborted, "reason", "ssn_exclusion"),
        (WriteConflict, "kind", "skew"),
    ])
    def test_abort_exceptions_carry_their_cause(self, error, field, cause):
        # Built by BaseException's own constructor: no Python __init__.
        assert "__init__" not in vars(error)
        raised = error(cause)
        copy = pickle.loads(pickle.dumps(raised))
        for exception in (raised, copy):
            assert type(exception) is error
            assert getattr(exception, field) == cause
            assert exception.args == (cause,) and str(exception) == cause


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_spans_find_every_timed_callable(monkeypatch):
    # perfbench's traced run patches each callable it times through
    # owner.__dict__[attr]; one that moved to a base class or was renamed
    # would stop `perfbench/run.py --trace 1` with a KeyError.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in spans.TIMED
               if attr not in owner.__dict__]
    assert missing == []
    assert all(attr in spans.AtomicCell.__dict__
               for attr in spans.RMW_METHODS)
    assert "next" in spans.GlobalClock.__dict__


def test_perfbench_traced_unit_runs(monkeypatch, tmp_path):
    # The span wrappers also reach into the store's layout (they walk
    # chains from record.head); a small traced hot-8c unit must run, count
    # what it did, and give the same counts as an untraced one.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    workload = dataclasses.replace(workloads.WORKLOADS["hot-8c"], commits=60)
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        traced = workloads.run_unit(workload, 1, tmp_path)
    untraced = workloads.run_unit(workload, 1, tmp_path)
    name_of = list(recorder.name_of)
    assert name_of.count(recorder.name_id("store.visible_version")) > 0
    assert recorder.count("kernel.rmw") > 0
    assert recorder.fresh_versions > 0
    assert traced.committed == 60 and traced.anomaly_txns == 0
    assert traced.counts() == untraced.counts()


# Digests of the engine trace of short logical-client runs, perfbench's
# driver on its own schedule: (workload, commits, seed) -> digest.  They
# pin every verdict and every read's version on the two contended
# workloads, so a change to the operation path that must not change
# behaviour can be checked in seconds.
WORKLOAD_TRACE_DIGESTS = {
    ("hot-8c", 300, 1): "dad01607ba463e57",
    ("hot-8c", 300, 2): "88064259e5d1eae3",
    ("read-mostly-8c", 1000, 1): "229067a792974e61",
    ("read-mostly-8c", 1000, 2): "01f6674d53feaddd",
}


@pytest.mark.parametrize("name, commits, seed", sorted(WORKLOAD_TRACE_DIGESTS))
def test_logical_workload_traces_replay_to_recorded_digests(
        monkeypatch, name, commits, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = dataclasses.replace(workloads.WORKLOADS[name], commits=commits)
    engine = workloads.new_engine(workload, CertifierMode.SSN)
    workloads.drive(engine, workload, seed, workloads.Unit())
    text = render_trace(engine.trace.merged())
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == WORKLOAD_TRACE_DIGESTS[name, commits, seed]

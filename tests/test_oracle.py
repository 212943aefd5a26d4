"""Offline checker: graph building, cycle detection, attribution, replay,
and exhaustive interleaving enumeration."""

import dataclasses
import hashlib
import importlib
import tracemalloc
from pathlib import Path

import pytest

from mvcert import (
    CertifierMode, ClientGroup, Engine, Scheme, TraceLog, UsageError,
    WorkloadConfig, build_graph, check_trace, enumerate_interleavings,
    find_violations, parse_script, replay_scripted, run_bench,
)
from mvcert.cli import main
from mvcert.oracle import (
    EDGE_RW, EDGE_WR, EDGE_WW, AttributionFailure, DependencyGraph,
    interleaving_count, interleavings, recompute_watermarks,
    strongly_connected_components,
)
from mvcert.trace import MalformedTrace, parse_trace, render_trace

SI, RC = Scheme.SI, Scheme.RC
SSN, NONE = CertifierMode.SSN, CertifierMode.NONE


def trace(text):
    return parse_trace(text.strip().splitlines())


# Two committed transactions, before a second outcome line for tid 64.
SECOND_OUTCOME = """\
begin 64 0
write 64 0 0 0 0
commit 64 0 4
begin 129 1
commit 129 1 5
"""


class TestBuildGraph:
    def test_read_dependency_edge(self):
        events = trace("""
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            read 129 1 0 64 5
            commit 129 1 7
        """)
        graph = build_graph(events)
        assert EDGE_WR in graph.edge_kinds(64, 129)

    def test_anti_dependency_edge(self):
        events = trace("""
            begin 64 0
            read 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            write 129 1 0 0 0
            commit 129 1 7
        """)
        graph = build_graph(events)
        assert EDGE_RW in graph.edge_kinds(64, 129)

    def test_overwrite_dependency_edge(self):
        events = trace("""
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            write 129 1 0 64 5
            commit 129 1 7
        """)
        graph = build_graph(events)
        assert EDGE_WW in graph.edge_kinds(64, 129)

    def test_aborted_transactions_are_excluded(self):
        events = trace("""
            begin 64 0
            write 64 0 0 0 0
            abort 64 0 user
            begin 129 1
            read 129 1 0 0 0
            commit 129 1 7
        """)
        graph = build_graph(events)
        assert 64 not in graph.nodes
        assert graph.edges == set()

    def test_unknown_version_reference_is_diagnosed(self):
        events = trace("""
            begin 129 1
            read 129 1 0 64 5
            commit 129 1 7
        """)
        with pytest.raises(MalformedTrace, match="never created"):
            build_graph(events)

    def test_reference_before_creation_is_diagnosed(self):
        events = trace("""
            begin 129 1
            read 129 1 0 64 5
            commit 129 1 7
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
        """)
        with pytest.raises(MalformedTrace, match="before creation"):
            build_graph(events)

    @pytest.mark.parametrize("text, message", [
        # the creator committed, but never wrote the key
        ("""
         begin 129 1
         read 129 1 0 64 5
         commit 129 1 7
         begin 64 0
         write 64 0 1 0 0
         commit 64 0 5
         """, "event 1: reference to version (0, 64) never created"),
        # the creator never appears at all
        ("""
         begin 129 1
         write 129 1 0 64 5
         commit 129 1 7
         """, "event 1: reference to version (0, 64) never created"),
        # the creator wrote the key, but only after the reference
        ("""
         begin 129 1
         read 129 1 0 64 5
         commit 129 1 7
         begin 64 0
         write 64 0 0 0 0
         commit 64 0 5
         """, "event 1: version (0, 64) referenced before creation"),
    ], ids=["committed-creator", "unseen-creator", "later-creator"])
    def test_forward_reference_messages(self, text, message):
        with pytest.raises(MalformedTrace) as caught:
            build_graph(trace(text))
        assert str(caught.value) == message
        assert caught.value.index == 1

    def test_double_begin_is_diagnosed(self):
        events = trace("""
            begin 64 0
            begin 64 0
        """)
        with pytest.raises(MalformedTrace, match="twice"):
            build_graph(events)

    def test_two_committed_overwrites_of_one_version_are_diagnosed(self):
        events = trace("""
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            write 129 1 0 0 0
            commit 129 1 7
        """)
        with pytest.raises(MalformedTrace, match="both 64 and 129") as caught:
            build_graph(events)
        assert caught.value.index == 5

    @pytest.mark.parametrize("outcome, message", [
        ("commit 64 0 9", "tid 64 committed twice"),
        ("abort 64 0 user", "tid 64 aborted after its commit"),
    ], ids=["second-commit", "abort-after-commit"])
    def test_a_second_outcome_of_a_committed_tid_is_diagnosed(
            self, tmp_path, capsys, outcome, message):
        text = SECOND_OUTCOME + outcome + "\n"
        with pytest.raises(MalformedTrace, match=message) as caught:
            build_graph(trace(text))
        assert caught.value.index == 5
        path = tmp_path / "second-outcome.trace"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == "error: event 5: %s\n" % message

    @pytest.mark.parametrize("access, message", [
        ("read 2 1 0 1 999", "version (0, 1) recorded with stamp 999, "
                             "committed at 5"),
        ("write 2 1 0 1 7", "version (0, 1) recorded with stamp 7, "
                            "committed at 5"),
    ], ids=["read", "write"])
    def test_a_stamp_that_is_not_the_creators_commit_stamp_is_diagnosed(
            self, tmp_path, capsys, access, message):
        text = ("begin 1 0\nwrite 1 0 0 0 0\ncommit 1 0 5\nbegin 2 1\n"
                + access + "\ncommit 2 1 7\n")
        with pytest.raises(MalformedTrace) as caught:
            build_graph(trace(text))
        assert str(caught.value) == "event 5: " + message
        path = tmp_path / "bad-stamp.trace"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == "error: event 5: %s\n" % message

    def test_a_stamp_is_checked_once_its_creator_commits(self):
        # The reader commits first, so the line that settles the read is
        # its creator's commit line.
        with pytest.raises(MalformedTrace, match="stamp 4, committed at 5") \
                as caught:
            build_graph(trace("""
                begin 1 0
                write 1 0 0 0 0
                begin 2 1
                read 2 1 0 1 4
                commit 2 1 7
                commit 1 0 5
            """))
        assert caught.value.index == 5

    def test_a_read_of_the_readers_own_version_records_no_stamp(
            self, tmp_path, capsys):
        path = tmp_path / "own-read.trace"
        path.write_text("begin 1 0\nwrite 1 0 0 0 0\nread 1 0 0 1 0\n"
                        "commit 1 0 5\n")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.startswith("serializable")

    def test_read_before_its_creators_write_is_diagnosed(self):
        # The creator is already in flight, but has not written key 0 yet.
        events = trace("""
            begin 64 0
            begin 129 1
            read 129 1 0 64 5
            write 64 0 0 0 0
            commit 64 0 5
            commit 129 1 7
        """)
        with pytest.raises(MalformedTrace, match="before creation") as caught:
            build_graph(events)
        assert caught.value.index == 2

    def test_a_read_may_commit_before_its_creators_commit_line(self):
        # A creator is visible once COMMITTED, a moment before its commit
        # line is traced, so its reader can commit first.
        graph = build_graph(trace("""
            begin 64 0
            write 64 0 0 0 0
            begin 129 1
            read 129 1 0 64 5
            commit 129 1 7
            commit 64 0 5
            begin 194 2
            write 194 2 0 64 5
            commit 194 2 9
        """))
        assert graph.edges == {(64, 129, EDGE_WR), (64, 194, EDGE_WW),
                               (129, 194, EDGE_RW)}

    @pytest.mark.parametrize("text", [
        # the creator aborted before the read
        """
        begin 64 0
        write 64 0 0 0 0
        abort 64 0 user
        begin 129 1
        read 129 1 0 64 5
        commit 129 1 7
        """,
        # the reader committed while the creator was still in flight
        """
        begin 64 0
        write 64 0 0 0 0
        begin 129 1
        read 129 1 0 64 5
        commit 129 1 7
        abort 64 0 user
        """,
    ], ids=["aborted-first", "aborted-later"])
    def test_reference_to_an_aborted_creators_version_is_moot(self, text):
        graph = build_graph(trace(text))
        assert set(graph.nodes) == {129}
        assert graph.edges == set()

    def test_every_fault_names_the_line_index(self):
        # Comment and blank lines count, whichever check fires: the
        # parser's or the graph builder's.
        lines = ["begin 64 0", "# a comment", "", "write 64 0 0 0 0",
                 "begin 64 0"]
        with pytest.raises(MalformedTrace, match="twice") as caught:
            build_graph(parse_trace(lines))
        assert str(caught.value).startswith("event 4: ")
        assert caught.value.index == 4
        lines[-1] = "begin 64"
        with pytest.raises(MalformedTrace, match="unparseable") as caught:
            build_graph(parse_trace(lines))
        assert caught.value.index == 4

    def test_an_access_after_the_commit_line_still_counts(self):
        graph = build_graph(trace("""
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            commit 129 1 7
            read 129 1 0 64 5
        """))
        assert graph.edges == {(64, 129, EDGE_WR)}

    def test_a_line_fault_wins_over_an_earlier_bad_reference(self):
        """Which of two faults is raised.

        A fault a line shows by itself (it does not parse, or it begins a
        tid a second time) is raised when the pass reaches that line.  A
        bad version reference is judged after the pass, once every
        creator's outcome is known.  So the second begin on event 3 wins
        over the reference on event 1 to a version never created, and of
        two bad references the earlier one wins.
        """
        with pytest.raises(MalformedTrace, match="twice") as caught:
            build_graph(trace("""
                begin 129 1
                read 129 1 0 64 5
                commit 129 1 7
                begin 129 1
            """))
        assert caught.value.index == 3
        with pytest.raises(MalformedTrace, match="never created") as caught:
            build_graph(trace("""
                begin 129 1
                read 129 1 0 64 5
                read 129 1 1 65 5
                commit 129 1 7
            """))
        assert caught.value.index == 1


class TestFindViolations:
    def test_acyclic_graph_is_clean(self):
        events = trace("""
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            read 129 1 0 64 5
            commit 129 1 7
        """)
        assert check_trace(events).clean

    def test_write_skew_two_cycle_flagged(self):
        result = replay_scripted(
            "T1 read X\nT2 read Y\nT1 write Y\nT2 write X\n"
            "T1 commit\nT2 commit\n", SI, NONE)
        graph = build_graph(result.trace)
        report = find_violations(graph)
        assert len(report.sccs) == 1
        members = report.sccs[0]
        assert len(members) == 2
        a, b = members
        assert graph.edge_kinds(a, b) == {EDGE_RW}
        assert graph.edge_kinds(b, a) == {EDGE_RW}
        assert report.flagged[0]  # attribution found a window violation

    def test_five_transaction_cycle_flags_only_the_pivot(self):
        # forward chain T5 -> T3 -> T4 -> T1 -> T2 through reads of writes,
        # closed by T2's anti-dependency back to T5; commit stamps put T5
        # first, so T2's recomputed watermarks are sstamp=c(T5), pstamp=c(T1)
        events = trace("""
            begin 2 2
            read 2 2 0 0 0
            begin 5 5
            write 5 5 0 0 0
            write 5 5 4 0 0
            commit 5 5 10
            begin 3 3
            read 3 3 4 5 10
            write 3 3 5 0 0
            commit 3 3 12
            begin 4 4
            read 4 4 5 3 12
            write 4 4 6 0 0
            commit 4 4 14
            begin 1 1
            read 1 1 6 4 14
            write 1 1 7 0 0
            commit 1 1 20
            read 2 2 7 1 20
            commit 2 2 30
        """)
        graph = build_graph(events)
        report = find_violations(graph)
        assert report.sccs == [[5, 3, 4, 1, 2]]
        assert report.flagged == [[2]]
        assert graph.nodes[2].sstamp == 10   # the earliest successor stamp
        assert graph.nodes[2].pstamp == 20   # the newest predecessor stamp

    def test_long_anti_dependency_chain_detected(self):
        # Ti reads record i (initial) which T(i-1) overwrites, and overwrites
        # record i+1, which T(i+1) read: a pure anti-dependency ring
        # T1 -> Tn -> T(n-1) -> ... -> T1, detected regardless of length
        n = 40
        lines = []
        for i in range(1, n + 1):
            target = i + 1 if i < n else 1
            lines += ["begin %d %d" % (i, i % 64),
                      "read %d %d %d 0 0" % (i, i % 64, i),
                      "write %d %d %d 0 0" % (i, i % 64, target),
                      "commit %d %d %d" % (i, i % 64, 10 + i)]
        graph = build_graph(parse_trace(lines))
        report = find_violations(graph)
        assert len(report.sccs) == 1
        assert len(report.sccs[0]) == n
        assert report.flagged[0]

    def test_attribution_failure_is_loud(self, monkeypatch):
        # Every real cycle contains a window violation, so the guarantee
        # check can only fire if the recomputation itself is broken; fake
        # that breakage and require a loud failure instead of a report.
        def broken(graph):
            for node in graph.nodes.values():
                node.pstamp, node.sstamp = 0, 1
        monkeypatch.setattr("mvcert.oracle.recompute_watermarks", broken)
        graph = DependencyGraph()
        graph.add_node(1, 10, 0)
        graph.add_node(2, 20, 1)
        graph.add_edge(1, 2, EDGE_RW)
        graph.add_edge(2, 1, EDGE_RW)
        with pytest.raises(AttributionFailure):
            find_violations(graph)

    def test_duplicate_stamps_tie_break_by_trace_order(self):
        events = trace("""
            begin 64 0
            write 64 0 0 0 0
            commit 64 0 5
            begin 129 1
            read 129 1 0 64 5
            commit 129 1 5
            begin 194 2
            read 194 2 0 64 5
            commit 194 2 5
        """)
        graph = build_graph(events)
        report = find_violations(graph)
        assert report.clean
        order = sorted(graph.nodes, key=graph.commit_order_key)
        assert order == [64, 129, 194]


# Two SCCs.  T1 -> T2 is both w:r and w:w (T2 reads, then overwrites, T1's
# version of key 0) and T2 -> T1 is r:w on key 1; T3 and T4 are a write-skew
# pair on keys 2 and 3.  T5 reads T2's version, an edge that leaves an SCC.
TWO_SCCS = """
begin 1 0
begin 2 1
read 2 1 1 0 0
write 1 0 0 0 0
write 1 0 1 0 0
commit 1 0 5
read 2 1 0 1 5
write 2 1 0 1 5
commit 2 1 7
begin 3 2
begin 4 3
read 3 2 2 0 0
read 4 3 3 0 0
write 3 2 3 0 0
write 4 3 2 0 0
commit 3 2 9
commit 4 3 11
begin 5 4
read 5 4 0 2 7
commit 5 4 13
"""


class TestCheckReport:
    def test_golden_check_output(self, tmp_path, capsys):
        # SCCs come by the commit order of their earliest members.
        path = tmp_path / "two-sccs.trace"
        path.write_text(TWO_SCCS.lstrip())
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().out == (
            "serializable=no sccs=2\n"
            "scc size=2 members=1,2 flagged=2\n"
            "edge 1 w:r 2\n"
            "edge 1 w:w 2\n"
            "edge 2 r:w 1\n"
            "scc size=2 members=3,4 flagged=4\n"
            "edge 3 r:w 4\n"
            "edge 4 r:w 3\n")

    def test_check_runs_through_check_trace(self, tmp_path, monkeypatch,
                                            capsys):
        # The benchmark's traced run times the oracle phases beneath
        # check_trace, so the command must call it.
        calls = []

        def spy(events):
            events = list(events)
            calls.append(len(events))
            return check_trace(events)

        monkeypatch.setattr("mvcert.cli.check_trace", spy)
        path = tmp_path / "two-sccs.trace"
        path.write_text(TWO_SCCS.lstrip())
        assert main(["check", str(path)]) == 2
        assert calls == [20]
        assert capsys.readouterr().out.startswith("serializable=no sccs=2\n")

    def test_a_parse_error_met_while_building_exits_1(self, tmp_path, capsys):
        # The graph is built as the file is parsed, so the bad last line is
        # met after the first twenty events are in the graph.
        path = tmp_path / "bad-tail.trace"
        path.write_text(TWO_SCCS.lstrip() + "frob 6 5\n")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: event 20: unparseable line 'frob 6 5'\n"

    def test_a_missing_trace_file_exits_1(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.trace")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "absent.trace" in captured.err

    def test_pair_joined_by_two_kinds(self):
        graph = build_graph(trace(TWO_SCCS))
        assert graph.edge_kinds(1, 2) == {EDGE_WR, EDGE_WW}
        assert graph.edge_kinds(2, 1) == {EDGE_RW}
        assert graph.edge_kinds(1, 5) == set()
        assert len(graph.edges) == 6
        assert (1, 2, EDGE_WR) in graph.edges
        assert (1, 2, EDGE_WW) in graph.edges
        assert (2, 5, EDGE_WR) in graph.edges


class TestOracleMemory:
    def test_parsed_trace_and_graph_stay_small(self):
        # Checking in one streaming pass holds the graph and the builder's
        # own state, never the parsed event list: the peak is about 118 B
        # per trace line here.  Parsing into a list and building the graph
        # in three passes over it peaked at about 333 B.
        config = WorkloadConfig(
            db_size=100, groups=[ClientGroup(1, 8, 12, 3)],
            txns_per_thread=2000, seed=7, emit_trace=True)
        _, events = run_bench(config)
        lines = render_trace(events).splitlines()
        del events
        tracemalloc.start()
        try:
            report = check_trace(parse_trace(lines))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.graph.nodes) == 2000
        assert peak / len(lines) <= 200


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def graph_digest(graph):
    """One hash over the nodes with their stamps and commit order, every
    (src, dst, kind mask), and the sorted SCC and flagged lists."""
    report = find_violations(graph)
    nodes = sorted((tid, node.cstamp, node.order)
                   for tid, node in graph.nodes.items())
    edges = sorted((src, dst, mask) for src, out in graph.successors.items()
                   for dst, mask in out.items())
    summary = (nodes, edges, sorted(map(sorted, report.sccs)),
               sorted(map(sorted, report.flagged)))
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:16]


class TestGoldenGraphs:
    """The graph of observe-mode hot-8c traces, 300 commits each, which
    hold 20 or 21 SCCs.  The digests were recorded from the three-pass
    builder that parsed the whole trace into a list first."""

    @pytest.mark.parametrize("seed, digest", [
        (1, "2352db574a1c5e20"),
        (2, "729f294a5a7f7e3c"),
        (3, "4000fd1ac773f1ec"),
    ])
    def test_graph_matches_the_recorded_digest(self, monkeypatch, seed,
                                               digest):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        workload = dataclasses.replace(workloads.WORKLOADS["hot-8c"],
                                       commits=300)
        engine = Engine(workload.db_size, SI, SSN, observe=True,
                        trace=TraceLog())
        workloads.drive(engine, workload, seed, workloads.Unit())
        events = engine.trace.merged()
        assert graph_digest(build_graph(events)) == digest
        lines = render_trace(events).splitlines()
        assert graph_digest(build_graph(parse_trace(lines))) == digest


class TestWatermarkRecomputation:
    def test_pstamps_match_per_version_maxima(self):
        result = replay_scripted(
            "T1 write A\nT1 commit\nT2 read A\nT2 commit\n"
            "T3 read A\nT3 write B\nT3 commit\n", RC, SSN)
        graph = build_graph(result.trace)
        recompute_watermarks(graph)
        t1, t2, t3 = result.tids["T1"], result.tids["T2"], result.tids["T3"]
        assert graph.nodes[t2].pstamp == graph.nodes[t1].cstamp
        assert graph.nodes[t3].pstamp == graph.nodes[t1].cstamp
        assert graph.nodes[t1].sstamp == graph.nodes[t1].cstamp

    def test_version_access_stamps_match_trace_recomputation(self):
        # every committed version's access stamp must equal the largest
        # commit stamp among its creator and its committed non-overwriting
        # readers, recomputed independently from the trace
        import random
        from mvcert.kernel import is_tid, word_value
        from mvcert.oracle import ScriptStep
        rng = random.Random(77)
        steps = []
        labels = ["T%d" % i for i in range(6)]
        programs = {
            label: [(rng.choice(["read", "write"]), rng.randrange(3))
                    for _ in range(rng.randint(1, 4))] + [("commit", None)]
            for label in labels}
        cursors = {label: 0 for label in labels}
        while any(cursors[l] < len(programs[l]) for l in labels):
            label = rng.choice([l for l in labels
                                if cursors[l] < len(programs[l])])
            op, key = programs[label][cursors[label]]
            cursors[label] += 1
            steps.append(ScriptStep(label, op, key))
        result = replay_scripted(steps, RC, SSN, on_aborted="skip")

        committed, overwrote, read_by, write_stamp = {}, {}, {}, {}
        for event in result.trace:
            if event.kind == "commit":
                committed[event.tid] = event.cstamp
        for event in result.trace:
            if event.tid not in committed:
                continue
            identity = (event.key, event.ver_creator)
            if event.kind == "read":
                read_by.setdefault(identity, set()).add(event.tid)
            elif event.kind == "write":
                overwrote.setdefault(event.tid, set()).add(identity)
                write_stamp[(event.key, event.tid)] = committed[event.tid]
        for key, chain in enumerate(result.engine.store.dump_stamps()):
            for creator, cword, pstamp, _sstamp, _payload in chain:
                assert not is_tid(cword)
                identity = (key, creator)
                readers = [tid for tid in read_by.get(identity, ())
                           if identity not in overwrote.get(tid, ())]
                expected = max([word_value(cword)]
                               + [committed[tid] for tid in readers])
                if creator == 0 and not readers:
                    expected = 0
                assert pstamp == expected, (
                    "version %r pstamp %d, trace says %d"
                    % (identity, pstamp, expected))


class TestScc:
    def test_iterative_tarjan_handles_deep_chains(self):
        graph = DependencyGraph()
        n = 5000
        for i in range(n):
            graph.add_node(i, i + 1, i)
        for i in range(n - 1):
            graph.add_edge(i, i + 1, EDGE_WR)
        graph.add_edge(n - 1, 0, EDGE_RW)
        components = [c for c in strongly_connected_components(graph)
                      if len(c) > 1]
        assert len(components) == 1
        assert len(components[0]) == n


class TestScripts:
    def test_parse_script_maps_keys_in_order(self):
        steps = parse_script("T1 read x\nT1 write y\nT1 commit\n")
        assert [(s.label, s.op, s.key) for s in steps] == [
            ("T1", "read", 0), ("T1", "write", 1), ("T1", "commit", None)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_script("T1 frobnicate x\n")
        with pytest.raises(UsageError):
            parse_script("T1 read\n")

    @pytest.mark.parametrize("op", ["commit", "abort"])
    def test_commit_and_abort_take_no_key(self, op):
        with pytest.raises(UsageError, match="line 2: %s takes no key" % op):
            parse_script("T1 read x\nT1 %s x\n" % op)

    def test_empty_script_runs_to_empty_outcomes(self):
        result = replay_scripted("", SI, SSN)
        assert result.outcomes == {}
        assert result.trace == []

    def test_step_after_conclusion_is_a_script_error(self):
        with pytest.raises(UsageError, match="finished transaction"):
            replay_scripted("T1 read x\nT1 commit\nT1 read x\n", SI, SSN)

    def test_abort_step_and_unfinished_transactions_roll_back(self):
        result = replay_scripted(
            "T1 write x\nT1 abort\nT2 read x\nT3 write y\n", SI, SSN)
        assert result.outcomes == {label: ("aborted", "user")
                                   for label in ("T1", "T2", "T3")}
        assert [event.tid for event in result.trace
                if event.kind == "abort"] == [result.tids[label]
                                              for label in ("T1", "T2", "T3")]
        assert all(head.creator_tid == 0
                   for head in result.engine.store.records)

    def test_more_transactions_than_worker_slots_is_a_script_error(self):
        script = "".join("T%d read x\n" % n for n in range(65))
        with pytest.raises(UsageError,
                           match="script declares more than 64 transactions"):
            replay_scripted(script, SI, SSN)

    def test_replay_is_deterministic(self):
        script = ("T1 read A\nT2 write A\nT2 commit\nT1 read A\nT1 commit\n")
        first = replay_scripted(script, RC, SSN)
        second = replay_scripted(script, RC, SSN)
        assert first.outcomes == second.outcomes
        assert render_trace(first.trace) == render_trace(second.trace)


class TestEnumeration:
    def test_two_two_step_programs_give_six_interleavings(self):
        programs = [[("read", 0), ("commit", None)],
                    [("write", 0), ("commit", None)]]
        assert interleaving_count(programs) == 6
        assert len(list(interleavings(programs))) == 6

    def test_single_program_is_one_interleaving(self):
        programs = [[("write", 0), ("commit", None)]]
        histories = list(enumerate_interleavings(programs))
        assert len(histories) == 1
        assert not histories[0].cyclic

    def test_guard_refuses_oversized_enumerations(self):
        big = [[("read", 0)] * 10 for _ in range(5)]
        with pytest.raises(UsageError, match="exceed"):
            list(enumerate_interleavings(big))

    def test_write_skew_family_all_cycles_carry_violations(self):
        programs = [
            [("read", 0), ("write", 1), ("commit", None)],
            [("read", 1), ("write", 0), ("commit", None)],
        ]
        histories = list(enumerate_interleavings(programs))
        assert len(histories) == interleaving_count(programs)
        cyclic = [h for h in histories if h.cyclic]
        assert cyclic, "write skew must produce at least one cyclic history"
        for history in cyclic:
            assert history.offline_flagged
            assert history.engine_observed

"""Offline checker: graph building, cycle detection, attribution, replay,
and exhaustive interleaving enumeration."""

import tracemalloc

import pytest

from mvcert import (
    CertifierMode, ClientGroup, Scheme, UsageError, WorkloadConfig,
    build_graph, check_trace, enumerate_interleavings, find_violations,
    parse_script, replay_scripted, run_bench,
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

    def test_double_begin_is_diagnosed(self):
        events = trace("""
            begin 64 0
            begin 64 0
        """)
        with pytest.raises(MalformedTrace, match="twice"):
            build_graph(events)


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


def report_blocks(text):
    """The header line and the set of SCC blocks of a check report."""
    header, *lines = text.splitlines(keepends=True)
    blocks = []
    for line in lines:
        if line.startswith("scc "):
            blocks.append("")
        blocks[-1] += line
    return header, set(blocks)


class TestCheckReport:
    def test_golden_check_output(self, tmp_path, capsys):
        path = tmp_path / "two-sccs.trace"
        path.write_text(TWO_SCCS.lstrip())
        assert main(["check", str(path)]) == 2
        header, blocks = report_blocks(capsys.readouterr().out)
        assert header == "serializable=no sccs=2\n"
        assert blocks == {
            "scc size=2 members=1,2 flagged=2\n"
            "edge 1 w:r 2\n"
            "edge 1 w:w 2\n"
            "edge 2 r:w 1\n",
            "scc size=2 members=3,4 flagged=4\n"
            "edge 3 r:w 4\n"
            "edge 4 r:w 3\n",
        }

    def test_check_runs_through_check_trace(self, tmp_path, monkeypatch,
                                            capsys):
        # The benchmark's traced run times the oracle phases beneath
        # check_trace, so the command must call it.
        calls = []

        def spy(events):
            calls.append(len(events))
            return check_trace(events)

        monkeypatch.setattr("mvcert.cli.check_trace", spy)
        path = tmp_path / "two-sccs.trace"
        path.write_text(TWO_SCCS.lstrip())
        assert main(["check", str(path)]) == 2
        assert calls == [20]
        assert capsys.readouterr().out.startswith("serializable=no sccs=2\n")

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
        # Nine-field tuples sharing their kind strings and numbers, and one
        # kind bitmask per dependent pair, take about 234 B per event here;
        # keyword-built events with their own ints and every edge held in
        # a triple set as well took about 557 B.
        config = WorkloadConfig(
            db_size=100, groups=[ClientGroup(1, 8, 12, 3)],
            txns_per_thread=2000, seed=7, emit_trace=True)
        _, events = run_bench(config)
        lines = render_trace(events).splitlines()
        del events
        tracemalloc.start()
        try:
            parsed = parse_trace(lines)
            graph = build_graph(parsed)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(graph.nodes) == 2000
        assert retained / len(parsed) <= 320


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

    def test_empty_script_runs_to_empty_outcomes(self):
        result = replay_scripted("", SI, SSN)
        assert result.outcomes == {}
        assert result.trace == []

    def test_step_after_conclusion_is_a_script_error(self):
        with pytest.raises(UsageError, match="finished transaction"):
            replay_scripted("T1 read x\nT1 commit\nT1 read x\n", SI, SSN)

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

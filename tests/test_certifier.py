"""Certifier behavior: watermark folding, both commit paths, safe snapshots,
the empty-write-set stamp rule, stale-read filtering, the sstamp handshake,
reader bits, and table-granularity stamp actions."""

import threading

import pytest

import mvcert.certifier
from mvcert import (
    INFINITY, CertifierMode, Engine, ExclusionCertifier, Scheme,
    TransactionAborted, build_graph, check_trace, find_violations,
    replay_scripted,
)
from mvcert.kernel import Status, TableMode, is_tid, word_value
from mvcert.store import Store
from mvcert.trace import TraceLog

SI, RC = Scheme.SI, Scheme.RC
SSN, SSI = CertifierMode.SSN, CertifierMode.SSI

BASE_SCHEDULE = """
T1 read B
T3 read A
T2 write B
T2 commit
T3 read B
T1 write A
"""


def outcomes(result):
    return {label: outcome[0] for label, outcome in result.outcomes.items()}


class TestReadWriteHooks:
    def _engine(self):
        return Engine(4, SI, SSN)

    def test_read_folds_creator_stamp_and_tracks(self):
        engine = self._engine()
        writer = engine.begin(0)
        engine.write(writer, 0, "x")
        engine.commit(writer)
        reader = engine.begin(0)
        engine.read(reader, 0)
        assert reader.pstamp == 1
        assert len(reader.reads) == 1

    def test_read_of_overwritten_version_folds_sstamp_untracked(self):
        engine = self._engine()
        writer = engine.begin(0)
        engine.write(writer, 0, "x")
        engine.commit(writer)                      # version at stamp 1
        overwriter = engine.begin(0)
        engine.write(overwriter, 0, "y")
        engine.commit(overwriter)                  # overwrite at stamp 2
        reader = engine.begin(0)                   # snapshot 2, reads "y"
        reader.begin_stamp = 1                     # rewind to see "x"
        engine.read(reader, 0)
        assert word_value(reader.sstamp) == 2
        assert not reader.reads

    def test_forced_window_violation_aborts_at_read(self):
        # reader with pstamp already at the overwriter's watermark
        engine = self._engine()
        w1 = engine.begin(0)
        engine.write(w1, 1, "a")
        engine.commit(w1)                          # stamp 1
        w2 = engine.begin(0)
        engine.write(w2, 0, "b")
        engine.commit(w2)                          # stamp 2
        w3 = engine.begin(0)
        engine.write(w3, 0, "c")
        engine.commit(w3)                          # stamp 3: record 0 has [2, 3]
        reader = engine.begin(0)                   # snapshot 3
        engine.read(reader, 1)                     # pstamp = 1... too low
        reader.pstamp = 3                          # force Def-style collision
        reader.begin_stamp = 2
        with pytest.raises(TransactionAborted) as failure:
            engine.read(reader, 0)                 # folds sstamp = 3 <= pstamp
        assert failure.value.reason == "ssn_exclusion"

    def test_write_folds_previous_access_stamp(self):
        engine = self._engine()
        creator = engine.begin(0)
        engine.write(creator, 0, "x")
        engine.commit(creator)                     # stamp 1
        reader = engine.begin(0)
        engine.read(reader, 0)
        engine.commit(reader)                      # raises pstamp of "x"
        writer = engine.begin(0)
        engine.write(writer, 0, "y")
        assert writer.pstamp == reader.cstamp

    def test_own_overwritten_read_is_skipped_at_commit(self):
        # read then overwrite the same version: the read must not turn into
        # a self anti-dependency
        engine = self._engine()
        creator = engine.begin(0)
        engine.write(creator, 0, "x")
        engine.commit(creator)
        ctx = engine.begin(0)
        engine.read(ctx, 0)
        engine.write(ctx, 0, "y")
        engine.commit(ctx)
        assert ctx.status == Status.COMMITTED


class TestScriptedCommits:
    def test_si_all_three_commit_when_t3_last(self):
        result = replay_scripted(BASE_SCHEDULE + "T1 commit\nT3 commit\n", SI, SSN)
        assert outcomes(result) == {
            "T1": "committed", "T2": "committed", "T3": "committed"}
        assert check_trace(result.trace).clean

    def test_si_t1_last_aborts_t1(self):
        result = replay_scripted(BASE_SCHEDULE + "T3 commit\nT1 commit\n", SI, SSN)
        assert outcomes(result) == {
            "T1": "aborted", "T2": "committed", "T3": "committed"}
        assert result.outcomes["T1"][1] == "ssn_exclusion"

    def test_rc_aborts_t3(self):
        result = replay_scripted(BASE_SCHEDULE + "T1 commit\nT3 commit\n", RC, SSN)
        assert outcomes(result) == {
            "T1": "committed", "T2": "committed", "T3": "aborted"}
        assert result.outcomes["T3"][1] == "ssn_exclusion"

    @pytest.mark.parametrize("serial", [True, False])
    def test_both_commit_paths_agree_on_the_schedule_family(self, serial):
        for tail, expect_aborted in [
                ("T1 commit\nT3 commit\n", None),
                ("T3 commit\nT1 commit\n", "T1")]:
            result = replay_scripted(BASE_SCHEDULE + tail, SI, SSN, serial=serial)
            aborted = [label for label, o in result.outcomes.items()
                       if o[0] == "aborted"]
            assert aborted == ([expect_aborted] if expect_aborted else [])

    def test_write_skew_kills_the_second_committer(self):
        script = ("T1 read X\nT2 read Y\nT1 write Y\nT2 write X\n"
                  "T1 commit\nT2 commit\n")
        result = replay_scripted(script, SI, SSN)
        assert outcomes(result) == {"T1": "committed", "T2": "aborted"}

    def test_nonrepeatable_read_never_commits_both(self):
        # reader sees two different versions of the same record under rc
        script = ("T1 read X\nT2 write X\nT2 commit\nT1 read X\nT1 commit\n")
        result = replay_scripted(script, RC, SSN)
        assert outcomes(result)["T1"] == "aborted"
        assert outcomes(result)["T2"] == "committed"


class TestSafeRetry:
    def test_retry_after_exclusion_abort_succeeds_without_the_edge(self):
        engine = Engine(2, SI, SSN, trace=TraceLog())
        seed = engine.begin(0)
        engine.write(seed, 0, "x0")
        engine.write(seed, 1, "y0")
        engine.commit(seed)

        t1 = engine.begin(0)
        t2 = engine.begin(1)
        engine.read(t1, 0)
        engine.read(t2, 1)
        engine.write(t1, 1, "y1")
        engine.write(t2, 0, "x1")
        engine.commit(t1)
        with pytest.raises(TransactionAborted) as failure:
            engine.commit(t2)
        assert failure.value.reason == "ssn_exclusion"
        successor = t1.tid  # the back-edge successor that doomed t2

        retry = engine.begin(1)
        engine.read(retry, 1)
        engine.write(retry, 0, "x2")
        engine.commit(retry)
        assert retry.status == Status.COMMITTED

        graph = build_graph(engine.trace.merged())
        assert "r:w" not in graph.edge_kinds(retry.tid, successor)
        assert check_trace(engine.trace.merged()).clean


class _ClockThatCommitsInItsDraw:
    """Delegates to a clock; its next draw runs commit between drawing the
    stamp and returning it."""

    def __init__(self, clock, commit):
        self._clock, self.commit = clock, commit

    def __getattr__(self, name):
        return getattr(self._clock, name)

    def next(self):
        stamp = self._clock.next()
        commit, self.commit = self.commit, None
        if commit is not None:
            commit()
        return stamp


class TestSafeSnapshots:
    def test_writer_with_back_edge_over_pre_snapshot_version_aborts(self):
        engine = Engine(4, SI, SSN)
        seed = engine.begin(0)
        engine.write(seed, 0, "a0")
        engine.write(seed, 1, "b0")
        engine.commit(seed)                           # stamp 1

        writer = engine.begin(0)                      # in flight at snapshot
        engine.read(writer, 1)
        overwriter = engine.begin(1)
        engine.write(overwriter, 1, "b1")
        engine.commit(overwriter)                     # back edge: stamp 2
        snap = engine.take_safe_snapshot()            # stamp 3
        engine.write(writer, 0, "a1")                 # overwrites pre-snapshot "a0"
        with pytest.raises(TransactionAborted) as failure:
            engine.commit(writer)
        assert failure.value.reason == "safe_snapshot"
        assert snap == 3

    def test_no_commit_draws_between_the_snapshot_draw_and_its_publish(self):
        # U reads x, Y overwrites x and commits, U writes v; U then commits
        # as soon after the snapshot's draw as the clock lets it.  A query
        # on the snapshot reads v before U and x after Y, so U must see the
        # snapshot, or Q -rw-> U -rw-> Y -wr-> Q commits.
        engine = Engine(4, SI, SSN, trace=TraceLog())
        x, v = 0, 1
        setup = engine.begin(0)
        engine.write(setup, x)
        engine.write(setup, v)
        engine.commit(setup)                          # stamp 1
        updater = engine.begin(0)
        engine.read(updater, x)
        overwriter = engine.begin(1)
        engine.write(overwriter, x)
        engine.commit(overwriter)                     # stamp 2
        engine.write(updater, v)
        outcome = []

        def commit_updater():
            try:
                outcome.append(engine.commit(updater))
            except TransactionAborted as failure:
                outcome.append(failure.reason)

        clock = _ClockThatCommitsInItsDraw(engine.clock, commit_updater)
        engine.clock = engine.cert.clock = clock
        snap = engine.take_safe_snapshot()            # stamp 3
        if clock.commit is not None:
            # The snapshot's draw and publish were one step: U follows it.
            clock.commit = None
            commit_updater()
        assert outcome == ["safe_snapshot"]
        query = engine.begin(1, read_only=True)
        engine.read(query, v)
        engine.read(query, x)
        assert engine.commit(query) == snap == 3
        assert check_trace(engine.trace.merged()).clean

    def test_writer_without_back_edge_commits_despite_snapshot(self):
        engine = Engine(4, SI, SSN)
        seed = engine.begin(0)
        engine.write(seed, 0, "a0")
        engine.commit(seed)
        writer = engine.begin(0)
        engine.take_safe_snapshot()
        engine.write(writer, 0, "a1")                 # pre-snapshot version
        engine.commit(writer)                         # sstamp infinite: fine
        assert writer.status == Status.COMMITTED

    def test_snapshot_reader_skips_certification_and_commits(self):
        engine = Engine(4, SI, SSN, trace=TraceLog())
        seed = engine.begin(0)
        engine.write(seed, 0, "a0")
        engine.commit(seed)
        snap = engine.take_safe_snapshot()
        query = engine.begin(1, read_only=True)
        assert query.snapshot_mode
        assert engine.read(query, 0) == "a0"
        assert not query.reads and query.tracked_reads == 0
        assert engine.commit(query) == snap
        assert check_trace(engine.trace.merged()).clean


class TestReadOnlyStamp:
    def test_empty_write_set_reuses_snapshot_time(self):
        engine = Engine(4, SI, SSN)
        for _ in range(10):
            filler = engine.begin(0)
            engine.write(filler, 0)
            engine.commit(filler)
        reader = engine.begin(0)
        assert reader.begin_stamp == 10
        engine.read(reader, 0)
        assert engine.commit(reader) == 10

    def test_nonempty_write_set_draws_fresh(self):
        engine = Engine(4, SI, SSN)
        writer = engine.begin(0)
        engine.write(writer, 0)
        assert engine.commit(writer) == 1

    def test_duplicate_read_only_stamps_tolerated_by_oracle(self):
        engine = Engine(4, SI, SSN, trace=TraceLog())
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)
        first = engine.begin(0)
        engine.read(first, 0)
        second = engine.begin(1)
        engine.read(second, 0)
        assert engine.commit(first) == engine.commit(second) == 1
        report = check_trace(engine.trace.merged())
        assert report.clean


class TestReadMostly:
    def test_zero_threshold_tracks_everything(self):
        engine = Engine(4, SI, SSN, read_mostly_threshold=0)
        seed = engine.begin(0)
        engine.write(seed, 0)
        engine.commit(seed)
        reader = engine.begin(0, read_mostly=True)
        engine.read(reader, 0)
        assert reader.tracked_reads == 1 and reader.untracked_reads == 0

    def test_staleness_boundary_in_ticks(self):
        threshold = (1 << 20) - 1
        engine = Engine(4, SI, SSN, read_mostly_threshold=threshold)
        first = engine.begin(0)
        engine.write(first, 0)
        engine.commit(first)                      # version stamped 1
        while engine.clock.current() < 10 ** 6:
            engine.clock.next()
        reader = engine.begin(0, read_mostly=True)
        engine.read(reader, 0)                    # age 10^6 - 1 <= threshold
        assert reader.tracked_reads == 1
        while engine.clock.current() < 2 ** 21:
            engine.clock.next()
        late = engine.begin(1, read_mostly=True)
        engine.read(late, 0)                      # age 2^21 - 1 > threshold
        assert late.untracked_reads == 1 and late.tracked_reads == 0

    def test_untracked_read_leaves_reader_bit_after_commit(self):
        engine = Engine(4, SI, SSN, read_mostly_threshold=2)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)
        for _ in range(5):
            engine.clock.next()
        reader = engine.begin(3, read_mostly=True)
        engine.read(reader, 0)
        version = engine.store.records[0]
        assert version.readers & (1 << 3)
        engine.commit(reader)
        assert version.readers & (1 << 3)          # never cleared
        assert engine.table.last_cstamp(3) == reader.cstamp

    def test_handshake_lowers_unsealed_reader_sstamp(self):
        engine = Engine(4, SI, SSN, read_mostly_threshold=2)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.write(seed, 1, "w")
        engine.commit(seed)
        for _ in range(5):
            engine.clock.next()
        reader = engine.begin(1, read_mostly=True)
        engine.read(reader, 0)                     # untracked, bit set
        assert reader.untracked_reads == 1
        updater = engine.begin(2)
        engine.write(updater, 0, "y")
        engine.commit(updater)
        assert word_value(reader.sstamp) == updater.cstamp
        # a later reader of record 1 raises its access stamp past the
        # handshake value, so the read-mostly transaction's overwrite of
        # record 1 collides with its lowered watermark
        late = engine.begin(3)
        engine.read(late, 1)
        engine.commit(late)
        with pytest.raises(TransactionAborted) as failure:
            engine.write(reader, 1, "z")
            engine.commit(reader)
        assert failure.value.reason == "ssn_exclusion"

    def test_sealed_reader_aborts_the_updater(self):
        engine = Engine(4, SI, SSN, read_mostly_threshold=2)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)
        for _ in range(5):
            engine.clock.next()
        reader = engine.begin(1, read_mostly=True)
        engine.read(reader, 0)
        reader.seal_sstamp()                       # reader seals first
        updater = engine.begin(2)
        engine.write(updater, 0, "y")
        with pytest.raises(TransactionAborted) as failure:
            engine.commit(updater)
        assert failure.value.reason == "ssn_exclusion"
        assert reader.sealed
        assert word_value(reader.sstamp) == INFINITY

    @pytest.mark.parametrize("serial", [True, False])
    def test_handshake_pushes_the_updater_watermark(self, serial):
        # R -rw-> U (U overwrites R's stale read of x), U -rw-> W (W
        # overwrote U's read of y first), W -wr-> R (R reads W's z).
        # Pushing only U's commit stamp into R leaves that cycle open.
        engine = Engine(8, SI, SSN, serial_commit=serial,
                        read_mostly_threshold=2, trace=TraceLog())
        x, y, z, pad = 0, 1, 2, 3
        for _ in range(4):
            padding = engine.begin(0)
            engine.write(padding, pad)
            engine.commit(padding)
        updater = engine.begin(1)
        engine.read(updater, y)
        writer = engine.begin(2)
        engine.write(writer, y)
        engine.write(writer, z)
        engine.commit(writer)
        reader = engine.begin(0, read_mostly=True)
        engine.read(reader, z)
        engine.read(reader, x)                    # stale and untracked
        assert reader.untracked_reads == 1
        engine.write(updater, x)
        engine.commit(updater)
        assert word_value(reader.sstamp) == writer.cstamp
        with pytest.raises(TransactionAborted) as failure:
            engine.commit(reader)
        assert failure.value.reason == "ssn_exclusion"
        assert check_trace(engine.trace.merged()).clean

    def test_last_cstamp_feeds_the_updater_pstamp(self):
        engine = Engine(4, SI, SSN, read_mostly_threshold=2)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)
        for _ in range(5):
            engine.clock.next()
        reader = engine.begin(1, read_mostly=True)
        engine.read(reader, 0)
        engine.commit(reader)                      # publishes last_cstamp
        published = engine.table.last_cstamp(1)
        assert published == reader.cstamp
        updater = engine.begin(2)
        engine.write(updater, 0, "y")
        engine.commit(updater)
        assert updater.pstamp >= published

    def test_a_plain_reader_in_flight_brings_no_slot_stamp(self):
        # U -rw-> T only.  R in slot 1 never read x, but committed at 8,
        # after T overwrote U's read of z at 7.  P, a plain reader later in
        # slot 1, reads x and stays in flight: it will meet U's claim in its
        # own commit check, so U's sweep skips it and must not take slot
        # 1's 8 as its pstamp.
        engine = Engine(4, SI, SSN, read_mostly_threshold=1,
                        trace=TraceLog())
        x, y, z = 0, 1, 2
        for key in (x, y, z):
            seed = engine.begin(0)
            engine.write(seed, key)
            engine.commit(seed)
        for _ in range(3):
            engine.clock.next()
        u = engine.begin(0)
        engine.read(u, z)
        t = engine.begin(2)
        engine.write(t, z)
        assert engine.commit(t) == 7
        r = engine.begin(1, read_mostly=True)
        engine.read(r, y)
        assert engine.commit(r) == engine.table.last_cstamp(1) == 8
        p = engine.begin(1)
        engine.read(p, x)
        read = engine.store.records[x]
        assert engine.table.reader_slots(read) == 1 << 1
        assert engine.table.reader_slots(read, False) == 0
        engine.write(u, x)
        engine.commit(u)
        assert u.status == Status.COMMITTED and u.pstamp < 8
        engine.commit(p)
        assert check_trace(engine.trace.merged()).clean

    def test_an_untracked_read_that_sees_a_claim_after_the_sweep_is_tracked(
            self, monkeypatch):
        # R -rw-> U -wr-> T -rw-> R.  U commits and pauses before its
        # post-commit stamping, its reader sweep done.  R then reads U's old
        # x, stale and so untracked, and meets U's claim, which no sweep
        # will visit again.  R must track that read, so that its pre-commit
        # folds U's watermark and refuses to close the cycle.
        engine = Engine(4, SI, SSN, read_mostly_threshold=1,
                        trace=TraceLog())
        x, w, z = 0, 1, 2
        for key in (x, w, z):
            seed = engine.begin(0)
            engine.write(seed, key)
            engine.commit(seed)
        for _ in range(3):
            engine.clock.next()
        r = engine.begin(1, read_mostly=True)
        u = engine.begin(2)
        engine.write(u, x)
        engine.write(u, w)
        swept, release = threading.Event(), threading.Event()
        finalize = Store.finalize_commit

        def paused(store, ctx):
            if ctx is u:
                swept.set()
                release.wait(10)
            return finalize(store, ctx)

        monkeypatch.setattr(Store, "finalize_commit", paused)
        committer = threading.Thread(target=engine.commit, args=(u,))
        committer.start()
        try:
            assert swept.wait(10)
            engine.read(r, x)
            t = engine.begin(3)
            engine.read(t, w)
            engine.read(t, z)
            engine.commit(t)
            with pytest.raises(TransactionAborted) as failure:
                engine.write(r, z)
                engine.commit(r)
        finally:
            release.set()
            committer.join(10)
        assert not committer.is_alive()
        assert u.status == t.status == Status.COMMITTED
        assert failure.value.reason == "ssn_exclusion"
        assert check_trace(engine.trace.merged()).clean

    @pytest.mark.xfail(strict=True, raises=TransactionAborted, reason=(
        "needless abort: an untracked read leaves its slot bit set, so the "
        "reader sweep folds in the slot's later last_cstamp (ROADMAP item "
        "5, accuracy)"))
    def test_sweep_ignores_a_later_reader_in_the_same_slot(self):
        # R1 -rw-> U -rw-> T is acyclic.  R1 (slot 1) read x stale and
        # committed at 7; R2 in the same slot never read x but committed at
        # 9, after T overwrote U's read of z at 8.  U's sweep of x finds
        # slot 1's bit and takes 9 as its pstamp, above its sstamp 8.
        engine = Engine(4, SI, SSN, read_mostly_threshold=1,
                        trace=TraceLog())
        x, y, z = 0, 1, 2
        for key in (x, y, z):
            seed = engine.begin(0)
            engine.write(seed, key)
            engine.commit(seed)
        for _ in range(3):
            engine.clock.next()
        u = engine.begin(0)
        r1 = engine.begin(1, read_mostly=True)
        engine.read(r1, x)
        assert engine.commit(r1) == 7
        engine.read(u, z)
        t = engine.begin(2)
        engine.write(t, z)
        assert engine.commit(t) == 8
        r2 = engine.begin(1, read_mostly=True)
        engine.read(r2, y)
        assert engine.commit(r2) == 9
        engine.write(u, x)
        engine.commit(u)
        assert u.status == Status.COMMITTED
        assert check_trace(engine.trace.merged()).clean


class TestReaderBits:
    """Reader bits mark untracked reads only; the transaction table reports
    tracked readers."""

    def _seeded(self, certifier=SSN):
        engine = Engine(4, SI, certifier)
        seed = engine.begin(0)
        engine.write(seed, 0)
        engine.write(seed, 1)
        engine.commit(seed)
        return engine, [engine.store.records[key] for key in (0, 1)]

    def test_plain_reader_raises_no_bit_and_the_table_reports_it(self):
        engine, (first, second) = self._seeded()
        table = engine.table
        reader = engine.begin(1)
        engine.read(reader, 0)
        assert table.reader_slots(first) == 1 << 1
        assert table.reader_slots(second) == 0
        engine.read(reader, 1)
        assert table.reader_slots(second) == 1 << 1
        engine.write(reader, 2)
        engine.commit(reader)
        assert first.readers == second.readers == 0
        assert table.reader_slots(first) == table.reader_slots(second) == 0

    @pytest.mark.parametrize("certifier, read_mostly",
                             [(SSN, True), (SSI, False)], ids=["rm", "ssi"])
    def test_tracked_reads_raise_no_bit(self, certifier, read_mostly):
        engine, (version, _) = self._seeded(certifier)
        reader = engine.begin(1, read_mostly=read_mostly)
        engine.read(reader, 0)
        assert reader.tracked_reads == 1
        assert version.readers == 0
        assert engine.table.reader_slots(version) == 1 << 1
        engine.commit(reader)
        assert version.readers == 0

    def test_an_untracked_reread_of_a_tracked_version_raises_no_bit(self):
        # The read set already covers the version: the table reports the
        # reader while it is in its slot, and its commit raises the pstamp.
        engine = Engine(4, SI, SSN, read_mostly_threshold=2)
        seed = engine.begin(0)
        engine.write(seed, 0)
        engine.commit(seed)
        version = engine.store.records[0]
        reader = engine.begin(1, read_mostly=True)
        engine.read(reader, 0)
        for _ in range(5):
            engine.clock.next()
        engine.read(reader, 0)
        assert reader.tracked_reads == reader.untracked_reads == 1
        assert version.readers == 0
        assert engine.table.reader_slots(version, False) == 1 << 1
        engine.commit(reader)
        assert version.readers == 0 and version.pstamp == reader.cstamp

    @pytest.mark.parametrize("serial", [True, False])
    @pytest.mark.parametrize("end", ["abort", "commit"])
    def test_a_later_reader_in_the_slot_keeps_an_untracked_bit(
            self, serial, end):
        # R (slot 1) reads x stale, so untracked, and commits at 7; O reads
        # R's overwrite of y, so O -rw-> R.  T, also in slot 1, reads x
        # tracked and ends.  O's overwrite of x (R -rw-> O) must still find
        # slot 1's bit, or O commits the cycle {R, O}.
        engine = Engine(4, SI, SSN, serial_commit=serial,
                        read_mostly_threshold=1, trace=TraceLog())
        x, y = 0, 1
        w = engine.begin(0)
        engine.write(w, x)
        engine.write(w, y)
        engine.commit(w)
        for _ in range(5):
            engine.clock.next()
        o = engine.begin(2)
        r = engine.begin(1, read_mostly=True)
        engine.read(r, x)
        assert r.untracked_reads == 1
        engine.write(r, y)
        assert engine.commit(r) == 7
        engine.read(o, y)
        t = engine.begin(1)
        engine.read(t, x)
        assert t.tracked_reads == 1
        if end == "abort":
            engine.abort(t)
        else:
            engine.commit(t)
        assert engine.store.records[x].readers == 1 << 1
        with pytest.raises(TransactionAborted) as failure:
            engine.write(o, x)
            engine.commit(o)
        assert failure.value.reason == "ssn_exclusion"
        assert check_trace(engine.trace.merged()).clean

    def test_later_overwriter_waits_for_a_reader_paused_after_its_draw(
            self, monkeypatch):
        # The table reports the reader from its first read; an overwriter
        # that draws a later stamp must find it and wait out its verdict.
        engine, (version, _) = self._seeded()
        reader = engine.begin(1)
        engine.read(reader, 0)
        engine.write(reader, 2)
        drawn, release, waiting = (threading.Event(), threading.Event(),
                                   threading.Event())
        certify, settle = (ExclusionCertifier.certify_parallel,
                           mvcert.certifier.settle)

        def paused(cert, ctx):
            if ctx is reader:
                drawn.set()
                release.wait(10)
            return certify(cert, ctx)

        def spy(peer, before):
            if peer is reader:
                waiting.set()
            return settle(peer, before)

        monkeypatch.setattr(ExclusionCertifier, "certify_parallel", paused)
        monkeypatch.setattr(mvcert.certifier, "settle", spy)
        reader_thread = threading.Thread(target=engine.commit, args=(reader,))
        reader_thread.start()
        try:
            assert drawn.wait(10)
            assert engine.table.reader_slots(version) == 1 << 1
            overwriter = engine.begin(2)
            engine.write(overwriter, 0)
            overwriter_thread = threading.Thread(target=engine.commit,
                                                 args=(overwriter,))
            overwriter_thread.start()
            assert waiting.wait(10)
            assert overwriter.status == Status.COMMITTING
        finally:
            release.set()
            reader_thread.join(10)
        overwriter_thread.join(10)
        assert not reader_thread.is_alive()
        assert not overwriter_thread.is_alive()
        assert reader.status == overwriter.status == Status.COMMITTED
        assert overwriter.cstamp > reader.cstamp
        assert overwriter.pstamp >= reader.cstamp

    def test_ssi_writer_finds_a_reader_paused_before_it_loads_the_claim(
            self, monkeypatch):
        # The SSI reader joins its read set before it loads the overwrite
        # claim.  A writer that installs in between sees no claim load to
        # mark it, so it must find the reader through the table itself.
        engine, (version, _) = self._seeded(SSI)
        reader = engine.begin(1)
        loading, release = threading.Event(), threading.Event()
        resolve = mvcert.certifier.overwriter_outcome

        def paused(table, seen, ctx):
            if ctx is reader and not loading.is_set():
                loading.set()
                release.wait(10)
            return resolve(table, seen, ctx)

        monkeypatch.setattr(mvcert.certifier, "overwriter_outcome", paused)
        reader_thread = threading.Thread(target=engine.read,
                                         args=(reader, 0))
        reader_thread.start()
        try:
            assert loading.wait(10)
            assert version in reader.reads
            writer = engine.begin(2)
            engine.write(writer, 0)
            assert writer.ssi_flags & mvcert.certifier.IN_RW
        finally:
            release.set()
            reader_thread.join(10)
        assert not reader_thread.is_alive()
        assert writer.ssi_flags & mvcert.certifier.IN_RW


class TestTableModes:
    def test_scan_then_insert_write_skew_is_caught(self):
        # two transactions scan the table and insert into records the other's
        # scan covered; the table stamps plus the handshake must stop one
        engine = Engine(6, SI, SSN, trace=TraceLog())
        t1 = engine.begin(0)
        t2 = engine.begin(1)
        engine.scan(t1)
        engine.scan(t2)
        engine.declare_table_mode(t1, TableMode.W)
        engine.declare_table_mode(t2, TableMode.W)
        engine.write(t1, 0, "ins-a")
        engine.write(t2, 1, "ins-b")
        engine.commit(t1)
        with pytest.raises(TransactionAborted):
            engine.commit(t2)
        assert check_trace(engine.trace.merged()).clean

    def test_scan_alone_commits_and_raises_table_pstamp(self):
        engine = Engine(4, SI, SSN)
        scanner = engine.begin(0)
        assert engine.scan(scanner) == [None] * 4
        engine.commit(scanner)
        assert scanner.status == Status.COMMITTED
        assert engine.store.table_pstamp.load() == scanner.cstamp

    def test_a_scan_leaves_a_later_transactions_modes_empty(self):
        # Every context starts from one shared empty set of modes, so a
        # scan must replace its transaction's set, never add to it.
        engine = Engine(4, SI, SSN)
        scanner = engine.begin(0)
        engine.scan(scanner)
        engine.declare_table_mode(scanner, TableMode.W)
        engine.commit(scanner)
        assert scanner.table_modes == {TableMode.R, TableMode.W}
        for slot in (0, 1):
            assert not engine.begin(slot).table_modes

    def test_point_read_after_a_scan_is_untracked(self):
        engine = Engine(4, SI, SSN, read_mostly_threshold=0)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)
        scanner = engine.begin(1)
        engine.scan(scanner)
        engine.read(scanner, 0)
        assert not scanner.reads
        assert scanner.untracked_reads == 5        # four scanned, one point

    @pytest.mark.parametrize("serial", [True, False])
    def test_scan_reads_reach_a_later_updater(self, serial):
        # U -rw-> T -wr-> S -rw-> U: the scan's reads are untracked and
        # leave no access stamp, so only U's reader sweep can find S
        engine = Engine(3, SI, SSN, serial_commit=serial, trace=TraceLog())
        u = engine.begin(0)
        engine.read(u, 1)                          # y
        t = engine.begin(1)
        engine.write(t, 1, "t")
        engine.commit(t)
        s = engine.begin(2)
        engine.scan(s)
        engine.commit(s)
        engine.write(u, 0, "u")                    # x, which S read
        with pytest.raises(TransactionAborted) as aborted:
            engine.commit(u)
        assert aborted.value.reason == "ssn_exclusion"
        assert check_trace(engine.trace.merged()).clean

    def test_point_update_without_scans_sees_zero_table_pstamp(self):
        engine = Engine(4, SI, SSN)
        writer = engine.begin(0)
        engine.declare_table_mode(writer, TableMode.W)
        engine.write(writer, 2, "v")
        engine.commit(writer)
        assert engine.store.table_pstamp.load() == 0

    def test_insert_after_committed_scan_inherits_its_stamp(self):
        engine = Engine(4, SI, SSN)
        scanner = engine.begin(0)
        engine.scan(scanner)
        engine.commit(scanner)
        inserter = engine.begin(1)
        engine.declare_table_mode(inserter, TableMode.W)
        engine.write(inserter, 3, "row")
        engine.commit(inserter)
        assert inserter.pstamp >= scanner.cstamp


class TestParallelFinalization:
    def test_committed_overwriter_watermark_folds_in(self):
        # the overwriter survived pre-commit but has not stamped the version
        # yet; the committing reader resolves it through the table and folds
        # the overwriter's successor watermark
        engine = Engine(2, SI, SSN)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)                        # stamp 1
        reader = engine.begin(1)
        engine.read(reader, 0)                     # tracks the version
        overwriter = engine.begin(2)
        engine.write(overwriter, 0, "y")
        from mvcert.kernel import transition_status
        transition_status(overwriter, Status.INFLIGHT, Status.COMMITTING)
        watermark = engine.clock.next()
        overwriter.cstamp = watermark
        overwriter.fold_sstamp(watermark)
        transition_status(overwriter, Status.COMMITTING, Status.COMMITTED)
        # post-commit withheld: the version still carries the tid claim, so
        # the reader's pre-commit must resolve it through the table
        engine.commit(reader)
        assert reader.status == Status.COMMITTED
        assert word_value(reader.sstamp) == watermark

    @pytest.mark.parametrize("certifier", [SSN, SSI])
    def test_an_overwriter_paused_before_finalize_resolves_as_if_final(
            self, monkeypatch, certifier):
        # R reads key 0; W overwrites it and commits on a second thread,
        # paused in finalize_commit, so R's pre-commit meets W's tid claim
        # and resolves W through the table.  R must end as it does when W
        # finalized first: the same verdict, stamps and partner stamp.
        finalize = Store.finalize_commit
        resolve = mvcert.certifier.overwriter_outcome

        def run(pause):
            engine = Engine(2, SI, certifier)
            reader = engine.begin(0)
            engine.read(reader, 0)
            version = engine.store.records[0]
            writer = engine.begin(1)
            engine.write(writer, 0)
            paused, release = threading.Event(), threading.Event()

            def held(store, ctx):
                if ctx is writer and pause:
                    paused.set()
                    release.wait(10)
                finalize(store, ctx)

            kinds = []

            def spy(table, seen, ctx):
                outcome = resolve(table, seen, ctx)
                if ctx is reader:
                    kinds.append(outcome[0])
                return outcome

            monkeypatch.setattr(Store, "finalize_commit", held)
            monkeypatch.setattr(mvcert.certifier, "overwriter_outcome", spy)
            writer_thread = threading.Thread(target=engine.commit,
                                             args=(writer,))
            writer_thread.start()
            try:
                if pause:
                    assert paused.wait(10)
                    assert is_tid(version.sstamp)
                else:
                    writer_thread.join(10)
                    assert not is_tid(version.sstamp)
                engine.commit(reader)
            finally:
                release.set()
                writer_thread.join(10)
            assert not writer_thread.is_alive()
            assert kinds[-1] == "committed"
            stamp = (word_value(reader.sstamp) if certifier is SSN
                     else reader.ssi_partner)
            return writer.cstamp, reader.status, reader.cstamp, stamp

        assert run(True) == run(False) == (1, Status.COMMITTED, 2, 1)

    def test_later_stamp_reader_is_not_waited_for(self):
        # a reader that drew a larger commit stamp cannot be a predecessor;
        # the updater ignores it instead of folding or spinning
        engine = Engine(2, SI, SSN)
        seed = engine.begin(0)
        engine.write(seed, 0, "x")
        engine.commit(seed)                        # stamp 1
        updater = engine.begin(1)
        engine.write(updater, 0, "y")
        reader = engine.begin(2)
        engine.read(reader, 0)
        from mvcert.kernel import transition_status
        transition_status(reader, Status.INFLIGHT, Status.COMMITTING)
        reader.cstamp = 10 ** 6                    # far in the future
        transition_status(reader, Status.COMMITTING, Status.COMMITTED)
        engine.commit(updater)
        assert updater.pstamp < 10 ** 6
        assert updater.status == Status.COMMITTED


class TestWatermarkMonotonicity:
    def test_pstamp_never_falls_and_sstamp_never_rises(self):
        import random
        engine = Engine(6, SI, SSN)
        rng = random.Random(42)
        for slot in range(3):
            seedling = engine.begin(0)
            engine.write(seedling, slot)
            engine.commit(seedling)
        for _ in range(50):
            ctx = engine.begin(rng.randrange(4))
            low, high = 0, INFINITY
            try:
                for _ in range(rng.randint(1, 6)):
                    key = rng.randrange(6)
                    if rng.random() < 0.6:
                        engine.read(ctx, key)
                    else:
                        engine.write(ctx, key)
                    assert ctx.pstamp >= low
                    assert word_value(ctx.sstamp) <= high
                    low = ctx.pstamp
                    high = word_value(ctx.sstamp)
                engine.commit(ctx)
            except TransactionAborted:
                continue

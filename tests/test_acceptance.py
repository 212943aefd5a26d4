"""Acceptance gate: one test per criterion, one pass line per criterion.

The heavy criteria drive the real multi-threaded engine and pipe every trace
through the offline checker; the deterministic ones replay scripted
schedules.  Expected total runtime is a few minutes.
"""

import hashlib
import random
import statistics
import time

import pytest

from mvcert import (
    CertifierMode, ClientGroup, Engine, Scheme, TransactionAborted,
    WorkloadConfig, build_graph, check_trace, enumerate_interleavings,
    replay_scripted, run_bench,
)
from mvcert.kernel import Status
from mvcert.oracle import EDGE_RW, ScriptStep, interleaving_count
from mvcert.trace import TraceLog

SI, RC = Scheme.SI, Scheme.RC
SSN, SSI, NONE = CertifierMode.SSN, CertifierMode.SSI, CertifierMode.NONE

CONTENTIOUS = dict(db_size=100, groups=[ClientGroup(8, 8, 12, 3)],
                   txns_per_thread=1250, retry=True, op_latency=True,
                   emit_trace=True)

TRIPTYCH_PREFIX = """
T1 read B
T3 read A
T2 write B
T2 commit
T3 read B
T1 write A
"""

WRITE_SKEW = ("T1 read X\nT2 read Y\nT1 write Y\nT2 write X\n"
              "T1 commit\nT2 commit\n")


def ok(number, message):
    print("ACCEPTANCE PASS [%d] %s" % (number, message))


def contentious_run(scheme, certifier, seed, serial=False):
    config = WorkloadConfig(scheme=scheme, certifier=certifier, seed=seed,
                            serial_commit=serial, **CONTENTIOUS)
    started = time.perf_counter()
    stats, events = run_bench(config)
    wall = time.perf_counter() - started
    assert wall < 60.0, "run exceeded the one-minute budget (%.1fs)" % wall
    assert stats.committed == 10_000
    return stats, events


def test_criterion_01_serializability_guarantee():
    runs = 0
    for seed in (1, 2, 3):
        for scheme, certifier, paths in (
                (SI, SSN, (False, True)),
                (RC, SSN, (False, True)),
                (SI, SSI, (False,))):
            for serial in paths:
                _, events = contentious_run(scheme, certifier, seed, serial)
                report = check_trace(events)
                assert report.clean, (
                    "%s+%s %s seed=%d leaked %d sccs" % (
                        scheme.value, certifier.value,
                        "serial" if serial else "parallel", seed,
                        len(report.sccs)))
                runs += 1
    ok(1, "zero sccs in every certified run (%d runs of 10k commits)" % runs)


def test_criterion_02_anomaly_detection_control():
    seeds_with_anomalies = 0
    for seed in (1, 2, 3):
        _, events = contentious_run(SI, NONE, seed)
        if check_trace(events).sccs:
            seeds_with_anomalies += 1
    assert seeds_with_anomalies >= 2

    result = replay_scripted(WRITE_SKEW, SI, NONE)
    graph = build_graph(result.trace)
    report = check_trace(result.trace)
    assert len(report.sccs) == 1 and len(report.sccs[0]) == 2
    a, b = report.sccs[0]
    assert graph.edge_kinds(a, b) == {EDGE_RW}
    assert graph.edge_kinds(b, a) == {EDGE_RW}
    assert report.flagged[0]
    ok(2, "plain si anomalous in %d/3 seeds; scripted write skew is one "
          "flagged r:w 2-cycle" % seeds_with_anomalies)


def test_criterion_03_schedule_triptych():
    si_last = replay_scripted(TRIPTYCH_PREFIX + "T1 commit\nT3 commit\n", SI, SSN)
    assert {k: v[0] for k, v in si_last.outcomes.items()} == {
        "T1": "committed", "T2": "committed", "T3": "committed"}

    si_first = replay_scripted(TRIPTYCH_PREFIX + "T3 commit\nT1 commit\n", SI, SSN)
    assert si_first.outcomes["T1"] == ("aborted", "ssn_exclusion")
    assert si_first.outcomes["T2"][0] == "committed"
    assert si_first.outcomes["T3"][0] == "committed"

    rc = replay_scripted(TRIPTYCH_PREFIX + "T1 commit\nT3 commit\n", RC, SSN)
    assert rc.outcomes["T3"] == ("aborted", "ssn_exclusion")
    assert rc.outcomes["T1"][0] == "committed"
    assert rc.outcomes["T2"][0] == "committed"
    ok(3, "triptych outcomes exact: si T3-last all commit; si T1-last "
          "aborts T1; rc aborts T3")


def test_criterion_04_exhaustive_window_check():
    families = {
        "write-skew": [
            [("read", 0), ("write", 1), ("commit", None)],
            [("read", 1), ("write", 0), ("commit", None)],
        ],
        "triptych-programs": [
            [("read", 0), ("write", 1), ("commit", None)],   # T1: rB wA
            [("write", 0), ("commit", None)],                 # T2: wB
            [("read", 1), ("read", 0), ("commit", None)],     # T3: rA rB
        ],
        "anti-dependency-chain": [
            [("read", 0), ("write", 1), ("commit", None)],
            [("read", 1), ("write", 2), ("commit", None)],
            [("read", 2), ("write", 0), ("commit", None)],
        ],
    }
    started = time.perf_counter()
    summary = []
    for name, programs in families.items():
        histories = cyclic = flagged = 0
        for history in enumerate_interleavings(programs):
            histories += 1
            if history.cyclic:
                cyclic += 1
                assert history.offline_flagged, (
                    "%s: cyclic history without a window violation" % name)
                assert history.engine_observed, (
                    "%s: engine bookkeeping missed a violation the oracle "
                    "found" % name)
                flagged += 1
        assert histories == interleaving_count(programs)
        assert cyclic > 0, "%s produced no cyclic histories" % name
        summary.append("%s: %d histories, %d cyclic, all flagged"
                       % (name, histories, cyclic))
    wall = time.perf_counter() - started
    assert wall < 30.0, "enumeration exceeded 30s (%.1fs)" % wall
    ok(4, "; ".join(summary) + " (%.1fs)" % wall)


def test_criterion_05_safe_retry():
    engine = Engine(2, SI, SSN, trace=TraceLog())
    seed = engine.begin(0)
    engine.write(seed, 0, "x0")
    engine.write(seed, 1, "y0")
    engine.commit(seed)

    t1 = engine.begin(0)
    t2 = engine.begin(1)
    engine.read(t1, 0)
    engine.read(t2, 1)
    engine.write(t1, 1)
    engine.write(t2, 0)
    engine.commit(t1)
    with pytest.raises(TransactionAborted) as failure:
        engine.commit(t2)
    assert failure.value.reason == "ssn_exclusion"
    successor = t1.tid

    retry = engine.begin(1)
    engine.read(retry, 1)
    engine.write(retry, 0)
    engine.commit(retry)
    assert retry.status == Status.COMMITTED

    graph = build_graph(engine.trace.merged())
    assert EDGE_RW not in graph.edge_kinds(retry.tid, successor)
    assert check_trace(engine.trace.merged()).clean
    ok(5, "immediate replay of the aborted program commits with no "
          "anti-dependency to its old successor")


def _random_single_thread_schedule(seed):
    rng = random.Random(seed)
    n_txn = rng.randint(2, 4)
    n_keys = rng.randint(2, 4)
    labels = ["T%d" % i for i in range(n_txn)]
    programs = []
    for _ in labels:
        ops = [(rng.choice(["read", "write"]), rng.randrange(n_keys))
               for _ in range(rng.randint(1, 4))]
        ops.append(("commit", None))
        programs.append(ops)
    cursors = [0] * n_txn
    steps = []
    while True:
        live = [i for i in range(n_txn) if cursors[i] < len(programs[i])]
        if not live:
            break
        i = rng.choice(live)
        op, key = programs[i][cursors[i]]
        cursors[i] += 1
        steps.append(ScriptStep(labels[i], op, key))
    return steps, rng.choice([SI, RC])


def test_criterion_06_serial_parallel_differential():
    for seed in range(1000):
        steps, scheme = _random_single_thread_schedule(seed)
        latched = replay_scripted(steps, scheme, SSN, serial=True,
                                  on_aborted="skip")
        latchfree = replay_scripted(steps, scheme, SSN, serial=False,
                                    on_aborted="skip")
        assert latched.outcomes == latchfree.outcomes, "seed %d" % seed
        assert (latched.engine.store.dump_stamps()
                == latchfree.engine.store.dump_stamps()), "seed %d" % seed
    ok(6, "1000 seeded schedules: identical verdicts and version stamps "
          "on both commit paths")


def _replay_with_read_mostly_t0(steps, scheme, serial, threshold):
    """Replay a criterion-6 schedule with T0 begun read-mostly."""
    engine = Engine(4, scheme, SSN, serial_commit=serial,
                    read_mostly_threshold=threshold)
    contexts, outcomes = {}, {}
    for step in steps:
        if step.label in outcomes:
            continue
        ctx = contexts.get(step.label)
        if ctx is None:
            ctx = contexts[step.label] = engine.begin(
                len(contexts), read_mostly=step.label == "T0")
        try:
            if step.op == "read":
                engine.read(ctx, step.key)
            elif step.op == "write":
                engine.write(ctx, step.key)
            else:
                outcomes[step.label] = ("committed", engine.commit(ctx))
        except TransactionAborted as aborted:
            outcomes[step.label] = ("aborted", aborted.reason)
    return outcomes, engine.store.dump_stamps()


@pytest.mark.parametrize("threshold", [0, 2])
def test_read_mostly_serial_parallel_differential(threshold):
    for seed in range(1000):
        steps, scheme = _random_single_thread_schedule(seed)
        latched = _replay_with_read_mostly_t0(steps, scheme, True, threshold)
        latchfree = _replay_with_read_mostly_t0(steps, scheme, False,
                                                threshold)
        assert latched == latchfree, "seed %d" % seed


# Digests of the verdicts, the trace and (except under the bare `none`, which
# leaves no access stamps) the version stamps of the first 200 criterion-6
# schedules, recorded before the certifiers moved behind one interface.  ssi
# replays every schedule on si, the others on the schedule's own scheme.
SCHEDULE_DIGESTS = {
    "none": "52affa3559799c22",
    "ssi": "96823a4b5f283402",
    "ssn-parallel": "c73ae9a0b99278db",
    "ssn-serial": "c73ae9a0b99278db",
}


@pytest.mark.parametrize("mode", sorted(SCHEDULE_DIGESTS))
def test_seeded_schedules_replay_to_recorded_digests(mode):
    certifier = {"none": NONE, "ssi": SSI}.get(mode, SSN)
    digest = hashlib.sha256()
    for seed in range(200):
        steps, scheme = _random_single_thread_schedule(seed)
        result = replay_scripted(steps, SI if mode == "ssi" else scheme,
                                 certifier, serial=mode != "ssn-parallel",
                                 on_aborted="skip")
        run = [sorted(result.outcomes.items()), result.trace]
        if mode != "none":
            run.append(result.engine.store.dump_stamps())
        digest.update(repr(run).encode())
    assert digest.hexdigest()[:16] == SCHEDULE_DIGESTS[mode]


def test_criterion_07_write_intensity_trend():
    completion = {}
    for scheme in (RC, SI):
        rates = []
        for seed in (1, 2, 3):
            config = WorkloadConfig(
                db_size=1000, groups=[ClientGroup(8, 20, 20, 20)],
                txns_per_thread=400, seed=seed, scheme=scheme,
                certifier=SSN, retry=False, op_latency=True)
            stats, _ = run_bench(config)
            rates.append(stats.committed / stats.offered)
        completion[scheme] = statistics.mean(rates)
    relative = completion[RC] / completion[SI]
    assert relative >= 1.2, (
        "rc completion %.3f does not exceed si %.3f by 20%% relative"
        % (completion[RC], completion[SI]))
    ok(7, "100%%-writes completion: rc %.3f vs si %.3f (%.2fx)"
       % (completion[RC], completion[SI], relative))


def test_criterion_08_safe_snapshot_trend():
    intervals = (16, 32, 64, 128)
    means, stds = [], []
    for interval in intervals:
        fractions = []
        for seed in range(1, 6):
            config = WorkloadConfig(
                db_size=100,
                groups=[ClientGroup(6, 8, 12, 3),
                        ClientGroup(2, 8, 12, 0, read_only=True)],
                txns_per_thread=400, seed=seed, scheme=SI, certifier=SSN,
                retry=True, safe_snapshot_interval=interval,
                op_latency=True, emit_trace=True)
            stats, events = run_bench(config)
            assert check_trace(events).clean, (
                "snapshot run leaked sccs at interval %d" % interval)
            fractions.append(stats.aborts("safe_snapshot") / stats.offered)
        means.append(statistics.mean(fractions))
        stds.append(statistics.pstdev(fractions))
    for i in range(len(intervals) - 1):
        allowance = max(stds[i], stds[i + 1])
        assert means[i + 1] <= means[i] + allowance, (
            "snapshot abort fraction rose from %.4f to %.4f at interval %d"
            % (means[i], means[i + 1], intervals[i + 1]))
    assert means[-1] < 0.01
    ok(8, "snapshot-abort fraction over intervals %s: %s, zero sccs "
          "throughout" % (list(intervals),
                          ["%.4f" % m for m in means]))


def test_criterion_09_read_mostly_tracking():
    def mixed(threshold, seed=1):
        config = WorkloadConfig(
            db_size=3000,
            groups=[ClientGroup(2, 100, 200, 1,
                                read_mostly=bool(threshold)),
                    ClientGroup(2, 8, 12, 3)],
            txns_per_thread=300, seed=seed, scheme=SI, certifier=SSN,
            retry=True, read_mostly_threshold=threshold, emit_trace=True)
        stats, events = run_bench(config)
        assert check_trace(events).clean
        return stats.groups[0]

    plain = mixed(0)
    filtered = mixed(40)
    assert plain.untracked_reads == 0
    reduction = 1 - filtered.tracked_reads / plain.tracked_reads
    assert reduction >= 0.90, (
        "tracked-read reduction only %.1f%%" % (100 * reduction))
    ok(9, "read-set entries cut by %.1f%% (%d -> %d tracked), zero sccs"
       % (100 * reduction, plain.tracked_reads, filtered.tracked_reads))


def test_criterion_10_repeatable_read_enforcement():
    from mvcert.oracle import interleavings, steps_for_order
    reader = [("read", 0), ("read", 0), ("commit", None)]
    writer = [("write", 0), ("commit", None)]
    orders = list(interleavings([reader, writer]))
    assert len(orders) == 10
    divergent = 0
    for order in orders:
        steps = steps_for_order([reader, writer], ["R", "W"], order)
        result = replay_scripted(steps, RC, SSN, serial=True,
                                 on_aborted="skip")
        reader_tid = result.tids["R"]
        versions = [event.ver_creator for event in result.trace
                    if event.kind == "read" and event.tid == reader_tid]
        if len(versions) == 2 and versions[0] != versions[1]:
            divergent += 1
            both = (result.outcomes["R"][0] == "committed"
                    and result.outcomes["W"][0] == "committed")
            assert not both, (
                "non-repeatable read committed on both sides: %s"
                % (order,))
    assert divergent > 0
    ok(10, "all %d commit orderings checked; %d exhibited the "
           "non-repeatable read and none committed both sides"
       % (len(orders), divergent))

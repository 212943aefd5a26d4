"""One benchmark invocation: units, checks, and the metrics they give.

A run repeats units (workloads.py) until its time is up.  Every unit must
repeat the first one's counts exactly.

``Run.untraced`` gives the end-to-end metrics with nothing patched.  They
take the fastest unit's throughput and the median set-up time; the other
quantities it prints are medians over units.  ``Run.traced`` gives the per-layer metrics: one unit
runs with span and counting wrappers installed (spans.py), and untraced units
of the same stream under ``ssn`` and under ``none`` give the overhead of
tracing and the certifier's cost.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from pathlib import Path

import workloads
from mvcert import CertifierMode

OUT = Path(__file__).resolve().parent / "out"

MIN_UNITS = 3
SETUP_BATCH_SECONDS = 0.1

# (name, unit, better, bound): reported by --trace 0 on every workload.
END_TO_END = [
    ("commit_tps", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

_CALLS = ("calls", "count", "lower")
_P50 = ("p50_us", "us", "lower")
_P99 = ("p99_us", "us", "lower")
_SELF = ("self_s", "s", "lower")
_STORE_FUNCS = ("visible_version", "install_version", "creation_stamp",
                "register_reader", "finalize_commit", "rollback")
_CERT_FUNCS = ("on_read", "on_write", "acquire_commit_stamp",
               "certify_parallel")
_ENGINE_FUNCS = ("begin", "read", "write", "commit", "abort")
_ORACLE_FUNCS = ("build_graph", "strongly_connected_components",
                 "recompute_watermarks", "find_violations")

# (name, unit, better): reported by --trace 1 on every workload.  A layer a
# workload does not run reports 0.
PER_LAYER = [
    *(("store.%s.%s" % (f, s), u, b) for f in _STORE_FUNCS
      for s, u, b in (_CALLS, _P50, _SELF)),
    ("store.chain_hops_per_read", "count", "lower"),
    ("store.bytes_per_version", "B", "lower"),
    ("kernel.rmw_per_commit", "count", "lower"),
    ("kernel.clock_draws_per_commit", "count", "lower"),
    *(("certifier.%s.%s" % (f, s), u, b) for f in _CERT_FUNCS
      for s, u, b in (_CALLS, _P50, _P99, _SELF)),
    ("certifier.tracked_reads_per_commit", "count", "lower"),
    ("certifier.untracked_share", "share", "higher"),
    ("certifier.exclusion_abort_share", "share", "lower"),
    ("certifier.ssn_over_none", "ratio", "higher"),
    *(("schedulers.Engine.%s.%s" % (f, s), u, b) for f in _ENGINE_FUNCS
      for s, u, b in (_CALLS, _P50, _P99, _SELF)),
    ("trace.emit.calls", "count", "lower"),
    ("trace.emit.self_s", "s", "lower"),
    ("trace.merged_s", "s", "lower"),
    ("trace.write_s", "s", "lower"),
    ("trace.parse_us_per_event", "us", "lower"),
    ("trace.events_per_commit", "count", "lower"),
    *(("oracle.%s.%s" % (f, s), u, "lower") for f in _ORACLE_FUNCS
      for s, u in (("s", "s"), ("us_per_event", "us"))),
    ("oracle.nodes", "count", "lower"),
    ("oracle.edges", "count", "lower"),
    ("cli.check_s", "s", "lower"),
    ("bench.harness_self_s", "s", "lower"),
    ("bench.traced_tps_ratio", "ratio", "higher"),
    # End-to-end quantities that not every workload has, so they cannot be
    # bounded end-to-end metrics; taken from the untraced units of the run.
    ("abort_ratio", "ratio", "lower"),
    ("anomaly_txns", "count", "lower"),
    ("check_eps", "1/s", "higher"),
    ("txn_p50_ms", "ms", "lower"),
    ("txn_p99_ms", "ms", "lower"),
    ("reader_commit_tps", "1/s", "higher"),
]


def src_lines(package: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in package.glob("*.py"))


class Run:
    """One benchmark invocation: units, checks and metric assembly."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.reference = None
        self.unit_tps: list[float] = []
        self.lines: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def unit(self, certifier=CertifierMode.SSN, check=True):
        unit = workloads.run_unit(self.workload, self.seed, OUT,
                                  certifier=certifier, check=check)
        if certifier is not CertifierMode.SSN:
            return unit
        if self.reference is None:
            self.reference = unit
        elif unit.counts() != self.reference.counts():
            raise workloads.StructuralFailure(
                "unit counts %s differ from the first unit's %s"
                % (unit.counts(), self.reference.counts()))
        return unit

    def setup_batch(self) -> list[float]:
        """Engine construction times, each on a freshly collected heap.

        Batches run between units, so set-up is sampled across the whole
        run like throughput is.
        """
        times = []
        began = time.perf_counter()
        while not times or time.perf_counter() - began < SETUP_BATCH_SECONDS:
            gc.collect()
            started = time.perf_counter()
            engine = workloads.new_engine(self.workload, CertifierMode.SSN)
            times.append(time.perf_counter() - started)
            del engine
        return times

    # ---------------- end-to-end ----------------

    def e2e_summary(self, units) -> dict:
        """Medians over units of everything a user of the engine sees."""
        first = units[0]
        checked = [u for u in units if u.check_s]
        self.unit_tps = [u.committed / u.engine_s for u in units]
        summary = {
            "commit_tps": statistics.median(self.unit_tps),
            "abort_ratio": first.aborted / first.attempts,
            "anomaly_txns": first.anomaly_txns,
            "check_eps": statistics.median(
                u.events / u.check_s for u in checked) if checked else 0,
            "txn_p50_ms": 0.0, "txn_p99_ms": 0.0,
            "reader_commit_tps": statistics.median(
                u.reader_commits / u.engine_s for u in units),
        }
        if first.latencies_ns:
            summary["txn_p50_ms"] = statistics.median(
                statistics.median(u.latencies_ns) for u in units) / 1e6
            summary["txn_p99_ms"] = statistics.median(
                statistics.quantiles(u.latencies_ns, n=100)[98]
                for u in units) / 1e6
        samples = len(first.latencies_ns)
        self.lines += [
            "commit_tps %.1f 1/s fastest unit, %.1f median (%d units, %d "
            "commits each)" % (max(self.unit_tps), summary["commit_tps"],
                               len(units), first.committed),
            "abort_ratio %.4f ratio (%d aborted of %d attempts: %s; %d "
            "drained at the end, not counted)"
            % (summary["abort_ratio"], first.aborted, first.attempts,
               " ".join("%s=%d" % kv for kv in first.aborts.items() if kv[1])
               or "none",
               first.drained),
            "anomaly_txns %d count (of %d committed)"
            % (first.anomaly_txns, first.committed),
        ]
        if checked:
            self.lines.append("check_eps %.1f 1/s (median of %d checks of "
                              "%d events)" % (summary["check_eps"],
                                              len(checked), first.events))
        if samples:
            self.lines += [
                "txn_p50_ms %.4f ms (%d samples per unit)"
                % (summary["txn_p50_ms"], samples),
                "txn_p99_ms %.4f ms (%d samples per unit, %d beyond)"
                % (summary["txn_p99_ms"], samples,
                   samples - math.ceil(0.99 * samples)),
            ]
        if first.reader_commits:
            self.lines.append(
                "reader_commit_tps %.2f 1/s (%d reader commits per unit)"
                % (summary["reader_commit_tps"], first.reader_commits))
        return summary

    def untraced(self) -> dict:
        # The first unit runs the offline check; the later ones repeat its
        # counts exactly, so they need not.
        units = [self.unit()]
        setup = self.setup_batch()
        while len(units) < MIN_UNITS or self.elapsed() < self.seconds:
            units.append(self.unit(check=False))
            setup += self.setup_batch()
        self.e2e_summary(units)
        # Other tenants of the host only ever slow a unit down, so the
        # fastest unit is the steadier measure of the engine (README.md).
        metrics = {
            "commit_tps": max(self.unit_tps),
            "peak_rss_mb": workloads.peak_rss_kb() / 1024,
            "setup_s": statistics.median(setup),
        }
        self.lines += [
            "setup_s %.6f s median (%d constructions of a %d-record store)"
            % (metrics["setup_s"], len(setup), self.workload.db_size),
            "peak_rss_mb %.1f MB (whole run)" % metrics["peak_rss_mb"],
        ]
        return metrics

    # ---------------- per layer ----------------

    def traced(self) -> dict:
        # Loaded here so numpy stays out of the untraced run's memory.
        import spans
        # Peak RSS once a store was built and freed: the first unit's peak
        # beyond it is what its versions (and its trace) hold.
        gc.collect()
        engine = workloads.new_engine(self.workload, CertifierMode.SSN)
        del engine
        base_kb = workloads.peak_rss_kb()
        ssn = [self.unit()]
        growth_kb = ssn[0].rss_engine_kb - base_kb
        recorder = spans.Recorder()
        with spans.instrument(recorder):
            traced = self.unit()
        none = []
        while not none or self.elapsed() < self.seconds:
            none.append(self.unit(CertifierMode.NONE, check=False))
            ssn.append(self.unit())
        summary = self.e2e_summary(ssn)
        none_tps = statistics.median(u.committed / u.engine_s for u in none)
        traced_tps = traced.committed / traced.engine_s
        metrics = layer_metrics(recorder, traced)
        retained = recorder.fresh_versions - recorder.unlinked_versions
        metrics.update({
            "store.bytes_per_version":
                growth_kb * 1024 / retained if retained else 0.0,
            "certifier.ssn_over_none": summary["commit_tps"] / none_tps,
            "bench.traced_tps_ratio": traced_tps / summary["commit_tps"],
        })
        for name in ("abort_ratio", "anomaly_txns", "check_eps",
                     "txn_p50_ms", "txn_p99_ms", "reader_commit_tps"):
            metrics[name] = summary[name]
        recorder.write(OUT / ("spans-%s-seed%d" % (self.workload.name,
                                                    self.seed)))
        self.lines += [
            "traced unit: %d spans, commit_tps %.1f traced against %.1f "
            "untraced (ratio %.3f)" % (len(recorder.start), traced_tps,
                                       summary["commit_tps"],
                                       metrics["bench.traced_tps_ratio"]),
            "ssn over none: %.1f against %.1f 1/s (%d none units)"
            % (summary["commit_tps"], none_tps, len(none)),
        ]
        return metrics


def layer_metrics(recorder, unit) -> dict:
    """Per-layer metrics of one traced unit from its spans and counters."""
    import numpy as np
    name_of, parent, duration, self_time = recorder.arrays()
    ids = {name: index for index, name in enumerate(recorder.names)}

    def mask(name):
        return name_of == ids.get(name, -1)

    def under(name, parent_name):
        """Spans of name whose parent span is a parent_name span."""
        selected = mask(name) & (parent >= 0)
        parent_ids = name_of[np.where(selected, parent, 0)]
        return selected & (parent_ids == ids.get(parent_name, -1))

    metrics = {}

    def calls_and_times(prefix, stats):
        selected = mask(prefix)
        taken = duration[selected] * 1e6
        for stat, _unit, _better in stats:
            if stat == "calls":
                value = int(selected.sum())
            elif stat == "self_s":
                value = float(self_time[selected].sum())
            elif not taken.size:
                value = 0.0
            else:
                value = float(np.percentile(
                    taken, 50 if stat == "p50_us" else 99))
            metrics["%s.%s" % (prefix, stat)] = value

    for f in _STORE_FUNCS:
        calls_and_times("store." + f, (_CALLS, _P50, _SELF))
    for f in _CERT_FUNCS:
        calls_and_times("certifier." + f, (_CALLS, _P50, _P99, _SELF))
    for f in _ENGINE_FUNCS:
        calls_and_times("schedulers.Engine." + f,
                        (_CALLS, _P50, _P99, _SELF))

    commits = unit.committed
    reads = metrics["store.visible_version.calls"]
    all_reads = unit.tracked_reads + unit.untracked_reads
    emits = np.isin(name_of, [ids[n] for n in ids
                              if n.startswith("trace.emit.")])
    events = unit.events

    def per_event(seconds):
        return seconds / events * 1e6 if events else 0.0

    oracle = {
        "build_graph": float(duration[under("oracle.build_graph",
                                            "oracle.check_trace")].sum()),
        "strongly_connected_components": float(duration[under(
            "oracle.strongly_connected_components",
            "oracle.find_violations")].sum()),
        "recompute_watermarks": float(duration[under(
            "oracle.recompute_watermarks", "oracle.find_violations")].sum()),
        "find_violations": float(self_time[under(
            "oracle.find_violations", "oracle.check_trace")].sum()),
    }
    for f, seconds in oracle.items():
        metrics["oracle.%s.s" % f] = seconds
        metrics["oracle.%s.us_per_event" % f] = per_event(seconds)
    metrics.update({
        "store.chain_hops_per_read":
            recorder.chain_hops / reads if reads else 0.0,
        "kernel.rmw_per_commit": recorder.count("kernel.rmw") / commits,
        "kernel.clock_draws_per_commit":
            recorder.count("kernel.clock_draw") / commits,
        "certifier.tracked_reads_per_commit": unit.tracked_reads / commits,
        "certifier.untracked_share":
            unit.untracked_reads / all_reads if all_reads else 0.0,
        "certifier.exclusion_abort_share":
            unit.aborts["ssn_exclusion"] / unit.aborted
            if unit.aborted else 0.0,
        "trace.emit.calls": int(emits.sum()),
        "trace.emit.self_s": float(self_time[emits].sum()),
        "trace.merged_s": float(duration[mask("trace.merged")].sum()),
        "trace.write_s": float(duration[mask("trace.write")].sum()),
        "trace.parse_us_per_event":
            per_event(float(duration[mask("trace.parse")].sum())),
        "trace.events_per_commit": events / commits,
        "oracle.nodes": recorder.graph_size[0],
        "oracle.edges": recorder.graph_size[1],
        "cli.check_s": float(duration[mask("cli.check")].sum())
            - sum(oracle.values()),
        "bench.harness_self_s":
            float(self_time[mask("bench.harness")].sum()),
    })
    return metrics

"""Span recording for the traced run, from outside the engine.

``instrument`` replaces public methods of mvcert's classes, and the oracle's
module functions, with wrappers that record one span per call: name, parent
span, start and end in nanoseconds.  Spans go into flat in-memory arrays and
are written out once the run is over.  A span's self time is its duration
minus the durations of its child spans.  ``AtomicCell`` read-modify-write
methods and clock draws get counting wrappers instead, which count exactly
and record no span.  Nothing is patched outside the ``with`` block, so the
untraced run executes the engine as shipped.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

import mvcert.bench as mbench
import mvcert.cli as mcli
import mvcert.oracle as moracle
import mvcert.trace as mtrace
import workloads
from mvcert import Engine, ExclusionCertifier, GlobalClock, Store, TraceLog
from mvcert.kernel import AtomicCell

# (class or module, attribute, span name) of every timed callable.  The CLI
# imported some oracle and trace functions by name, so they are patched
# there too.
TIMED = [
    (Engine, "__init__", "schedulers.Engine.init"),
    *((Engine, m, "schedulers.Engine." + m)
      for m in ("begin", "read", "write", "commit", "abort")),
    *((Store, m, "store." + m)
      for m in ("visible_version", "install_version", "creation_stamp",
                "register_reader", "finalize_commit", "rollback",
                "check_chains")),
    *((ExclusionCertifier, m, "certifier." + m)
      for m in ("on_read", "on_write", "acquire_commit_stamp",
                "certify_parallel")),
    *((TraceLog, m, "trace.emit." + m)
      for m in ("begin", "read", "write", "commit", "abort")),
    (TraceLog, "merged", "trace.merged"),
    (mbench, "run_bench", "bench.harness"),
    (workloads, "drive", "bench.harness"),
    (mtrace, "write_trace", "trace.write"),
    (mcli, "read_trace", "trace.parse"),
    (mcli, "_cmd_check", "cli.check"),
    *((module, "build_graph", "oracle.build_graph")
      for module in (moracle, mcli)),
    *((module, "check_trace", "oracle.check_trace")
      for module in (moracle, mcli)),
    (moracle, "strongly_connected_components",
     "oracle.strongly_connected_components"),
    (moracle, "recompute_watermarks", "oracle.recompute_watermarks"),
    (moracle, "find_violations", "oracle.find_violations"),
]

RMW_METHODS = ("compare_and_swap", "fetch_add", "fetch_or", "fetch_and",
               "fold_min", "fold_max")


class Recorder:
    """In-memory span arrays, name table and exact call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self.chain_hops = 0
        self.fresh_versions = 0
        self.unlinked_versions = 0
        self.graph_size = (0, 0)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        nid = self.name_id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = began
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def count(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    def _visible_version(self, fn):
        timed = self.timed("store.visible_version", fn)

        def wrapper(store, ctx, record, **kwargs):
            version = timed(store, ctx, record, **kwargs)
            # Counted outside the span, so the walk costs the span nothing.
            walk = record.head.load()
            while walk is not version:
                walk = walk.prev
                self.chain_hops += 1
            return version

        return wrapper

    def _install_version(self, fn):
        timed = self.timed("store.install_version", fn)

        def wrapper(store, ctx, record, payload):
            head = record.head.load()
            version = timed(store, ctx, record, payload)
            self.fresh_versions += version is not head
            return version

        return wrapper

    def _rollback(self, fn):
        timed = self.timed("store.rollback", fn)

        def wrapper(store, ctx):
            self.unlinked_versions += len(ctx.writes)
            return timed(store, ctx)

        return wrapper

    def _build_graph(self, fn):
        timed = self.timed("oracle.build_graph", fn)

        def wrapper(events):
            graph = timed(events)
            self.graph_size = (len(graph.nodes), len(graph.edges))
            return graph

        return wrapper

    # ---------------- aggregation ----------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        duration = (end - start).astype(np.float64) / 1e9
        children = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        return name_of, parent, duration, duration - children

    def write(self, path: Path) -> None:
        """Spans as a numpy archive; names in a JSON side file."""
        np.savez(path.with_suffix(".npz"),
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Install every wrapper; restore the originals on exit."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    special = {"store.visible_version": recorder._visible_version,
               "store.install_version": recorder._install_version,
               "store.rollback": recorder._rollback,
               "oracle.build_graph": recorder._build_graph}
    try:
        for owner, attr, name in TIMED:
            fn = owner.__dict__[attr]
            make = special.get(name)
            patch(owner, attr, make(fn) if make else recorder.timed(name, fn))
        for method in RMW_METHODS:
            patch(AtomicCell, method,
                  recorder.counted("kernel.rmw", AtomicCell.__dict__[method]))
        patch(GlobalClock, "next", recorder.counted(
            "kernel.clock_draw", GlobalClock.__dict__["next"]))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

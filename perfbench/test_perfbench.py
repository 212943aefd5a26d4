"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mvcert import Engine, Store  # noqa: E402


def traced_unit(workload, seed, out_dir):
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        unit = workloads.run_unit(workload, seed, out_dir)
    return unit, recorder


@pytest.mark.parametrize("name,commits,seed", [
    ("hot-8c", 400, 3),
    # The full unit: seed 2 shows the handshake cycles within it.
    ("read-mostly-8c", 3000, 2),
])
def test_same_seed_repeats_every_count(name, commits, seed, tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS[name], commits=commits)
    first, first_spans = traced_unit(workload, seed, tmp_path)
    second, second_spans = traced_unit(workload, seed, tmp_path)
    untraced = workloads.run_unit(workload, seed, tmp_path)
    assert first.aborted > 0 and first.events > 0
    assert first.counts() == second.counts() == untraced.counts()
    assert first.anomaly_txns == second.anomaly_txns == untraced.anomaly_txns
    assert first_spans.count("kernel.rmw") > 0
    assert first_spans.count("kernel.rmw") == second_spans.count("kernel.rmw")
    if name == "read-mostly-8c":
        assert first.anomaly_txns > 0  # known defect, reported as is


def test_hot_8c_checks_clean(tmp_path):
    unit = workloads.run_unit(workloads.WORKLOADS["hot-8c"], 1, tmp_path)
    assert unit.check_s > 0
    assert unit.anomaly_txns == 0
    assert unit.drained > 0
    assert 0.3 < unit.aborted / unit.attempts < 0.7


def test_instrument_restores_the_engine(tmp_path):
    begin, visible = Engine.begin, Store.visible_version
    workload = dataclasses.replace(workloads.WORKLOADS["hot-8c"], commits=50)
    unit, recorder = traced_unit(workload, 1, tmp_path)
    assert Engine.begin is begin and Store.visible_version is visible
    names = set(recorder.names)
    assert {"schedulers.Engine.commit", "store.rollback", "cli.check",
            "oracle.find_violations", "bench.harness"} <= names
    _, _, duration, self_time = recorder.arrays()
    assert (self_time <= duration).all() and (self_time > -1e-6).all()


def test_missing_drain_is_a_structural_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(Engine, "abort", lambda self, ctx, reason="user": None)
    workload = dataclasses.replace(workloads.WORKLOADS["hot-8c"], commits=50)
    # Seed 2 stops with a writer in flight.
    with pytest.raises(workloads.StructuralFailure, match="uncommitted head"):
        workloads.run_unit(workload, 2, tmp_path)


@pytest.mark.parametrize("trace,spec", [(0, measure.END_TO_END),
                                        (1, measure.PER_LAYER)])
def test_result_line_names_every_metric(trace, spec, tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "OUT", tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = run.main(["--workload", "hot-8c", "--seed", "1",
                           "--seconds", "0", "--trace", str(trace)])
    assert status == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(name, unit) for name, unit, *_ in spec]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in measure.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in measure.PER_LAYER]
    assert spec["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-8c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

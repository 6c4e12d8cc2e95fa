"""The benchmark's own tests: toy-size smokes, the metric-table validator,
span arithmetic, and the linter.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import LAYERS
from perfbench.spans import Patches, SpanRecorder, render_tree, summarize
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_workload_reports_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_trace_pass_adds_up(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from perfbench.boundaries import install
    from perfbench.layers import layer_metrics

    workload = WORKLOADS["trace"](3, tmp_path, toy=True)
    recorder = SpanRecorder()
    patches = install(recorder)
    try:
        traced = workload.run_pass(recorder)
    finally:
        patches.restore()
    stats = summarize(recorder)
    for root in ("trace.cold", "trace.analyze"):
        children = [p for p in stats.paths if len(p) == 2 and p[0] == root]
        covered = sum(stats.paths[p][1] for p in children) + stats.paths[(root,)][2]
        assert covered == pytest.approx(stats.paths[(root,)][1], abs=1e-9)
    assert {p[1] for p in stats.paths if p[0] == "trace.cold" and len(p) == 2} >= {
        "workload.graph", "workload.context", "parallel.generate", "crawler.cache_put"
    }
    metrics = layer_metrics(stats, workload.layer_values(traced), traced, traced)
    assert metrics["parallel.workers_used"][0] == 1
    assert metrics["crawler.cache_bytes"][0] > 0
    assert metrics["tracing.overhead_s"][0] == 0.0


def test_benchmark_json_is_consistent():
    spec = _spec()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(workloads) == sorted(WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in end_to_end
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in LAYERS
    ]
    for layer in LAYERS:
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert metric in end_to_end and workload in workloads, (layer.name, metric, workload)


def test_spans_add_up_and_patches_restore():
    class Box:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    recorder = SpanRecorder()
    patches = Patches()
    patches.wrap(Box, "outer", lambda fn: recorder.timed("box.outer", fn))
    patches.wrap(Box, "inner", lambda fn: recorder.timed("box.inner", fn))
    with recorder.span("root"):
        assert Box().outer() == 2
    patches.restore()
    assert Box.__dict__["inner"].__name__ == "inner" and not hasattr(Box.inner, "__wrapped__")

    stats = summarize(recorder)
    assert stats.calls("box.inner") == 2
    for parent in ("root", "box.outer"):
        children = [p for p in stats.paths if p[:-1] and p[-2] == parent]
        covered = sum(stats.paths[p][1] for p in children) + stats.self_time(parent)
        assert covered == pytest.approx(stats.total(parent), abs=1e-9)
    lines = render_tree(stats)
    assert sum("unaccounted" in line for line in lines) == 2


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("serve", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_lint_clean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "perfbench"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr

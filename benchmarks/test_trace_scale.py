"""Trace-generation scaling benchmark: serial vs sharded-parallel.

Emits ``BENCH_trace.json`` at the repo root — broadcasts/sec for the
shardable record-generation stage at several scales, serial
(``workers=1``) vs parallel (4 workers) — to seed the perf trajectory
toward the paper's 19.6M-broadcast volume.  The shared precompute is
built once per scale and split into two reported phases: the follow
graph (``graph_seconds``) and the population pools / follower-count
table (the rest of ``context_seconds``, which includes
``graph_seconds``); it is identical work for both modes.

Modes:

* default: scales 0.001 / 0.01 / 0.05 (several minutes);
* ``BENCH_TRACE_SMOKE=1``: scale 0.001 only — the ``scripts/check.sh
  bench`` gate, which mainly validates the emitted JSON schema.

The recorded speedup is only meaningful relative to ``cpu_count`` (also
recorded): on a single-core runner the parallel mode measures pure
process-pool overhead; on a 4-core runner the record stage parallelizes
near-linearly.  At scales below the serial-fallback floor the "parallel"
mode deliberately collapses to the in-process walk
(``parallel_workers_used`` records what actually ran), so tiny scales
measure the fallback's parity with serial rather than pool overhead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.crawler.storage import COLUMN_LAYOUT
from repro.parallel import generate_dataset, plan_shards
from repro.parallel.generate import effective_workers
from repro.workload.trace import TraceConfig, build_follow_graph, build_trace_context

BENCH_SCHEMA_VERSION = 4
BENCH_WORKERS = 4
FULL_SCALES = (0.001, 0.01, 0.05)
SMOKE_SCALES = (0.001,)
SEED = 2016

REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_output_path() -> Path:
    return Path(os.environ.get("BENCH_TRACE_OUT", REPO_ROOT / "BENCH_trace.json"))


REQUIRED_TOP_KEYS = {
    "benchmark",
    "schema_version",
    "cpu_count",
    "workers",
    "transport",
    "smoke",
    "results",
}
REQUIRED_RESULT_KEYS = {
    "scale",
    "broadcasts",
    "graph_seconds",
    "context_seconds",
    "serial_seconds",
    "parallel_seconds",
    "parallel_workers_used",
    "serial_broadcasts_per_sec",
    "parallel_broadcasts_per_sec",
    "speedup",
    "merge_seconds",
    "peak_rss_mb",
    "largest_shard_mb",
}

#: The streamed merge runs in a fresh child process so its ``ru_maxrss``
#: high-water mark measures the *merge*, not whatever generation peaked
#: at earlier in this process.  A plain string (not a function) keeps the
#: child's wall-clock reads out of this module's AST for the linter —
#: and the child is genuinely standalone: shard files in, one JSON line
#: out.
_MERGE_CHILD = """\
import json, sys, time
from pathlib import Path
from repro.obs import peak_rss_mb
from repro.parallel.merge import stream_merge_shards
from repro.workload.trace import TraceConfig

scale, run_dir, out, seed = (
    float(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
)
config = TraceConfig.periscope(scale=scale, seed=seed)
shards = sorted(run_dir.glob("shard-*.arrays"))
started = time.perf_counter()
dataset = stream_merge_shards(config, shards, out)
print(json.dumps({
    "merge_seconds": time.perf_counter() - started,
    "peak_rss_mb": peak_rss_mb(),
    "broadcasts": len(dataset),
}))
"""


def _measure_streamed_merge(scale: float, run_dir: str) -> dict:
    """Stream-merge the run dir's shard files in a fresh subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    out = Path(run_dir) / "bench-merged.cols"
    child = subprocess.run(
        [sys.executable, "-c", _MERGE_CHILD, str(scale), run_dir, str(out), str(SEED)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(child.stdout)


def validate_bench_payload(payload: dict) -> None:
    """Schema check for BENCH_trace.json (used by ``check.sh bench``)."""
    missing = REQUIRED_TOP_KEYS - payload.keys()
    if missing:
        raise ValueError(f"BENCH_trace.json missing keys: {sorted(missing)}")
    if payload["benchmark"] != "trace_scale":
        raise ValueError(f"unexpected benchmark id {payload['benchmark']!r}")
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"stale BENCH_trace.json schema {payload['schema_version']!r} "
            f"(expected {BENCH_SCHEMA_VERSION}); regenerate the baseline"
        )
    if not payload["results"]:
        raise ValueError("BENCH_trace.json has no results")
    for row in payload["results"]:
        row_missing = REQUIRED_RESULT_KEYS - row.keys()
        if row_missing:
            raise ValueError(f"result row missing keys: {sorted(row_missing)}")
        if row["broadcasts"] <= 0 or row["serial_seconds"] <= 0 or row["parallel_seconds"] <= 0:
            raise ValueError(f"non-positive measurements in row {row}")
        if row["graph_seconds"] < 0 or row["context_seconds"] < row["graph_seconds"]:
            raise ValueError(f"inconsistent phase timings in row {row}")
        if row["merge_seconds"] <= 0 or row["largest_shard_mb"] <= 0:
            raise ValueError(f"non-positive streamed-merge measurements in row {row}")
        if row["peak_rss_mb"] is not None and row["peak_rss_mb"] <= 0:
            raise ValueError(f"non-positive peak_rss_mb in row {row}")


def assert_same_dataset(a, b) -> None:
    """Identity on the stored schema: app, days and every column.

    As strict as comparing serialized bytes (they are a pure function of
    these fields), without the per-record serialization cost.
    """
    assert (a.app_name, a.days) == (b.app_name, b.days)
    for field, _dtype in COLUMN_LAYOUT:
        assert np.array_equal(getattr(a.columns, field), getattr(b.columns, field)), field


def _measure(scale: float) -> dict:
    serial_config = TraceConfig.periscope(scale=scale, seed=SEED, workers=1)
    parallel_config = TraceConfig.periscope(scale=scale, seed=SEED, workers=BENCH_WORKERS)

    started = time.perf_counter()
    graph = build_follow_graph(serial_config)
    graph_seconds = time.perf_counter() - started

    started = time.perf_counter()
    context, _graph = build_trace_context(serial_config, graph=graph)
    # context_seconds is total precompute (graph + pools), so it stays
    # comparable with pre-schema-2 baselines.
    context_seconds = graph_seconds + (time.perf_counter() - started)

    started = time.perf_counter()
    serial = generate_dataset(serial_config, context)
    serial_seconds = time.perf_counter() - started

    # Same precompute is valid for the parallel config: the context only
    # depends on generation inputs, never on the schedule knobs.
    parallel_context = dataclasses.replace(context, config=parallel_config)
    n_shards = len(
        plan_shards(
            parallel_config.growth.days,
            shards=parallel_config.shards,
            workers=parallel_config.workers,
        )
    )
    workers_used = effective_workers(parallel_config, n_shards)
    # The parallel mode runs with shard checkpointing enabled (a run dir
    # in a scratch directory), so the recorded speedup — and the bench
    # gate's parallel >= serial floor — prices in the per-shard manifest
    # flush and checksum footer.  Checkpointing must be overhead-neutral.
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-trace-run-") as run_dir:
        parallel = generate_dataset(
            parallel_config, parallel_context, run_dir=run_dir
        )
        parallel_seconds = time.perf_counter() - started

        # Streamed-merge figures, while the shard files still exist: the
        # largest shard on disk (the RSS bound's yardstick) and a fresh
        # child process whose ru_maxrss covers *only* the merge.
        shard_files = sorted(Path(run_dir).glob("shard-*.arrays"))
        largest_shard_mb = max(p.stat().st_size for p in shard_files) / (1024.0 * 1024.0)
        merge_stats = _measure_streamed_merge(scale, run_dir)

    # The guarantee the speedup must not cost: identical output.
    assert_same_dataset(serial, parallel)
    assert merge_stats["broadcasts"] == len(serial)

    return {
        "scale": scale,
        "broadcasts": len(serial),
        "graph_seconds": round(graph_seconds, 3),
        "context_seconds": round(context_seconds, 3),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "parallel_workers_used": workers_used,
        "parallel_checkpointed": True,
        "serial_broadcasts_per_sec": round(len(serial) / serial_seconds, 1),
        "parallel_broadcasts_per_sec": round(len(parallel) / parallel_seconds, 1),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "merge_seconds": round(merge_stats["merge_seconds"], 3),
        "peak_rss_mb": (
            round(merge_stats["peak_rss_mb"], 1)
            if merge_stats["peak_rss_mb"] is not None
            else None
        ),
        "largest_shard_mb": round(largest_shard_mb, 2),
    }


def test_trace_scale_benchmark():
    smoke = bool(os.environ.get("BENCH_TRACE_SMOKE"))
    scales = SMOKE_SCALES if smoke else FULL_SCALES

    payload = {
        "benchmark": "trace_scale",
        "schema_version": BENCH_SCHEMA_VERSION,
        "cpu_count": os.cpu_count() or 1,
        "workers": BENCH_WORKERS,
        "transport": os.environ.get("REPRO_TRACE_TRANSPORT", "mmap"),
        "smoke": smoke,
        "results": [_measure(scale) for scale in scales],
    }
    validate_bench_payload(payload)

    out_path = bench_output_path()
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    for row in payload["results"]:
        rss = row["peak_rss_mb"]
        print(
            f"scale {row['scale']:g}: {row['broadcasts']} broadcasts, "
            f"serial {row['serial_broadcasts_per_sec']}/s, "
            f"parallel {row['parallel_broadcasts_per_sec']}/s "
            f"(speedup {row['speedup']}x on {payload['cpu_count']} core(s)); "
            f"streamed merge {row['merge_seconds']}s, peak RSS "
            f"{'n/a' if rss is None else f'{rss} MB'} "
            f"(largest shard {row['largest_shard_mb']} MB)"
        )

"""The out-of-core streaming merge (:mod:`repro.parallel.merge`).

The contract under test: for every shards/workers/transport choice, the
streamed merge's on-disk column file is **byte-identical** to the
in-memory merge followed by ``DatasetCache.put`` — the file IS the
cache entry, so nothing less than identity will do.  Plus the edges the
streaming path introduces: zero-row day shards, crash-orphaned writer
temps, the ``REPRO_TRACE_MERGE`` override, and the re-key allocation
skip in the in-memory reference path.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.crawler.arrayfile import ArrayFileWriter
from repro.crawler.dataset import BroadcastColumns
from repro.crawler.storage import DatasetCache
from repro.obs import MetricsRegistry, peak_rss_mb
from repro.parallel import generate_trace, resolve_merge, validate_environment
from repro.workload.trace import TraceConfig, assemble_dataset_columns

SCALE = 0.0001
SEED = 17


@pytest.fixture(scope="module", autouse=True)
def _force_pool():
    """Let tiny workloads actually use worker pools (and nothing else)."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_TRACE_MIN_PER_WORKER", "0")
    patcher.delenv("REPRO_TRACE_TRANSPORT", raising=False)
    patcher.delenv("REPRO_TRACE_MERGE", raising=False)
    yield
    patcher.undo()


def _config(shards: int = 1, workers: int = 1) -> TraceConfig:
    return TraceConfig.periscope(scale=SCALE, seed=SEED, shards=shards, workers=workers)


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory) -> bytes:
    """Ground truth: in-memory merge, serial, then ``put``."""
    config = _config()
    trace = generate_trace(config, merge="memory")
    cache = DatasetCache(tmp_path_factory.mktemp("reference"))
    return cache.put(config.cache_key(), trace.dataset).read_bytes()


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One cache dir for the whole matrix, so the graph cache stays warm.

    The dataset cache key excludes shards/workers (they are
    output-invariant), so every matrix cell would hit the previous
    cell's entry — each test deletes the ``trace-*`` entries first and
    keeps only the ``graph-*`` files.
    """
    return tmp_path_factory.mktemp("cache")


@pytest.mark.parametrize("transport", ["mmap", "pickle"])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("shards", [1, 4, 13])
def test_streamed_entry_byte_identical_across_matrix(
    shards, workers, transport, reference_bytes, shared_cache_dir, monkeypatch
):
    monkeypatch.setenv("REPRO_TRACE_TRANSPORT", transport)
    for stale in shared_cache_dir.glob("trace-*"):
        stale.unlink()
    config = _config(shards=shards, workers=workers)
    registry = MetricsRegistry()
    generate_trace(config, cache_dir=shared_cache_dir, registry=registry)
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["trace.merge_streamed"]["value"] == 1.0
    entry = DatasetCache(shared_cache_dir).path_for(config.cache_key())
    assert entry.read_bytes() == reference_bytes


def test_run_dir_streamed_merge_file(tmp_path, reference_bytes):
    """With only a run dir, the merge publishes ``merged.cols`` there."""
    config = _config(shards=4)
    trace = generate_trace(config, run_dir=tmp_path / "run")
    assert (tmp_path / "run" / "merged.cols").read_bytes() == reference_bytes
    assert trace.dataset.broadcast_count > 0


def test_streamed_dataset_matches_in_memory_columns(tmp_path):
    """Not just file bytes: the returned mapped columns match too."""
    config = _config(shards=4, workers=2)
    memory = generate_trace(config, merge="memory").dataset
    streamed = generate_trace(config, run_dir=tmp_path / "run").dataset
    for field in (
        "broadcast_id",
        "broadcaster_id",
        "start_time",
        "viewer_indptr",
        "viewer_ids",
        "is_private",
    ):
        np.testing.assert_array_equal(
            getattr(streamed.columns, field), getattr(memory.columns, field)
        )


def test_zero_row_day_shards_merge_identically(tmp_path):
    """A scale small enough that early days generate no broadcasts at all
    must stream exactly like it assembles in memory (satellite a)."""
    config = TraceConfig.periscope(scale=0.00002, seed=SEED, shards=13, workers=1)
    memory = generate_trace(config, merge="memory").dataset
    present = np.unique(memory.columns.start_time.astype(np.int64) // 86400)
    assert len(present) < config.growth.days, "regression needs empty days"
    generate_trace(config, run_dir=tmp_path / "run", merge="stream")
    reference = DatasetCache(tmp_path / "reference")
    expected = reference.put(config.cache_key(), memory).read_bytes()
    assert (tmp_path / "run" / "merged.cols").read_bytes() == expected


def test_concat_of_no_batches():
    empty = BroadcastColumns.concat([], app_name="Periscope")
    assert len(empty) == 0 and empty.app_name == "Periscope"
    with pytest.raises(ValueError, match="no column batches"):
        BroadcastColumns.concat([])


def test_rekey_skipped_for_already_global_ids():
    """A single pre-keyed, pre-sorted batch passes through assemble
    untouched — no re-key allocation, same array object (satellite b)."""
    config = _config()
    zero = np.zeros(3, dtype=np.int64)
    batch = BroadcastColumns(
        app_name=config.app_name,
        broadcast_id=np.arange(1, 4, dtype=np.int64),
        broadcaster_id=np.array([7, 8, 9], dtype=np.int64),
        start_time=np.array([10.0, 20.0, 30.0]),
        duration_s=np.ones(3),
        web_views=zero,
        heart_count=zero,
        comment_count=zero,
        commenter_count=zero,
        is_private=np.zeros(3, dtype=bool),
        broadcaster_followers=zero,
        viewer_indptr=np.zeros(4, dtype=np.int64),
        viewer_ids=np.empty(0, dtype=np.int64),
    )
    dataset = assemble_dataset_columns(config, [batch])
    assert dataset.columns.broadcast_id is batch.broadcast_id


def test_dead_writer_temp_swept_live_kept(stale_temp_harness):
    """An ArrayFileWriter killed mid-append stages ``trace-<key>.cols.tmp<pid>``
    — the cache's existing sweep collects it; no entry ever exists."""
    key = _config().cache_key()
    root = stale_temp_harness(
        DatasetCache,
        dead_name=f"trace-{key}.cols.tmp{{pid}}",
        live_name=f"trace-{key}.cols.live.tmp{{pid}}",
    )
    cache = DatasetCache(root)
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_writer_crash_mid_append_leaves_nothing(tmp_path):
    """An exception mid-stream aborts the writer: no file, no temp."""
    target = tmp_path / "merged.cols"
    with pytest.raises(RuntimeError, match="boom"):
        with ArrayFileWriter(target, [("x", "<i8", (10,))]) as writer:
            writer.append("x", np.arange(3, dtype=np.int64))
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_merge_env_override_forces_memory(tmp_path, monkeypatch, reference_bytes):
    monkeypatch.setenv("REPRO_TRACE_MERGE", "memory")
    config = _config()
    registry = MetricsRegistry()
    generate_trace(config, cache_dir=tmp_path, registry=registry)
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["trace.merge_streamed"]["value"] == 0.0
    # The memory path stores through cache.put — same bytes, same entry.
    entry = DatasetCache(tmp_path).path_for(config.cache_key())
    assert entry.read_bytes() == reference_bytes


def test_merge_env_rejects_unknown_value(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_MERGE", "bogus")
    with pytest.raises(ValueError, match="REPRO_TRACE_MERGE"):
        validate_environment()


def test_resolve_merge_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_MERGE", "memory")
    assert resolve_merge("stream") == "stream"
    assert resolve_merge() == "memory"
    monkeypatch.delenv("REPRO_TRACE_MERGE")
    assert resolve_merge(default="stream") == "stream"
    with pytest.raises(ValueError, match="merge argument"):
        resolve_merge("bogus")


def test_peak_rss_observable():
    rss = peak_rss_mb()
    if sys.platform.startswith(("linux", "darwin")):
        assert rss is not None and rss > 0
    else:  # pragma: no cover - non-POSIX CI only
        assert rss is None

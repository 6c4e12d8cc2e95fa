"""The out-of-core streaming merge (:mod:`repro.parallel.merge`).

The contract under test: for every shards/workers choice, the streamed
merge's on-disk column file is **byte-identical** to
``save_dataset_mapped`` of the in-memory oracle merge
(:func:`trace_oracles.generate_dataset`) — the file IS the cache entry,
so nothing less than identity will do.  Plus the edges the streaming
path introduces: zero-row day shards and crash-orphaned writer temps.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import trace_oracles as oracle
from repro.crawler.arrayfile import ArrayFileWriter
from repro.crawler.dataset import BroadcastColumns
from repro.crawler.storage import COLUMN_LAYOUT, DatasetCache, save_dataset_mapped
from repro.obs import peak_rss_mb
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig

SCALE = 0.0001
SEED = 17


@pytest.fixture(scope="module", autouse=True)
def _force_pool():
    """Let tiny workloads actually use worker pools (and nothing else)."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_TRACE_MIN_PER_WORKER", "0")
    yield
    patcher.undo()


def _config(shards: int = 1, workers: int = 1) -> TraceConfig:
    return TraceConfig.periscope(scale=SCALE, seed=SEED, shards=shards, workers=workers)


def _oracle_bytes(config: TraceConfig, tmp_path) -> bytes:
    path = tmp_path / "oracle.cols"
    save_dataset_mapped(oracle.generate_dataset(config), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory) -> bytes:
    """Ground truth: the in-memory oracle merge, saved as a column file."""
    return _oracle_bytes(_config(), tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One cache dir for the whole matrix, so the graph cache stays warm.

    The dataset cache key excludes shards/workers (they are
    output-invariant), so every matrix cell would hit the previous
    cell's entry — each test deletes the ``trace-*`` entries first and
    keeps only the ``graph-*`` files.
    """
    return tmp_path_factory.mktemp("cache")


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("shards", [1, 4, 13])
def test_streamed_entry_byte_identical_across_matrix(
    shards, workers, reference_bytes, shared_cache_dir
):
    for stale in shared_cache_dir.glob("trace-*"):
        stale.unlink()
    config = _config(shards=shards, workers=workers)
    generate_trace(config, cache_dir=shared_cache_dir)
    entry = DatasetCache(shared_cache_dir).path_for(config.cache_key())
    assert entry.read_bytes() == reference_bytes


def test_run_dir_streamed_merge_file(tmp_path, reference_bytes):
    """With only a run dir, the merge publishes ``merged.cols`` there."""
    config = _config(shards=4)
    trace = generate_trace(config, run_dir=tmp_path / "run")
    assert (tmp_path / "run" / "merged.cols").read_bytes() == reference_bytes
    assert trace.dataset.broadcast_count > 0


def _assert_same_columns(a, b) -> None:
    assert (a.app_name, a.days) == (b.app_name, b.days)
    for field, _dtype in COLUMN_LAYOUT:
        np.testing.assert_array_equal(getattr(a.columns, field), getattr(b.columns, field))


def test_streamed_dataset_matches_in_memory_columns(tmp_path):
    """Not just file bytes: the returned mapped columns match too."""
    config = _config(shards=4, workers=2)
    streamed = generate_trace(config, run_dir=tmp_path / "run").dataset
    _assert_same_columns(streamed, oracle.generate_dataset(config))


@pytest.mark.parametrize("workers", [1, 2])
def test_cacheless_trace_matches_oracle(workers):
    """Without a run dir or cache the merge still streams (into scratch),
    and the dataset equals the oracle column for column."""
    config = _config(shards=4, workers=workers)
    _assert_same_columns(generate_trace(config).dataset, oracle.generate_dataset(config))


def test_zero_row_day_shards_merge_identically(tmp_path):
    """A scale small enough that early days generate no broadcasts at all
    must stream exactly like the oracle assembles it in memory."""
    config = TraceConfig.periscope(scale=0.00002, seed=SEED, shards=13, workers=1)
    memory = oracle.generate_dataset(config)
    present = np.unique(memory.columns.start_time.astype(np.int64) // 86400)
    assert len(present) < config.growth.days, "regression needs empty days"
    generate_trace(config, run_dir=tmp_path / "run")
    expected = _oracle_bytes(config, tmp_path)
    assert (tmp_path / "run" / "merged.cols").read_bytes() == expected


def test_concat_of_no_batches():
    empty = BroadcastColumns.concat([], app_name="Periscope")
    assert len(empty) == 0 and empty.app_name == "Periscope"
    with pytest.raises(ValueError, match="no column batches"):
        BroadcastColumns.concat([])


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


def test_peak_rss_observable():
    rss = peak_rss_mb()
    if sys.platform.startswith(("linux", "darwin")):
        assert rss is not None and rss > 0
    else:  # pragma: no cover - non-POSIX CI only
        assert rss is None

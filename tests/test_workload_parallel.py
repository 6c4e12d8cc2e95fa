"""Determinism suite for sharded parallel trace generation.

The tentpole guarantee: generation is schedule-independent.  For a fixed
``(config, seed)``, every combination of ``workers`` and ``shards``
produces a byte-identical merged dataset, and a dataset-cache hit equals
a fresh generation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.crawler.storage import DatasetCache, dataset_to_bytes
from repro.obs import MetricsRegistry
from repro.parallel import (
    AUTO_SHARDS_PER_WORKER,
    ShardSpec,
    generate_dataset,
    generate_trace,
    plan_shards,
)
from repro.workload.trace import (
    FULL_SCALE_OPEN_RATE,
    SMALL_SCALE_OPEN_RATE_CAP,
    TraceConfig,
    TraceGenerator,
    build_trace_context,
    derived_notification_open_rate,
    generate_day_records,
)

SCALE = 0.0001
SEED = 17


@pytest.fixture(autouse=True)
def _force_pool(monkeypatch):
    """Disable the tiny-workload serial fallback for this module.

    The scales here are far below ``MIN_BROADCASTS_PER_WORKER``, but the
    determinism suite must exercise the real process pool; fallback
    behaviour has its own tests below.
    """
    monkeypatch.setenv("REPRO_TRACE_MIN_PER_WORKER", "0")


def _bytes_for(**overrides) -> bytes:
    config = TraceConfig.periscope(scale=SCALE, seed=SEED, **overrides)
    return dataset_to_bytes(generate_trace(config).dataset)


@pytest.fixture(scope="module")
def reference_bytes():
    """Serial single-shard generation: the byte-identity reference."""
    return _bytes_for(workers=1)


class TestScheduleIndependence:
    @pytest.fixture(scope="class")
    def serial_bytes(self):
        return _bytes_for(workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_byte_identical(self, serial_bytes, workers):
        assert _bytes_for(workers=workers) == serial_bytes

    @pytest.mark.parametrize("shards", [1, 3, 7, 98])
    def test_shard_count_byte_identical(self, serial_bytes, shards):
        assert _bytes_for(workers=1, shards=shards) == serial_bytes

    def test_workers_and_shards_together(self, serial_bytes):
        assert _bytes_for(workers=2, shards=13) == serial_bytes

    def test_trace_generator_facade_matches(self, serial_bytes):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        trace = TraceGenerator(config).generate()
        assert dataset_to_bytes(trace.dataset) == serial_bytes

    def test_different_seed_differs(self, serial_bytes):
        other = TraceConfig.periscope(scale=SCALE, seed=SEED + 1)
        assert dataset_to_bytes(generate_trace(other).dataset) != serial_bytes

    def test_ids_are_globally_rekeyed_and_sorted(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=2, shards=6)
        dataset = generate_trace(config).dataset
        ids = [record.broadcast_id for record in dataset]
        assert ids == list(range(1, len(dataset) + 1))
        starts = [record.start_time for record in dataset]
        assert starts == sorted(starts)


class TestDayStreams:
    def test_day_records_pure_function_of_day(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        context, _ = build_trace_context(config)
        a = generate_day_records(context, 5)
        b = generate_day_records(context, 5)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.start_time == y.start_time
            assert x.broadcaster_id == y.broadcaster_id
            assert np.array_equal(x.viewer_ids, y.viewer_ids)

    def test_days_draw_from_distinct_substreams(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        context, _ = build_trace_context(config)
        day3 = generate_day_records(context, 3)
        day4 = generate_day_records(context, 4)
        offsets3 = {record.start_time % 86_400.0 for record in day3}
        offsets4 = {record.start_time % 86_400.0 for record in day4}
        assert offsets3 != offsets4

    def test_context_is_picklable(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        context, _ = build_trace_context(config)
        clone = pickle.loads(pickle.dumps(context))
        assert np.array_equal(clone.broadcaster_ids, context.broadcaster_ids)
        assert np.array_equal(clone.follower_counts, context.follower_counts)
        assert clone.audience_cap == context.audience_cap


class TestShardPlanning:
    def test_covers_all_days_contiguously(self):
        specs = plan_shards(98, shards=7)
        assert specs[0].day_start == 0
        assert specs[-1].day_end == 98
        for prev, cur in zip(specs, specs[1:]):
            assert cur.day_start == prev.day_end
        assert sum(spec.n_days for spec in specs) == 98

    def test_auto_single_worker_is_one_shard(self):
        assert len(plan_shards(98, shards=0, workers=1)) == 1

    def test_auto_scales_with_workers(self):
        assert len(plan_shards(98, shards=0, workers=4)) == 4 * AUTO_SHARDS_PER_WORKER

    def test_shards_clamped_to_days(self):
        specs = plan_shards(5, shards=20)
        assert len(specs) == 5
        assert all(spec.n_days == 1 for spec in specs)

    def test_near_equal_sizes(self):
        sizes = {spec.n_days for spec in plan_shards(98, shards=12)}
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, shards=1)
        with pytest.raises(ValueError):
            plan_shards(10, shards=-1)
        with pytest.raises(ValueError):
            plan_shards(10, shards=1, workers=0)
        with pytest.raises(ValueError):
            ShardSpec(shard_id=0, day_start=3, day_end=3)


class TestDatasetCacheIntegration:
    def test_cache_hit_equals_fresh_generation(self, tmp_path):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        fresh = generate_trace(config, cache_dir=tmp_path)
        assert DatasetCache(tmp_path).get(config.cache_key()) is not None
        cached = generate_trace(config, cache_dir=tmp_path)
        assert dataset_to_bytes(cached.dataset) == dataset_to_bytes(fresh.dataset)

    def test_cache_hit_across_worker_counts(self, tmp_path):
        serial = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=1)
        parallel = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=4, shards=9)
        registry = MetricsRegistry()
        generate_trace(serial, cache_dir=tmp_path, registry=registry)
        assert registry.counter("trace.cache_misses").value == 1
        generate_trace(parallel, cache_dir=tmp_path, registry=registry)
        assert registry.counter("trace.cache_hits").value == 1

    def test_cache_key_excludes_schedule_knobs(self):
        a = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=1)
        b = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=8, shards=64)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_tracks_generation_inputs(self):
        base = TraceConfig.periscope(scale=SCALE, seed=SEED)
        assert TraceConfig.periscope(scale=SCALE, seed=SEED + 1).cache_key() != base.cache_key()
        assert TraceConfig.periscope(scale=SCALE * 2, seed=SEED).cache_key() != base.cache_key()
        assert (
            TraceConfig.periscope(scale=SCALE, seed=SEED, notification_open_rate=0.5).cache_key()
            != base.cache_key()
        )


class TestObservability:
    def test_shard_timings_published(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED, shards=6)
        registry = MetricsRegistry()
        trace = generate_trace(config, registry=registry)
        assert registry.histogram("trace.shard_seconds").count == 6
        assert registry.counter("trace.broadcasts").value == len(trace.dataset)
        assert registry.gauge("trace.shards").value == 6


class TestTransports:
    """The zero-copy mmap transport is pure plumbing: identical bytes."""

    @pytest.fixture(scope="class")
    def context_and_config(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=2, shards=5)
        context, _ = build_trace_context(config)
        return config, context

    def test_mmap_and_pickle_transports_byte_identical(self, context_and_config):
        config, context = context_and_config
        mapped = generate_dataset(config, context, transport="mmap")
        pickled = generate_dataset(config, context, transport="pickle")
        assert dataset_to_bytes(mapped) == dataset_to_bytes(pickled)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mmap_transport_matches_serial_across_workers(
        self, context_and_config, workers
    ):
        import dataclasses

        config, context = context_and_config
        serial_config = dataclasses.replace(config, workers=1, shards=1)
        serial = generate_dataset(
            serial_config, dataclasses.replace(context, config=serial_config)
        )
        worker_config = dataclasses.replace(config, workers=workers, shards=7)
        parallel = generate_dataset(
            worker_config,
            dataclasses.replace(context, config=worker_config),
            transport="mmap",
        )
        assert dataset_to_bytes(parallel) == dataset_to_bytes(serial)

    def test_unknown_transport_rejected(self, context_and_config):
        config, context = context_and_config
        with pytest.raises(ValueError, match="transport"):
            generate_dataset(config, context, transport="carrier-pigeon")


class TestSerialFallback:
    def test_tiny_workload_collapses_to_one_worker(self, monkeypatch):
        """Below the per-worker floor the pool is skipped entirely."""
        monkeypatch.delenv("REPRO_TRACE_MIN_PER_WORKER", raising=False)
        config = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=4)
        registry = MetricsRegistry()
        trace = generate_trace(config, registry=registry)
        assert registry.gauge("trace.workers").value == 1
        assert len(trace.dataset) > 0

    def test_fallback_output_matches_pool_output(self, reference_bytes, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_MIN_PER_WORKER", raising=False)
        assert _bytes_for(workers=4) == reference_bytes

    def test_forced_pool_engages_workers(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=2)
        registry = MetricsRegistry()
        generate_trace(config, registry=registry)
        assert registry.gauge("trace.workers").value == 2


class TestCacheFirstProbe:
    """A dataset-cache hit must skip the graph build entirely."""

    def _poison_graph_build(self, monkeypatch):
        import repro.parallel.generate as generate_module

        def explode(config):
            raise AssertionError("graph was built on the cache-hit path")

        monkeypatch.setattr(generate_module, "build_follow_graph", explode)

    def test_hit_skips_graph_build(self, tmp_path, monkeypatch):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        fresh = generate_trace(config, cache_dir=tmp_path)
        self._poison_graph_build(monkeypatch)
        cached = generate_trace(config, cache_dir=tmp_path)
        assert dataset_to_bytes(cached.dataset) == dataset_to_bytes(fresh.dataset)
        assert np.array_equal(cached.broadcaster_ids, fresh.broadcaster_ids)
        assert np.array_equal(cached.viewer_ids, fresh.viewer_ids)

    def test_lazy_graph_loads_from_graph_cache(self, tmp_path, monkeypatch):
        """trace.graph on a hit attaches the mapped graph, not a rebuild."""
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        fresh = generate_trace(config, cache_dir=tmp_path)
        self._poison_graph_build(monkeypatch)
        cached = generate_trace(config, cache_dir=tmp_path)
        graph = cached.graph  # would raise if it rebuilt instead of mapping
        assert graph is not None
        assert np.array_equal(graph.indptr, fresh.graph.indptr)
        assert np.array_equal(graph.indices, fresh.graph.indices)

    def test_corrupt_graph_cache_rebuilt(self, tmp_path):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        fresh = generate_trace(config, cache_dir=tmp_path)
        (cache_file,) = tmp_path.glob("graph-*.arrays")
        cache_file.write_bytes(b"scrambled")
        rebuilt = generate_trace(config, cache_dir=tmp_path)
        assert np.array_equal(rebuilt.graph.indices, fresh.graph.indices)

    def test_graph_cache_reused_across_runs(self, tmp_path):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        registry = MetricsRegistry()
        generate_trace(config, cache_dir=tmp_path, registry=registry)
        # Second run: dataset entry removed, graph cache intact -> the
        # miss path attaches the cached graph instead of rebuilding.
        DatasetCache(tmp_path).path_for(config.cache_key()).unlink()
        generate_trace(config, cache_dir=tmp_path, registry=registry)
        assert registry.counter("trace.graph_cache_hits").value == 1


class TestCacheFormatMatrix:
    """Acceptance: byte-identical cached datasets across worker counts."""

    # Case ids name the entry format: the mapped (mmap) column file.
    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"{w}-mmap")
    def test_cached_dataset_byte_identical(self, reference_bytes, tmp_path, workers):
        config = TraceConfig.periscope(
            scale=SCALE, seed=SEED, workers=workers, shards=3 * workers
        )
        fresh = generate_trace(config, cache_dir=tmp_path)
        assert dataset_to_bytes(fresh.dataset) == reference_bytes
        cached = generate_trace(config, cache_dir=tmp_path)
        assert dataset_to_bytes(cached.dataset) == reference_bytes

    def test_mmap_cached_aggregates_match_in_ram(self, tmp_path):
        """The mapped dataset behaves like the in-RAM one, not just its bytes."""
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        fresh = generate_trace(config, cache_dir=tmp_path)
        mapped = generate_trace(config, cache_dir=tmp_path)
        assert mapped.dataset.table1_row() == fresh.dataset.table1_row()
        assert np.array_equal(
            mapped.dataset.columns.viewer_ids, fresh.dataset.columns.viewer_ids
        )


class TestNotificationOpenRate:
    def test_full_scale_is_realistic(self):
        assert derived_notification_open_rate(1.0) == pytest.approx(FULL_SCALE_OPEN_RATE)

    def test_small_scale_keeps_hand_tuned_boost(self):
        assert derived_notification_open_rate(0.001) == pytest.approx(
            SMALL_SCALE_OPEN_RATE_CAP
        )
        assert derived_notification_open_rate(0.0001) == SMALL_SCALE_OPEN_RATE_CAP

    def test_monotone_decreasing_in_scale(self):
        scales = [0.001, 0.01, 0.1, 0.5, 1.0]
        rates = [derived_notification_open_rate(s) for s in scales]
        assert rates == sorted(rates, reverse=True)
        assert all(FULL_SCALE_OPEN_RATE <= r <= SMALL_SCALE_OPEN_RATE_CAP for r in rates)

    def test_explicit_value_untouched(self):
        config = TraceConfig.periscope(scale=0.5, notification_open_rate=0.07)
        assert config.effective_notification_open_rate == 0.07

    def test_default_derived_from_scale(self):
        config = TraceConfig.periscope(scale=0.25)
        assert config.effective_notification_open_rate == pytest.approx(
            derived_notification_open_rate(0.25)
        )

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig.periscope(notification_open_rate=1.5)
        with pytest.raises(ValueError):
            derived_notification_open_rate(0.0)


class TestConfigValidation:
    def test_schedule_knob_validation(self):
        with pytest.raises(ValueError):
            TraceConfig.periscope(workers=0)
        with pytest.raises(ValueError):
            TraceConfig.periscope(shards=-1)

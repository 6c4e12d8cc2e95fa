"""Columnar-vs-record backend equivalence.

The columnar :class:`BroadcastColumns` core is a pure representation
change: every aggregate, every serialization, and every cache format
must be indistinguishable from the row-by-row record path.  These tests
pin that contract — a divergence here means the vectorized fast path
changed semantics, not just speed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.crawler.dataset as dataset_module
from repro.analysis import broadcast_stats
from repro.analysis.social_stats import followers_vs_viewers
from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    creations_per_user,
    merge_datasets,
    viewer_tallies,
    views_per_user,
)
from repro.crawler.storage import (
    dataset_from_bytes,
    dataset_to_bytes,
    load_dataset_mapped,
    save_dataset_mapped,
)
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig, build_trace_context, generate_day_columns

SCALE = 0.0001
SEED = 17


@pytest.fixture(scope="module")
def columnar_dataset() -> BroadcastDataset:
    return generate_trace(TraceConfig.periscope(scale=SCALE, seed=SEED)).dataset


@pytest.fixture(scope="module")
def record_dataset(columnar_dataset) -> BroadcastDataset:
    """The same dataset rebuilt through the record backend."""
    return BroadcastDataset(
        columnar_dataset.app_name,
        columnar_dataset.days,
        records=list(columnar_dataset.records),
    )


class TestAggregateEquivalence:
    def test_backends_in_play(self, columnar_dataset, record_dataset):
        assert columnar_dataset.columns is not None
        assert record_dataset.columns is None

    def test_table1_row_identical(self, columnar_dataset, record_dataset):
        assert columnar_dataset.table1_row() == record_dataset.table1_row()

    def test_daily_broadcast_counts_identical(self, columnar_dataset, record_dataset):
        assert np.array_equal(
            columnar_dataset.daily_broadcast_counts(),
            record_dataset.daily_broadcast_counts(),
        )

    def test_daily_active_users_identical(self, columnar_dataset, record_dataset):
        col_viewers, col_casters = columnar_dataset.daily_active_users()
        rec_viewers, rec_casters = record_dataset.daily_active_users()
        assert np.array_equal(col_viewers, rec_viewers)
        assert np.array_equal(col_casters, rec_casters)

    def test_per_user_tallies_identical(self, columnar_dataset, record_dataset):
        assert views_per_user(columnar_dataset) == views_per_user(record_dataset)
        assert creations_per_user(columnar_dataset) == creations_per_user(record_dataset)

    def test_v1_serialization_identical(self, columnar_dataset, record_dataset):
        assert dataset_to_bytes(columnar_dataset) == dataset_to_bytes(record_dataset)

    def test_merge_matches_record_merge(self, columnar_dataset, record_dataset):
        other = generate_trace(TraceConfig.periscope(scale=SCALE, seed=SEED + 1)).dataset
        other_records = BroadcastDataset(
            other.app_name, other.days, records=list(other.records)
        )
        merged_columnar = merge_datasets([columnar_dataset, other])
        merged_records = merge_datasets([record_dataset, other_records])
        assert dataset_to_bytes(merged_columnar) == dataset_to_bytes(merged_records)


class TestColumnsRoundTrip:
    def test_records_to_columns_and_back(self, columnar_dataset):
        columns = columnar_dataset.columns
        rebuilt = BroadcastColumns.from_records(columns.app_name, columns.to_records())
        for field in ("broadcast_id", "start_time", "viewer_indptr", "viewer_ids"):
            assert np.array_equal(getattr(rebuilt, field), getattr(columns, field))

    def test_day_columns_match_materialized_records(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        context, _ = build_trace_context(config)
        columns = generate_day_columns(context, 7)
        records = columns.to_records()
        assert len(records) == len(columns)
        for i, record in enumerate(records):
            assert record.broadcast_id == int(columns.broadcast_id[i])
            assert len(record.viewer_ids) == int(columns.mobile_views[i])


class TestCacheFormatEquivalence:
    def test_formats_store_identical_dataset(self, columnar_dataset, tmp_path):
        """The release format and the cache column file hold the same data."""
        via_v1 = dataset_from_bytes(dataset_to_bytes(columnar_dataset))
        path = tmp_path / "d.cols"
        save_dataset_mapped(columnar_dataset, path)
        via_cols = load_dataset_mapped(path)
        assert dataset_to_bytes(via_v1) == dataset_to_bytes(via_cols)
        assert via_v1.table1_row() == via_cols.table1_row()

    def test_column_file_identical_across_backends(self, columnar_dataset, tmp_path):
        first, second, records = (tmp_path / n for n in ("a.cols", "b.cols", "r.cols"))
        save_dataset_mapped(columnar_dataset, first)
        save_dataset_mapped(columnar_dataset, second)
        assert first.read_bytes() == second.read_bytes()
        # Record-backed serialization of the same data is also identical.
        record_dataset = BroadcastDataset(
            columnar_dataset.app_name,
            columnar_dataset.days,
            records=list(columnar_dataset.records),
        )
        save_dataset_mapped(record_dataset, records)
        assert records.read_bytes() == first.read_bytes()


def _random_columns(seed: int, n_rows: int = 300, n_users: int = 40) -> BroadcastColumns:
    """Seeded columns drawn from a small user pool, so most viewer lists
    repeat a user within the row, plus some empty rows."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 12, n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])

    def counts():
        return rng.integers(0, 50, n_rows)

    return BroadcastColumns(
        app_name="Periscope",
        broadcast_id=np.arange(1, n_rows + 1),
        broadcaster_id=rng.integers(1, n_users, n_rows),
        start_time=np.sort(rng.uniform(0, 86_400 * 5, n_rows)),
        duration_s=rng.exponential(300.0, n_rows),
        web_views=counts(),
        heart_count=counts(),
        comment_count=counts(),
        commenter_count=counts(),
        is_private=rng.random(n_rows) < 0.1,
        broadcaster_followers=counts(),
        viewer_indptr=indptr,
        viewer_ids=rng.integers(1, n_users, int(indptr[-1])),
    )


def _generated_columns(seed: int) -> BroadcastColumns:
    return generate_trace(TraceConfig.periscope(scale=SCALE, seed=seed)).dataset.columns


ANALYSIS_SOURCES = {
    "generated-17": lambda: _generated_columns(17),
    "generated-18": lambda: _generated_columns(18),
    "duplicates-1": lambda: _random_columns(1),
    "duplicates-2": lambda: _random_columns(2),
}

ANALYSIS_CDFS = (
    "broadcast_length_cdf",
    "viewers_per_broadcast_cdf",
    "comments_cdf",
    "hearts_cdf",
    "views_per_user_cdf",
    "creations_per_user_cdf",
)


@pytest.fixture(scope="module", params=sorted(ANALYSIS_SOURCES))
def backend_pair(request) -> tuple[BroadcastDataset, BroadcastDataset]:
    """(columnar, record-backed) datasets holding the same rows."""
    columns = ANALYSIS_SOURCES[request.param]()
    columnar = BroadcastDataset.from_columns(columns.app_name, 5, columns)
    records = BroadcastDataset(columns.app_name, 5, records=columns.to_records())
    return columnar, records


class TestAnalysisEquivalence:
    """The Fig 3-7 analyses read columns directly; the record path is the
    oracle and every value must match exactly, not approximately."""

    def test_duplicate_viewers_in_play(self):
        columns = _random_columns(1)
        indptr = columns.viewer_indptr
        assert any(
            len(np.unique(columns.viewer_ids[lo:hi])) < hi - lo
            for lo, hi in zip(indptr[:-1], indptr[1:])
        )

    @pytest.mark.parametrize("name", ANALYSIS_CDFS)
    def test_cdf_values_identical(self, backend_pair, name):
        columnar, records = backend_pair
        analysis = getattr(broadcast_stats, name)
        assert np.array_equal(analysis(columnar).values, analysis(records).values)

    def test_activity_skew_identical(self, backend_pair):
        columnar, records = backend_pair
        assert broadcast_stats.viewer_activity_skew(
            columnar
        ) == broadcast_stats.viewer_activity_skew(records)

    def test_fig7_inputs_identical(self, backend_pair):
        columnar, records = backend_pair
        for col, rec in zip(followers_vs_viewers(columnar), followers_vs_viewers(records)):
            assert col.dtype == rec.dtype
            assert np.array_equal(col, rec)

    def test_columnar_analyses_leave_records_unbuilt(self, backend_pair):
        columnar, _ = backend_pair
        for name in ANALYSIS_CDFS:
            getattr(broadcast_stats, name)(columnar)
        broadcast_stats.viewer_activity_skew(columnar)
        followers_vs_viewers(columnar)
        assert columnar._records is None

    def test_viewer_tallies_match_record_oracle(self, backend_pair):
        columnar, records = backend_pair
        users, counts = viewer_tallies(columnar.columns)
        assert np.all(np.diff(users) > 0)
        assert dict(zip(users.tolist(), counts.tolist())) == views_per_user(records.records)

    def test_rows_longer_than_a_window(self, monkeypatch):
        """A row with more views than one window still dedups as a whole,
        and a window never splits a row."""
        monkeypatch.setattr(dataset_module, "_TALLY_WINDOW", 1)
        columns = _random_columns(3, n_rows=20, n_users=6)
        columns.viewer_indptr = np.arange(0, 2001, 100, dtype=np.int64)
        columns.viewer_ids = np.random.default_rng(3).integers(0, 6, 2000)
        records = columns.to_records()
        users, counts = viewer_tallies(columns)
        assert dict(zip(users.tolist(), counts.tolist())) == views_per_user(records)
        assert counts.max() <= 20

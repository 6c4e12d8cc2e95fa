"""Columnar dataset aggregates against the record-loop oracles.

:class:`BroadcastColumns` is the dataset's only representation: every
aggregate, every serialization, and every cache format must be
indistinguishable from the row-by-row record loops kept in
:mod:`trace_oracles`.  These tests pin that contract — a divergence here
means the vectorized path changed semantics, not just speed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.crawler.dataset as dataset_module
import trace_oracles as oracle
from repro.analysis import broadcast_stats
from repro.analysis.cdf import Cdf
from repro.analysis.social_stats import followers_vs_viewers
from repro.crawler.broadcast_monitor import anonymize_id
from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    DowntimeWindow,
    creations_per_user,
    merge_datasets,
    viewer_tallies,
    views_per_user,
)
from repro.crawler.storage import (
    COLUMN_LAYOUT,
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
def records(columnar_dataset) -> list:
    """The same rows as record objects, for the oracles."""
    return list(columnar_dataset.records)


@pytest.fixture(scope="module")
def record_dataset(columnar_dataset, records) -> BroadcastDataset:
    """The same dataset rebuilt from its record list."""
    return BroadcastDataset(columnar_dataset.app_name, columnar_dataset.days, records=records)


def _assert_same_columns(a: BroadcastColumns, b: BroadcastColumns) -> None:
    for field, _dtype in COLUMN_LAYOUT:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestAggregateEquivalence:
    def test_backends_in_play(self, columnar_dataset, record_dataset):
        """A dataset built from records converts them to the same columns."""
        _assert_same_columns(record_dataset.columns, columnar_dataset.columns)
        assert isinstance(record_dataset.records, tuple)

    def test_table1_row_identical(self, columnar_dataset, records):
        assert columnar_dataset.table1_row() == oracle.table1_row(records)

    def test_daily_broadcast_counts_identical(self, columnar_dataset, records):
        assert np.array_equal(
            columnar_dataset.daily_broadcast_counts(),
            oracle.daily_broadcast_counts(records, columnar_dataset.days),
        )

    def test_daily_active_users_identical(self, columnar_dataset, records):
        col_viewers, col_casters = columnar_dataset.daily_active_users()
        rec_viewers, rec_casters = oracle.daily_active_users(records, columnar_dataset.days)
        assert np.array_equal(col_viewers, rec_viewers)
        assert np.array_equal(col_casters, rec_casters)

    def test_per_user_tallies_identical(self, columnar_dataset, records):
        assert views_per_user(columnar_dataset) == oracle.views_per_user(records)
        assert creations_per_user(columnar_dataset) == oracle.creations_per_user(records)

    def test_v1_serialization_identical(self, columnar_dataset, record_dataset):
        assert dataset_to_bytes(columnar_dataset) == dataset_to_bytes(record_dataset)

    def test_merge_matches_record_merge(self, columnar_dataset, records):
        other = generate_trace(TraceConfig.periscope(scale=SCALE, seed=SEED + 1)).dataset
        merged = merge_datasets([columnar_dataset, other])
        expected = oracle.merge_records([records, list(other.records)])
        assert dataset_to_bytes(merged) == dataset_to_bytes(
            BroadcastDataset(merged.app_name, merged.days, records=expected)
        )

    @pytest.mark.parametrize("loss_fraction", [0.0, 0.3, 1.0])
    def test_apply_downtime_matches_record_oracle(
        self, columnar_dataset, records, loss_fraction
    ):
        """Same rows kept, and the rng left in the same state: one draw per
        row inside the window, in row order, none outside it."""
        window = DowntimeWindow(start_day=40.0, end_day=55.5, loss_fraction=loss_fraction)
        library_rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        kept = columnar_dataset.apply_downtime(window, library_rng)
        expected = oracle.apply_downtime(records, window, oracle_rng)
        assert any(window.covers(r.start_day) for r in records)
        assert kept.downtime == window
        assert dataset_to_bytes(kept) == dataset_to_bytes(
            BroadcastDataset(kept.app_name, kept.days, records=expected)
        )
        assert library_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSparseUserIds:
    """Pseudonymized IDs span 63 bits: the aggregates must not assume
    dense IDs below 2**40."""

    @pytest.fixture(scope="class")
    def anonymized(self, records) -> list:
        import dataclasses

        return [
            dataclasses.replace(
                record,
                broadcaster_id=anonymize_id(record.broadcaster_id),
                viewer_ids=np.array([anonymize_id(int(v)) for v in record.viewer_ids]),
            )
            for record in records[:300]
        ]

    def test_ids_exceed_packing_range(self, anonymized):
        assert max(int(r.viewer_ids.max()) for r in anonymized if len(r.viewer_ids)) >= 1 << 40

    def test_per_user_tallies_match_oracle(self, anonymized):
        dataset = BroadcastDataset("Periscope", 98, records=anonymized)
        assert views_per_user(dataset) == oracle.views_per_user(anonymized)
        assert creations_per_user(dataset) == oracle.creations_per_user(anonymized)

    def test_daily_active_users_match_oracle(self, anonymized):
        dataset = BroadcastDataset("Periscope", 98, records=anonymized)
        viewers, casters = dataset.daily_active_users()
        expected_viewers, expected_casters = oracle.daily_active_users(anonymized, 98)
        assert np.array_equal(viewers, expected_viewers)
        assert np.array_equal(casters, expected_casters)


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


#: Each CDF's sample, computed one record at a time.
ORACLE_CDF_SAMPLES = {
    "broadcast_length_cdf": lambda records: [r.duration_s for r in records],
    "viewers_per_broadcast_cdf": lambda records: [r.total_views for r in records],
    "comments_cdf": lambda records: [r.comment_count for r in records],
    "hearts_cdf": lambda records: [r.heart_count for r in records],
    "views_per_user_cdf": lambda records: list(oracle.views_per_user(records).values()),
    "creations_per_user_cdf": lambda records: list(
        oracle.creations_per_user(records).values()
    ),
}


@pytest.fixture(scope="module", params=sorted(ANALYSIS_SOURCES))
def backend_pair(request) -> tuple[BroadcastDataset, list]:
    """(dataset, record list) holding the same rows."""
    columns = ANALYSIS_SOURCES[request.param]()
    return BroadcastDataset.from_columns(columns.app_name, 5, columns), columns.to_records()


class TestAnalysisEquivalence:
    """The Fig 3-7 analyses read columns directly; the record loops are the
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
        expected = Cdf(np.array(ORACLE_CDF_SAMPLES[name](records)))
        assert np.array_equal(analysis(columnar).values, expected.values)

    def test_activity_skew_identical(self, backend_pair):
        columnar, records = backend_pair
        assert broadcast_stats.viewer_activity_skew(
            columnar
        ) == oracle.viewer_activity_skew(records)

    def test_fig7_inputs_identical(self, backend_pair):
        columnar, records = backend_pair
        expected = (
            np.array([r.broadcaster_followers for r in records], dtype=float),
            np.array([r.total_views for r in records], dtype=float),
        )
        for col, rec in zip(followers_vs_viewers(columnar), expected):
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
        assert dict(zip(users.tolist(), counts.tolist())) == oracle.views_per_user(records)

    def test_rows_longer_than_a_window(self, monkeypatch):
        """A row with more views than one window still dedups as a whole,
        and a window never splits a row."""
        monkeypatch.setattr(dataset_module, "_TALLY_WINDOW", 1)
        columns = _random_columns(3, n_rows=20, n_users=6)
        columns.viewer_indptr = np.arange(0, 2001, 100, dtype=np.int64)
        columns.viewer_ids = np.random.default_rng(3).integers(0, 6, 2000)
        records = columns.to_records()
        users, counts = viewer_tallies(columns)
        assert dict(zip(users.tolist(), counts.tolist())) == oracle.views_per_user(records)
        assert counts.max() <= 20

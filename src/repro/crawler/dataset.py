"""Crawled broadcast datasets.

A :class:`BroadcastRecord` is the per-broadcast metadata row the paper's
crawler stored (no video or message content): identifiers, times, viewer
IDs with join times, and comment/heart tallies.  A :class:`BroadcastDataset`
is the full measurement — with support for the crawler-downtime window
(Aug 7–9, ~4.5% of broadcasts lost) that the paper reports.

Datasets have two interchangeable backends.  The record backend is a
Python list of :class:`BroadcastRecord` objects, built incrementally by
the crawler simulators.  The columnar backend (:class:`BroadcastColumns`)
stores the same rows as parallel numpy arrays — the ragged per-broadcast
viewer lists as one flat array plus a CSR-style ``viewer_indptr`` — which
is what the trace generator produces at scale: aggregates like
:meth:`BroadcastDataset.table1_row` then run as array reductions instead
of per-record loops, and records materialize lazily only when iterated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

SECONDS_PER_DAY = 86_400.0

#: Bit width reserved for user IDs when packing (day, user) pairs into a
#: single int64 for vectorized uniqueness counting.  Full-scale Periscope
#: has 12M users, far below 2**40; day indexes stay below 2**23.
_PACK_ID_BITS = 40

#: Viewer entries per window when tallying views per user from columns;
#: the working set is a few arrays of this length plus the tally itself.
_TALLY_WINDOW = 1 << 18


@dataclass(frozen=True)
class DowntimeWindow:
    """A crawler outage: broadcasts starting inside it are lost."""

    start_day: float
    end_day: float
    loss_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.end_day < self.start_day:
            raise ValueError("end_day before start_day")
        if not 0 <= self.loss_fraction <= 1:
            raise ValueError("loss_fraction must be within [0, 1]")

    def covers(self, day: float) -> bool:
        return self.start_day <= day < self.end_day


@dataclass
class BroadcastRecord:
    """One crawled broadcast (metadata only, identifiers anonymized upstream)."""

    broadcast_id: int
    broadcaster_id: int
    app_name: str
    start_time: float  # seconds since measurement start
    duration_s: float
    viewer_ids: np.ndarray  # registered (mobile) viewer IDs, one per view
    web_views: int
    heart_count: int
    comment_count: int
    commenter_count: int
    is_private: bool = False
    broadcaster_followers: int = 0

    def __post_init__(self) -> None:
        self.viewer_ids = np.asarray(self.viewer_ids, dtype=np.int64)
        if self.duration_s < 0:
            raise ValueError("negative duration")
        if self.web_views < 0:
            raise ValueError("negative web views")

    @property
    def start_day(self) -> float:
        return self.start_time / SECONDS_PER_DAY

    @property
    def mobile_views(self) -> int:
        return int(len(self.viewer_ids))

    @property
    def total_views(self) -> int:
        return self.mobile_views + self.web_views

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_s


@dataclass
class BroadcastColumns:
    """One batch of broadcasts as parallel arrays (the columnar backend).

    Row ``i`` of every array describes the same broadcast; the ragged
    viewer lists are stored CSR-style — ``viewer_ids[viewer_indptr[i] :
    viewer_indptr[i + 1]]`` are row ``i``'s registered viewers.
    """

    app_name: str
    broadcast_id: np.ndarray  # int64
    broadcaster_id: np.ndarray  # int64
    start_time: np.ndarray  # float64, seconds since measurement start
    duration_s: np.ndarray  # float64
    web_views: np.ndarray  # int64
    heart_count: np.ndarray  # int64
    comment_count: np.ndarray  # int64
    commenter_count: np.ndarray  # int64
    is_private: np.ndarray  # bool
    broadcaster_followers: np.ndarray  # int64
    viewer_indptr: np.ndarray  # int64, len == row count + 1
    viewer_ids: np.ndarray  # int64, flat ragged storage

    _INT_FIELDS = (
        "broadcast_id",
        "broadcaster_id",
        "web_views",
        "heart_count",
        "comment_count",
        "commenter_count",
        "broadcaster_followers",
    )
    _FLOAT_FIELDS = ("start_time", "duration_s")

    def __post_init__(self) -> None:
        for name in self._INT_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in self._FLOAT_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.is_private = np.asarray(self.is_private, dtype=bool)
        self.viewer_indptr = np.asarray(self.viewer_indptr, dtype=np.int64)
        self.viewer_ids = np.asarray(self.viewer_ids, dtype=np.int64)
        n = len(self.broadcast_id)
        for name in (*self._INT_FIELDS, *self._FLOAT_FIELDS, "is_private"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length mismatch")
        if len(self.viewer_indptr) != n + 1:
            raise ValueError("viewer_indptr must have row count + 1 entries")
        if n and self.viewer_indptr[-1] != len(self.viewer_ids):
            raise ValueError("viewer_indptr does not span viewer_ids")

    def __len__(self) -> int:
        return len(self.broadcast_id)

    @property
    def mobile_views(self) -> np.ndarray:
        """Per-row registered (mobile) view counts."""
        return np.diff(self.viewer_indptr)

    @property
    def total_views(self) -> np.ndarray:
        """Per-row mobile plus web view counts."""
        return self.mobile_views + self.web_views

    @classmethod
    def empty(cls, app_name: str) -> "BroadcastColumns":
        zero = np.empty(0, dtype=np.int64)
        return cls(
            app_name=app_name,
            broadcast_id=zero,
            broadcaster_id=zero,
            start_time=np.empty(0, dtype=np.float64),
            duration_s=np.empty(0, dtype=np.float64),
            web_views=zero,
            heart_count=zero,
            comment_count=zero,
            commenter_count=zero,
            is_private=np.empty(0, dtype=bool),
            broadcaster_followers=zero,
            viewer_indptr=np.zeros(1, dtype=np.int64),
            viewer_ids=zero,
        )

    @classmethod
    def from_records(
        cls, app_name: str, records: Sequence[BroadcastRecord]
    ) -> "BroadcastColumns":
        viewer_indptr = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum([len(r.viewer_ids) for r in records], out=viewer_indptr[1:])
        if records:
            viewer_ids = np.concatenate([r.viewer_ids for r in records])
        else:
            viewer_ids = np.empty(0, dtype=np.int64)
        return cls(
            app_name=app_name,
            broadcast_id=np.array([r.broadcast_id for r in records], dtype=np.int64),
            broadcaster_id=np.array([r.broadcaster_id for r in records], dtype=np.int64),
            start_time=np.array([r.start_time for r in records], dtype=np.float64),
            duration_s=np.array([r.duration_s for r in records], dtype=np.float64),
            web_views=np.array([r.web_views for r in records], dtype=np.int64),
            heart_count=np.array([r.heart_count for r in records], dtype=np.int64),
            comment_count=np.array([r.comment_count for r in records], dtype=np.int64),
            commenter_count=np.array(
                [r.commenter_count for r in records], dtype=np.int64
            ),
            is_private=np.array([r.is_private for r in records], dtype=bool),
            broadcaster_followers=np.array(
                [r.broadcaster_followers for r in records], dtype=np.int64
            ),
            viewer_indptr=viewer_indptr,
            viewer_ids=viewer_ids,
        )

    def to_records(self) -> list[BroadcastRecord]:
        """Materialize one :class:`BroadcastRecord` per row.

        All scalar fields are converted to native Python types (via
        ``tolist``) so the records serialize exactly like ones built row
        by row — columnar and record backends must be indistinguishable.
        """
        indptr = self.viewer_indptr
        return [
            BroadcastRecord(
                broadcast_id=bid,
                broadcaster_id=bcaster,
                app_name=self.app_name,
                start_time=start,
                duration_s=duration,
                viewer_ids=self.viewer_ids[indptr[i] : indptr[i + 1]],
                web_views=web,
                heart_count=hearts,
                comment_count=comments,
                commenter_count=commenters,
                is_private=private,
                broadcaster_followers=followers,
            )
            for i, (
                bid,
                bcaster,
                start,
                duration,
                web,
                hearts,
                comments,
                commenters,
                private,
                followers,
            ) in enumerate(
                zip(
                    self.broadcast_id.tolist(),
                    self.broadcaster_id.tolist(),
                    self.start_time.tolist(),
                    self.duration_s.tolist(),
                    self.web_views.tolist(),
                    self.heart_count.tolist(),
                    self.comment_count.tolist(),
                    self.commenter_count.tolist(),
                    self.is_private.tolist(),
                    self.broadcaster_followers.tolist(),
                )
            )
        ]

    def take(self, indices: np.ndarray) -> "BroadcastColumns":
        """Rows at ``indices`` (in that order), ragged viewers regathered."""
        indices = np.asarray(indices, dtype=np.int64)
        counts = self.mobile_views[indices]
        total = int(counts.sum())
        starts = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        offsets = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts[:-1], counts)
            + np.repeat(self.viewer_indptr[indices], counts)
        )
        return BroadcastColumns(
            app_name=self.app_name,
            broadcast_id=self.broadcast_id[indices],
            broadcaster_id=self.broadcaster_id[indices],
            start_time=self.start_time[indices],
            duration_s=self.duration_s[indices],
            web_views=self.web_views[indices],
            heart_count=self.heart_count[indices],
            comment_count=self.comment_count[indices],
            commenter_count=self.commenter_count[indices],
            is_private=self.is_private[indices],
            broadcaster_followers=self.broadcaster_followers[indices],
            viewer_indptr=starts,
            viewer_ids=self.viewer_ids[offsets],
        )

    @classmethod
    def concat(
        cls, parts: Sequence["BroadcastColumns"], app_name: Optional[str] = None
    ) -> "BroadcastColumns":
        """Concatenate batches (same app) into one columnar block.

        ``app_name`` names the app the batches must belong to and makes
        an *empty* ``parts`` legal (it concatenates to
        :meth:`empty`) — day-range shards of a quiet day produce zero
        batches, and the merge must not care.  Without it, empty input
        is an error as before.
        """
        if not parts:
            if app_name is None:
                raise ValueError("no column batches to concatenate")
            return cls.empty(app_name)
        first = parts[0]
        if app_name is not None and first.app_name != app_name:
            raise ValueError(
                f"cannot concatenate {first.app_name!r} columns as {app_name!r}"
            )
        if any(p.app_name != first.app_name for p in parts):
            raise ValueError("cannot concatenate columns from different apps")
        if len(parts) == 1:
            return first
        viewer_indptr = np.zeros(
            sum(len(p) for p in parts) + 1, dtype=np.int64
        )
        cursor = 0
        base = 0
        for part in parts:
            viewer_indptr[cursor + 1 : cursor + len(part) + 1] = (
                part.viewer_indptr[1:] + base
            )
            cursor += len(part)
            base += len(part.viewer_ids)
        return cls(
            app_name=first.app_name,
            broadcast_id=np.concatenate([p.broadcast_id for p in parts]),
            broadcaster_id=np.concatenate([p.broadcaster_id for p in parts]),
            start_time=np.concatenate([p.start_time for p in parts]),
            duration_s=np.concatenate([p.duration_s for p in parts]),
            web_views=np.concatenate([p.web_views for p in parts]),
            heart_count=np.concatenate([p.heart_count for p in parts]),
            comment_count=np.concatenate([p.comment_count for p in parts]),
            commenter_count=np.concatenate([p.commenter_count for p in parts]),
            is_private=np.concatenate([p.is_private for p in parts]),
            broadcaster_followers=np.concatenate(
                [p.broadcaster_followers for p in parts]
            ),
            viewer_indptr=viewer_indptr,
            viewer_ids=np.concatenate([p.viewer_ids for p in parts]),
        )


class BroadcastDataset:
    """A complete crawl of one application over one measurement window.

    Backed either by a list of :class:`BroadcastRecord` (crawler
    simulators build these incrementally) or by :class:`BroadcastColumns`
    (the trace generator's bulk output).  ``records`` materializes lazily
    from columns; aggregate statistics use the columnar fast path when it
    is available and fall back to record loops otherwise.
    """

    def __init__(
        self,
        app_name: str,
        days: int,
        records: Optional[list[BroadcastRecord]] = None,
        downtime: Optional[DowntimeWindow] = None,
        *,
        columns: Optional[BroadcastColumns] = None,
    ) -> None:
        if records is not None and columns is not None:
            raise ValueError("pass records or columns, not both")
        self.app_name = app_name
        self.days = days
        self.downtime = downtime
        self._columns = columns
        self._records: Optional[list[BroadcastRecord]] = (
            list(records) if records is not None else ([] if columns is None else None)
        )

    @classmethod
    def from_columns(
        cls,
        app_name: str,
        days: int,
        columns: BroadcastColumns,
        downtime: Optional[DowntimeWindow] = None,
    ) -> "BroadcastDataset":
        return cls(app_name=app_name, days=days, downtime=downtime, columns=columns)

    @property
    def records(self) -> list[BroadcastRecord]:
        """Record-object view; materialized from columns on first access."""
        if self._records is None:
            self._records = self._columns.to_records()
        return self._records

    @property
    def columns(self) -> Optional[BroadcastColumns]:
        """The columnar backend, or ``None`` for record-built datasets."""
        return self._columns

    def per_broadcast(self, field: str) -> np.ndarray:
        """One value per broadcast, in row order, of a field that is both
        a :class:`BroadcastRecord` attribute and a :class:`BroadcastColumns`
        column (or property) — read from the columns when present, without
        materializing records."""
        if self._columns is not None:
            return np.asarray(getattr(self._columns, field))
        return np.array([getattr(record, field) for record in self.records])

    def add(self, record: BroadcastRecord) -> None:
        records = self.records  # materialize before mutating
        records.append(record)
        self._columns = None  # stale: single source of truth is now records

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self.records)

    def __iter__(self) -> Iterator[BroadcastRecord]:
        return iter(self.records)

    # -- aggregate statistics (Table 1) ---------------------------------

    @property
    def broadcast_count(self) -> int:
        return len(self)

    @property
    def broadcaster_count(self) -> int:
        if self._columns is not None:
            return len(np.unique(self._columns.broadcaster_id))
        return len({record.broadcaster_id for record in self.records})

    @property
    def total_views(self) -> int:
        return self.mobile_views + self.web_views

    @property
    def mobile_views(self) -> int:
        if self._columns is not None:
            return len(self._columns.viewer_ids)
        return sum(record.mobile_views for record in self.records)

    @property
    def web_views(self) -> int:
        if self._columns is not None:
            return int(self._columns.web_views.sum())
        return sum(record.web_views for record in self.records)

    @property
    def unique_viewer_count(self) -> int:
        if self._columns is not None:
            return len(np.unique(self._columns.viewer_ids))
        unique: set[int] = set()
        for record in self.records:
            unique.update(record.viewer_ids.tolist())
        return len(unique)

    def table1_row(self) -> dict[str, int]:
        """The Table 1 row for this dataset."""
        return {
            "broadcasts": self.broadcast_count,
            "broadcasters": self.broadcaster_count,
            "total_views": self.total_views,
            "unique_viewers": self.unique_viewer_count,
        }

    # -- time series (Figures 1-2) ---------------------------------------

    def _start_days(self) -> np.ndarray:
        """Per-row integer start day (columnar backend only)."""
        return (self._columns.start_time / SECONDS_PER_DAY).astype(np.int64)

    def daily_broadcast_counts(self) -> np.ndarray:
        if self._columns is not None:
            days = self._start_days()
            valid = (days >= 0) & (days < self.days)
            return np.bincount(days[valid], minlength=self.days)
        counts = np.zeros(self.days, dtype=np.int64)
        for record in self.records:
            day = int(record.start_day)
            if 0 <= day < self.days:
                counts[day] += 1
        return counts

    def daily_active_users(self) -> tuple[np.ndarray, np.ndarray]:
        """(daily unique viewers, daily unique broadcasters)."""
        if self._columns is not None:
            cols = self._columns
            days = self._start_days()
            valid = (days >= 0) & (days < self.days)
            # Pack (day, user) into one int64 so uniqueness is one np.unique.
            b_pairs = (days[valid] << _PACK_ID_BITS) | cols.broadcaster_id[valid]
            day_per_view = np.repeat(days, cols.mobile_views)
            view_valid = (day_per_view >= 0) & (day_per_view < self.days)
            v_pairs = (day_per_view[view_valid] << _PACK_ID_BITS) | cols.viewer_ids[
                view_valid
            ]
            unique_b = np.unique(b_pairs)
            unique_v = np.unique(v_pairs)
            return (
                np.bincount(unique_v >> _PACK_ID_BITS, minlength=self.days),
                np.bincount(unique_b >> _PACK_ID_BITS, minlength=self.days),
            )
        viewers: list[set[int]] = [set() for _ in range(self.days)]
        broadcasters: list[set[int]] = [set() for _ in range(self.days)]
        for record in self.records:
            day = int(record.start_day)
            if not 0 <= day < self.days:
                continue
            broadcasters[day].add(record.broadcaster_id)
            viewers[day].update(record.viewer_ids.tolist())
        return (
            np.array([len(s) for s in viewers], dtype=np.int64),
            np.array([len(s) for s in broadcasters], dtype=np.int64),
        )

    # -- filtering --------------------------------------------------------

    def apply_downtime(
        self, window: DowntimeWindow, rng: np.random.Generator
    ) -> "BroadcastDataset":
        """Return a copy with broadcasts lost during the outage removed.

        Kept on the record path deliberately: the rng is consulted only
        for records inside the window, and that draw order is part of the
        deterministic contract with existing seeds.
        """
        kept = [
            record
            for record in self.records
            if not (window.covers(record.start_day) and rng.random() < window.loss_fraction)
        ]
        return BroadcastDataset(
            app_name=self.app_name, days=self.days, records=kept, downtime=window
        )

    def sample_records(
        self, rng: np.random.Generator, count: int
    ) -> list[BroadcastRecord]:
        """Uniform random sample (the delay study drew 16,013 broadcasts)."""
        if count >= len(self):
            return list(self.records)
        indices = rng.choice(len(self), size=count, replace=False)
        return [self.records[i] for i in sorted(indices)]


def merge_datasets(datasets: Sequence[BroadcastDataset]) -> BroadcastDataset:
    """Concatenate several crawls of the same app (e.g. sharded crawlers).

    Duplicate broadcast IDs keep their first occurrence (in dataset
    order).  When every input is columnar the merge is a concatenate plus
    one vectorized first-occurrence scan — no record objects are built.
    """
    if not datasets:
        raise ValueError("no datasets to merge")
    first = datasets[0]
    if any(d.app_name != first.app_name for d in datasets):
        raise ValueError("cannot merge datasets from different apps")
    days = max(d.days for d in datasets)
    if all(d.columns is not None for d in datasets):
        combined = BroadcastColumns.concat([d.columns for d in datasets])
        _, first_indices = np.unique(combined.broadcast_id, return_index=True)
        first_indices.sort()
        if len(first_indices) != len(combined):
            combined = combined.take(first_indices)
        return BroadcastDataset.from_columns(
            app_name=first.app_name, days=days, columns=combined
        )
    merged = BroadcastDataset(app_name=first.app_name, days=days)
    seen: set[int] = set()
    for dataset in datasets:
        for record in dataset:
            if record.broadcast_id not in seen:
                seen.add(record.broadcast_id)
                merged.add(record)
    return merged


def viewer_tallies(columns: BroadcastColumns) -> tuple[np.ndarray, np.ndarray]:
    """``(user IDs, broadcasts each viewed)`` from columns, ascending by ID.

    A user who appears several times in one broadcast's viewer list
    counts that broadcast once.  The (row, viewer) pairs are deduplicated
    inside bounded row windows and tallied into one count array indexed
    by user ID, so the working set is that array plus one window — never
    a sort of every view at once.  User IDs must lie in ``[0, 2**40)``;
    the array costs 8 bytes per ID up to the largest, which suits the
    dense ``1..total_users`` IDs of generated traces.
    """
    viewer_ids = columns.viewer_ids
    if len(viewer_ids) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    indptr = columns.viewer_indptr
    tallies = np.zeros(int(viewer_ids.max()) + 1, dtype=np.int64)
    # A window at least as long as the tally keeps the per-window
    # bincount linear in the number of views.
    window = max(_TALLY_WINDOW, len(tallies))
    max_rows = 1 << (63 - _PACK_ID_BITS)
    id_mask = (1 << _PACK_ID_BITS) - 1
    row, n_rows = 0, len(columns)
    while row < n_rows:
        end = int(np.searchsorted(indptr, indptr[row] + window, side="right")) - 1
        end = min(max(end, row + 1), n_rows, row + max_rows)
        local_rows = np.repeat(
            np.arange(end - row, dtype=np.int64), np.diff(indptr[row : end + 1])
        )
        pairs = np.unique(
            (local_rows << _PACK_ID_BITS) | viewer_ids[indptr[row] : indptr[end]]
        )
        tallies += np.bincount(pairs & id_mask, minlength=len(tallies))
        row = end
    users = np.flatnonzero(tallies)
    return users, tallies[users]


def views_per_user(
    records: Union[BroadcastDataset, Iterable[BroadcastRecord]]
) -> dict[int, int]:
    """Number of broadcasts viewed per registered user (Figure 6)."""
    if isinstance(records, BroadcastDataset) and records.columns is not None:
        users, counts = viewer_tallies(records.columns)
        return dict(zip(users.tolist(), counts.tolist()))
    counts_by_user: dict[int, int] = {}
    for record in records:
        for viewer in np.unique(record.viewer_ids):
            key = int(viewer)
            counts_by_user[key] = counts_by_user.get(key, 0) + 1
    return counts_by_user


def creations_per_user(
    records: Union[BroadcastDataset, Iterable[BroadcastRecord]]
) -> dict[int, int]:
    """Number of broadcasts created per user (Figure 6)."""
    if isinstance(records, BroadcastDataset) and records.columns is not None:
        users, counts = np.unique(
            records.columns.broadcaster_id, return_counts=True
        )
        return dict(zip(users.tolist(), counts.tolist()))
    counts_by_user: dict[int, int] = {}
    for record in records:
        counts_by_user[record.broadcaster_id] = (
            counts_by_user.get(record.broadcaster_id, 0) + 1
        )
    return counts_by_user

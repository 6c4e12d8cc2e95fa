"""Reference trace merge and dataset aggregates, written the slow way.

The library merges shard files out of core
(:mod:`repro.parallel.merge`) and computes every dataset aggregate as
array passes over :class:`~repro.crawler.dataset.BroadcastColumns`.
These are the plain versions it replaced: an in-memory concatenate,
lexsort and re-key over every day's columns, and per-record loops over
:class:`~repro.crawler.dataset.BroadcastRecord` lists.  They are slow
and easy to check by eye, so the tests hold the library exactly equal
to them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    BroadcastRecord,
    DowntimeWindow,
)
from repro.workload.trace import TraceConfig, build_trace_context, generate_day_columns


# -- trace generation ----------------------------------------------------


def memory_merge(
    config: TraceConfig, day_columns: Iterable[BroadcastColumns]
) -> BroadcastDataset:
    """Concatenate every day's columns, sort, and re-key IDs ``1..N``.

    Rows sort by ``(start_time, day-local broadcast_id)``: start times of
    different days never tie, so the day-local IDs only break ties
    within a day.
    """
    combined = BroadcastColumns.concat(list(day_columns), app_name=config.app_name)
    combined = combined.take(np.lexsort((combined.broadcast_id, combined.start_time)))
    combined.broadcast_id = np.arange(1, len(combined) + 1, dtype=np.int64)
    return BroadcastDataset.from_columns(
        app_name=config.app_name, days=config.growth.days, columns=combined
    )


def generate_dataset(config: TraceConfig) -> BroadcastDataset:
    """The whole trace in one process: every day in order, merged in RAM."""
    context, _graph = build_trace_context(config)
    return memory_merge(
        config, (generate_day_columns(context, day) for day in range(config.growth.days))
    )


# -- dataset aggregates, one record at a time -----------------------------


def table1_row(records: Sequence[BroadcastRecord]) -> dict[str, int]:
    unique_viewers: set[int] = set()
    for record in records:
        unique_viewers.update(record.viewer_ids.tolist())
    return {
        "broadcasts": len(records),
        "broadcasters": len({record.broadcaster_id for record in records}),
        "total_views": sum(record.total_views for record in records),
        "unique_viewers": len(unique_viewers),
    }


def daily_broadcast_counts(records: Sequence[BroadcastRecord], days: int) -> np.ndarray:
    counts = np.zeros(days, dtype=np.int64)
    for record in records:
        day = int(record.start_day)
        if 0 <= day < days:
            counts[day] += 1
    return counts


def daily_active_users(
    records: Sequence[BroadcastRecord], days: int
) -> tuple[np.ndarray, np.ndarray]:
    """(daily unique viewers, daily unique broadcasters)."""
    viewers: list[set[int]] = [set() for _ in range(days)]
    broadcasters: list[set[int]] = [set() for _ in range(days)]
    for record in records:
        day = int(record.start_day)
        if not 0 <= day < days:
            continue
        broadcasters[day].add(record.broadcaster_id)
        viewers[day].update(record.viewer_ids.tolist())
    return (
        np.array([len(s) for s in viewers], dtype=np.int64),
        np.array([len(s) for s in broadcasters], dtype=np.int64),
    )


def views_per_user(records: Iterable[BroadcastRecord]) -> dict[int, int]:
    """Broadcasts viewed per user; repeat views of one broadcast count once."""
    counts: dict[int, int] = {}
    for record in records:
        for viewer in np.unique(record.viewer_ids):
            counts[int(viewer)] = counts.get(int(viewer), 0) + 1
    return counts


def creations_per_user(records: Iterable[BroadcastRecord]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for record in records:
        counts[record.broadcaster_id] = counts.get(record.broadcaster_id, 0) + 1
    return counts


def viewer_activity_skew(records: Iterable[BroadcastRecord], top_fraction: float = 0.15) -> float:
    """Mean views of the most active ``top_fraction`` of viewers over the
    median viewer's views."""
    counts = sorted(views_per_user(records).values())
    top = counts[len(counts) - max(1, int(len(counts) * top_fraction)) :]
    return float(np.mean(np.array(top, dtype=float))) / float(np.median(counts))


def merge_records(
    record_lists: Sequence[Sequence[BroadcastRecord]],
) -> list[BroadcastRecord]:
    """Concatenate crawls; a duplicate broadcast ID keeps its first record."""
    merged: list[BroadcastRecord] = []
    seen: set[int] = set()
    for records in record_lists:
        for record in records:
            if record.broadcast_id not in seen:
                seen.add(record.broadcast_id)
                merged.append(record)
    return merged


def apply_downtime(
    records: Sequence[BroadcastRecord],
    window: DowntimeWindow,
    rng: np.random.Generator,
) -> list[BroadcastRecord]:
    """Drop records lost in the outage: one scalar draw per record inside
    the window, in record order, and none outside it."""
    return [
        record
        for record in records
        if not (window.covers(record.start_day) and rng.random() < window.loss_fraction)
    ]

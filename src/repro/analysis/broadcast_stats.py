"""Broadcast-level statistics: Table 1 and Figures 3–6."""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import Cdf
from repro.crawler.dataset import (
    BroadcastDataset,
    creations_per_user,
    viewer_tallies,
    views_per_user,
)


def table1_rows(datasets: list[BroadcastDataset]) -> dict[str, dict[str, int]]:
    """Table 1: one row of dataset statistics per application."""
    return {dataset.app_name: dataset.table1_row() for dataset in datasets}


def broadcast_length_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 3: CDF of broadcast length (seconds)."""
    return Cdf(dataset.per_broadcast("duration_s"))


def viewers_per_broadcast_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 4: CDF of total viewers per broadcast."""
    return Cdf(dataset.per_broadcast("total_views"))


def comments_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 5 (comments series)."""
    return Cdf(dataset.per_broadcast("comment_count"))


def hearts_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 5 (hearts series)."""
    return Cdf(dataset.per_broadcast("heart_count"))


def _views_per_active_user(dataset: BroadcastDataset) -> np.ndarray:
    """Broadcasts viewed by each user who viewed any (in no set order)."""
    if dataset.columns is not None:
        return viewer_tallies(dataset.columns)[1]
    return np.array(list(views_per_user(dataset.records).values()), dtype=np.int64)


def views_per_user_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 6: broadcasts viewed per (active) user."""
    counts = _views_per_active_user(dataset)
    if len(counts) == 0:
        raise ValueError("dataset has no views")
    return Cdf(counts)


def creations_per_user_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 6: broadcasts created per (active) broadcaster."""
    counts = creations_per_user(dataset)
    if not counts:
        raise ValueError("dataset has no broadcasts")
    return Cdf(np.array(list(counts.values()), dtype=float))


def viewer_activity_skew(dataset: BroadcastDataset, top_fraction: float = 0.15) -> float:
    """How many times the median user's viewing the top watchers average.

    The paper: "the most active 15% of users watch 10x more broadcasts
    than the median user."
    """
    if not 0 < top_fraction < 1:
        raise ValueError("top_fraction must be in (0, 1)")
    counts = np.sort(_views_per_active_user(dataset).astype(float))
    if len(counts) == 0:
        raise ValueError("dataset has no views")
    median = float(np.median(counts))
    top_count = max(1, int(len(counts) * top_fraction))
    top_mean = float(np.mean(counts[-top_count:]))
    if median == 0:
        raise ValueError("median viewer watched nothing")
    return top_mean / median


def hls_broadcast_fractions(
    dataset: BroadcastDataset, rtmp_threshold: int = 100
) -> dict[str, float]:
    """§4.1's spillover statistics: the fraction of broadcasts with at
    least one HLS viewer (audience beyond the RTMP tier), and with at
    least ``rtmp_threshold`` HLS viewers (paper: 5.77% and ~2.2%).

    The first ``rtmp_threshold`` viewers of a broadcast are served over
    RTMP and every later one over HLS."""
    total = dataset.broadcast_count
    if total == 0:
        raise ValueError("empty dataset")
    views = dataset.per_broadcast("total_views")
    some_hls = int(np.count_nonzero(views > rtmp_threshold))
    many_hls = int(np.count_nonzero(views >= 2 * rtmp_threshold))
    return {
        "some_hls": some_hls / total,
        "many_hls": many_hls / total,
    }

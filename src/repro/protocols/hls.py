"""HLS chunklists and polling schedules.

HLS viewers periodically fetch a *chunklist* (playlist) naming the chunks
available for download, then fetch new chunks (§4.1).  The delay cost of
this design — chunking delay plus polling delay — is the paper's central
scalability-versus-latency trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

#: Entries a live chunklist advertises: older chunks fall out of the window.
LIVE_WINDOW_ENTRIES = 6


@dataclass(frozen=True)
class ChunklistEntry:
    """One chunk reference in a chunklist."""

    chunk_index: int
    duration_s: float
    available_since: float  # when this entry appeared at the serving cache


@dataclass
class Chunklist:
    """An ordered set of available chunks with a version counter.

    ``version`` increments whenever a chunk is appended; caches compare
    versions to decide whether their copy is stale (the paper's
    "chunklist expiry" step ⑧).
    """

    entries: list[ChunklistEntry] = field(default_factory=list)
    version: int = 0
    max_entries: int = LIVE_WINDOW_ENTRIES

    def append(self, chunk_index: int, duration_s: float, now: float) -> None:
        if self.entries and chunk_index <= self.entries[-1].chunk_index:
            raise ValueError(
                f"chunk {chunk_index} not newer than {self.entries[-1].chunk_index}"
            )
        self.entries.append(
            ChunklistEntry(chunk_index=chunk_index, duration_s=duration_s, available_since=now)
        )
        if len(self.entries) > self.max_entries:
            self.entries = self.entries[-self.max_entries :]
        self.version += 1

    @property
    def latest_index(self) -> Optional[int]:
        return self.entries[-1].chunk_index if self.entries else None

    def entries_after(self, chunk_index: Optional[int]) -> list[ChunklistEntry]:
        """Entries newer than ``chunk_index`` (None = everything)."""
        if chunk_index is None:
            return list(self.entries)
        return [entry for entry in self.entries if entry.chunk_index > chunk_index]

    def copy(self) -> "Chunklist":
        clone = Chunklist(max_entries=self.max_entries)
        clone.entries = list(self.entries)
        clone.version = self.version
        return clone


@dataclass
class HlsPollSchedule:
    """A viewer's periodic chunklist polling.

    Periscope clients poll every 2–2.8 s (§5.2); the crawler polls every
    0.1 s.  The schedule exposes an iterator of poll times given a start
    phase, with optional per-poll jitter.
    """

    interval_s: float
    start_time: float = 0.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if self.jitter_s < 0:
            raise ValueError("jitter must be non-negative")

    def poll_times(
        self,
        until: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Iterator[float]:
        """Yield poll times in ``[start_time, until]``."""
        if self.jitter_s > 0 and rng is None:
            raise ValueError("jitter requires an RNG")
        time = self.start_time
        while time <= until:
            yield time
            step = self.interval_s
            if self.jitter_s > 0 and rng is not None:
                step = max(0.01, step + float(rng.uniform(-self.jitter_s, self.jitter_s)))
            time += step

    def first_poll_at_or_after(self, time: float) -> float:
        """First deterministic poll time >= ``time`` (jitter ignored)."""
        if time <= self.start_time:
            return self.start_time
        periods = int(np.ceil((time - self.start_time) / self.interval_s))
        return self.start_time + periods * self.interval_s

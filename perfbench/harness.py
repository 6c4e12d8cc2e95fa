"""Host clock, memory readings and result plumbing for the benchmark.

Every host-time read of the benchmark goes through :func:`now`, and every
host-memory read through :func:`peak_rss_mb`, so the determinism linter
sees exactly one reasoned suppression for each.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Check",
    "PassResult",
    "column_digest",
    "now",
    "peak_rss_mb",
    "result_line",
]


def now() -> float:
    """Host monotonic seconds."""
    return time.perf_counter()  # repro: allow[wall-clock] the benchmark times the program on the host; nothing it reads reaches the simulation


def peak_rss_mb() -> float:
    """Peak RSS in MiB of this process and of every child it has waited for.

    Children are the trace workload's pool workers.  They are forked, so
    their high-water mark includes the pages they share with this process.
    """
    from repro.obs import peak_rss_mb as own_peak_rss_mb

    own = own_peak_rss_mb() or 0.0
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # repro: allow[wall-clock] peak memory of the pool workers is an end-to-end metric of the benchmark
    return max(own, children_kib / 1024.0)


@dataclass(frozen=True)
class Check:
    """One output check, made outside the timed region."""

    name: str
    passed: bool


@dataclass
class PassResult:
    """What one pass over a workload's steps measured and produced.

    ``seconds`` holds the pass's timed steps; ``items`` is the work the
    workload's throughput counts; ``checks_passed`` is what the pass
    reports as its quality count; ``digest`` fingerprints its outputs.
    """

    seconds: dict[str, float]
    items: float
    checks: list[Check]
    checks_passed: int
    digest: str
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return math.fsum(self.seconds.values())


def column_digest(arrays: Iterable) -> str:
    """SHA-256 over the raw bytes of each array, in order."""
    import numpy as np

    digest = hashlib.sha256()
    for array in arrays:
        data = np.ascontiguousarray(array)
        digest.update(str(data.dtype).encode("ascii"))
        digest.update(str(data.shape).encode("ascii"))
        digest.update(data.tobytes())
    return digest.hexdigest()


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    """The one-line JSON result the benchmark prints last."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )

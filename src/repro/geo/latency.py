"""Distance-based wide-area latency model.

Packets in the simulated CDN pay a propagation delay proportional to
great-circle distance (light in fibre at ~2/3 c, with a path-stretch factor
for real routing), plus a per-hop processing floor and lognormal jitter.
The parameters produce one-way delays of roughly 1–5 ms within a metro,
~35 ms across the US, and ~120 ms transatlantic-to-Asia — consistent with
the delay magnitudes behind the paper's Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.coordinates import GeoPoint

#: Speed of light in fibre, km per second.
FIBRE_KM_PER_SECOND = 200_000.0

#: Distance buckets used by Figure 15 (km upper bounds; None = unbounded).
DISTANCE_BUCKETS: tuple[tuple[str, float, float], ...] = (
    ("co-located", 0.0, 0.0),
    ("(0, 500km]", 0.0, 500.0),
    ("(500, 5000km]", 500.0, 5000.0),
    ("(5000, 10000km]", 5000.0, 10000.0),
    (">10000km", 10000.0, float("inf")),
)


def distance_bucket(distance_km: float) -> str:
    """Figure 15's distance-bucket label for a DC pair separation."""
    if distance_km < 0:
        raise ValueError(f"negative distance: {distance_km}")
    if distance_km < 1.0:  # same city
        return "co-located"
    for label, lower, upper in DISTANCE_BUCKETS[1:]:
        if lower < distance_km <= upper:
            return label
    return ">10000km"


@dataclass
class LatencyModel:
    """One-way network delay as a function of endpoint geography.

    Parameters
    ----------
    path_stretch:
        Multiplier over great-circle distance accounting for indirect
        routing (typical measured values are 1.5–2.5).
    base_delay_s:
        Fixed per-path overhead: serialization, forwarding, kernel stacks.
    jitter_sigma:
        Sigma of the multiplicative lognormal jitter (0 disables jitter).
    """

    path_stretch: float = 2.0
    base_delay_s: float = 0.002
    jitter_sigma: float = 0.15

    def propagation_s(self, a: GeoPoint, b: GeoPoint) -> float:
        """Deterministic one-way propagation delay between two points."""
        distance = a.distance_km(b) * self.path_stretch
        return self.base_delay_s + distance / FIBRE_KM_PER_SECOND

    def jittered(self, base_s: float, rng: np.random.Generator) -> float:
        """``base_s`` with one multiplicative jitter draw (none if disabled)."""
        if self.jitter_sigma <= 0:
            return base_s
        return base_s * float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))

    def one_way_s(self, a: GeoPoint, b: GeoPoint, rng: np.random.Generator) -> float:
        """One jittered one-way delay sample."""
        return self.jittered(self.propagation_s(a, b), rng)

    def rtt_s(self, a: GeoPoint, b: GeoPoint, rng: np.random.Generator) -> float:
        """One jittered round-trip sample (two independent one-way draws)."""
        return self.one_way_s(a, b, rng) + self.one_way_s(b, a, rng)

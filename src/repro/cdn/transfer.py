"""The Wowza-to-Fastly chunk transfer model (Figure 15).

The paper infers that each Wowza DC hands fresh chunks to its *co-located*
Fastly POP, which then acts as a gateway distributing the chunk to the
other Fastly POPs — explaining the sharp >0.25 s gap between co-located
pairs and even nearby-city pairs (gateway coordination overhead), with
delay growing in distance beyond that.

The model composes, per (Wowza origin, Fastly destination) pair:

* origin handoff: Wowza to the co-located gateway POP (local, tens of ms),
* gateway coordination: cache-fill bookkeeping between the gateway and the
  destination POP (the ~0.25 s step),
* wide-area propagation: latency-model RTT between gateway and destination
  (request + response),
* chunk serialization over the inter-POP link,
* and the triggering viewer's poll offset (a fetch only starts when a
  viewer polls after chunklist expiry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.geo.datacenters import Datacenter, colocated_fastly
from repro.geo.latency import LatencyModel


@dataclass
class TransferModel:
    """Samples Wowza→Fastly chunk transfer delay (timestamps ⑦→⑪)."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    handoff_s: float = 0.06  # Wowza -> co-located gateway POP
    handoff_jitter_sigma: float = 0.35
    coordination_s: float = 0.22  # gateway <-> remote POP cache-fill overhead
    coordination_jitter_sigma: float = 0.25
    chunk_bytes: float = 300_000.0  # ~3 s of 0.8 Mbps video
    interpop_bandwidth_bps: float = 1.0e8

    def gateway_for(self, wowza: Datacenter) -> Datacenter:
        return colocated_fastly(wowza)

    def is_colocated(self, wowza: Datacenter, fastly: Datacenter) -> bool:
        return wowza.city == fastly.city

    def transfer_delay_s(
        self,
        wowza: Datacenter,
        fastly: Datacenter,
        rng: np.random.Generator,
    ) -> float:
        """One sampled chunk transfer delay from ``wowza`` to ``fastly``.

        Excludes the triggering poll offset — callers that model polling
        (the delay crawler polls every 0.1 s) add it on top.
        """
        return self.pair_sampler(wowza, fastly)(rng)

    def pair_sampler(
        self, wowza: Datacenter, fastly: Datacenter
    ) -> Callable[[np.random.Generator], float]:
        """The transfer-delay sampler for one fixed pair, geometry computed once.

        The gateway, the co-location test and both propagation directions
        depend only on the pair, so callers drawing many delays for one
        pair (Figure 15's study) build the sampler once.  Each call draws
        the handoff jitter; a pair routed beyond the gateway also draws the
        coordination jitter and one latency jitter per direction, in that
        order.
        """
        handoff_s, handoff_sigma = self.handoff_s, self.handoff_jitter_sigma

        def handoff(rng: np.random.Generator) -> float:
            return handoff_s * float(rng.lognormal(0.0, handoff_sigma))

        if self.is_colocated(wowza, fastly):
            return handoff
        gateway = self.gateway_for(wowza)
        if gateway.city == fastly.city:
            return handoff
        coordination_s, coordination_sigma = self.coordination_s, self.coordination_jitter_sigma
        latency = self.latency
        out_s = latency.propagation_s(gateway.location, fastly.location)
        back_s = latency.propagation_s(fastly.location, gateway.location)
        serialization = self.chunk_bytes * 8.0 / self.interpop_bandwidth_bps

        def sample(rng: np.random.Generator) -> float:
            origin_handoff = handoff(rng)
            coordination = coordination_s * float(rng.lognormal(0.0, coordination_sigma))
            # Request out, response (with the chunk) back.
            rtt = latency.jittered(out_s, rng) + latency.jittered(back_s, rng)
            return origin_handoff + coordination + rtt + serialization

        return sample

    def expected_transfer_delay_s(self, wowza: Datacenter, fastly: Datacenter) -> float:
        """Jitter-free transfer delay (for analytic comparisons)."""
        if self.is_colocated(wowza, fastly):
            return self.handoff_s
        gateway = self.gateway_for(wowza)
        if gateway.city == fastly.city:
            return self.handoff_s
        propagation = 2.0 * self.latency.propagation_s(gateway.location, fastly.location)
        serialization = self.chunk_bytes * 8.0 / self.interpop_bandwidth_bps
        return self.handoff_s + self.coordination_s + propagation + serialization

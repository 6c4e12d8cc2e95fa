"""The measurement-study pipeline facade.

Ties the substrates together into the paper's workflow:

1. **Passive delay crawling** (:class:`DelayMeasurementCampaign`): crawl
   many simulated broadcasts, collecting per-broadcast frame-arrival
   traces (at Wowza) and chunk-availability traces (at a Fastly POP).
   The paper crawled 16,013 real broadcasts this way; the campaign size
   is configurable.  The campaign computes each broadcast's traces
   without the event engine: the frame arrivals are one uplink pass, the
   chunk-ready times are every ``frames_per_chunk``-th of them, and the
   availability series is one step per origin pull of the broadcaster →
   Wowza → Fastly → 0.1 s crawler chain.  The result is byte for byte
   what that chain yields on the event engine, where fig11, the overlay
   comparison and
   :class:`~repro.core.full_broadcast.FullBroadcastSimulation` still
   run it.
2. **Trace-driven analyses**: polling simulation (Figures 12–13) and
   playback/pre-buffer simulation (Figures 16–17) over those traces.
3. **Controlled experiments** (Figure 11) via
   :class:`~repro.core.delay_breakdown.ControlledExperiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.transfer import TransferModel
from repro.client.network import LastMileLink
from repro.crawler.delay_crawler import HLS_POLL_INTERVAL_S
from repro.geo.datacenters import Datacenter
from repro.geo.regions import sample_user_location
from repro.platform.apps import AppProfile, PERISCOPE_PROFILE
from repro.protocols.hls import LIVE_WINDOW_ENTRIES
from repro.simulation.randomness import RandomStreams
from repro.simulation.distributions import lognormal_from_median

#: The crawler stops polling this long after the broadcast's nominal end.
CRAWL_TAIL_S = 30.0
#: Each broadcast's measurement window ends this long after its nominal end.
RUN_TAIL_S = 60.0


@dataclass(frozen=True)
class BroadcastTrace:
    """Fine-grained measurements of one crawled broadcast."""

    broadcast_id: int
    duration_s: float
    frame_arrivals: np.ndarray  # at the ingest server (② series)
    chunk_ready: np.ndarray  # at the ingest server (⑦ series)
    chunk_availability: np.ndarray  # at the crawled POP (⑪ series)
    chunk_duration_s: float
    frame_interval_s: float

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_availability)


@dataclass(frozen=True)
class CampaignBroadcast:
    """One campaign broadcast's placement, chunking and uplink, before crawling."""

    broadcast_id: int
    wowza_dc: Datacenter
    fastly_dc: Datacenter
    chunk_duration_s: float
    frames_per_chunk: int
    uplink: LastMileLink
    edge_rng: np.random.Generator


@dataclass
class DelayMeasurementCampaign:
    """Crawl ``n_broadcasts`` simulated broadcasts for delay traces."""

    n_broadcasts: int = 50
    seed: int = 2016
    profile: AppProfile = field(default_factory=lambda: PERISCOPE_PROFILE)
    duration_median_s: float = 180.0
    duration_sigma: float = 0.5
    min_duration_s: float = 60.0
    max_duration_s: float = 600.0
    #: Broadcaster uplinks are realistic mobile links with bursty outages;
    #: §6 attributes the long RTMP buffering tail to them.
    outage_rate_per_s: float = 1.0 / 140.0
    outage_mean_s: float = 3.0
    #: Per-broadcast chunk-duration mix (None = every broadcast uses the
    #: profile's chunk size).  §5.2 observed >85.9% on 3 s with a spread of
    #: other sizes; pass ``repro.core.chunk_stats.PERISCOPE_CHUNK_MIX`` to
    #: reproduce that heterogeneity.
    chunk_duration_mix: dict[float, float] | None = None
    transfer_model: TransferModel = field(default_factory=TransferModel)
    assignment: CdnAssignment = field(default_factory=CdnAssignment)

    def run(self) -> list[BroadcastTrace]:
        streams = RandomStreams(self.seed)
        placement_rng = streams.get("placement")
        duration_rng = streams.get("durations")
        traces = []
        for index in range(self.n_broadcasts):
            duration = float(
                np.clip(
                    lognormal_from_median(
                        duration_rng, self.duration_median_s, self.duration_sigma
                    ),
                    self.min_duration_s,
                    self.max_duration_s,
                )
            )
            traces.append(self._crawl_one(index, duration, streams, placement_rng))
        return traces

    def _place(
        self,
        index: int,
        duration_s: float,
        streams: RandomStreams,
        placement_rng: np.random.Generator,
    ) -> CampaignBroadcast:
        """Draw broadcast ``index``'s placement, chunk size and uplink."""
        local = streams.spawn(f"broadcast/{index}")

        broadcaster_location = sample_user_location(placement_rng)
        wowza_dc = self.assignment.wowza_for_broadcaster(broadcaster_location)
        # The crawler picks the POP nearest the broadcaster's ingest DC
        # (the paper ran dedicated crawlers near every DC; one suffices
        # per broadcast for trace collection).
        fastly_dc = self.assignment.fastly_for_viewer(wowza_dc.location)

        chunk_duration_s = self.profile.chunk_duration_s
        if self.chunk_duration_mix is not None:
            from repro.core.chunk_stats import sample_chunk_duration

            chunk_duration_s = sample_chunk_duration(
                local.get("chunk-size"), self.chunk_duration_mix
            )
        frames_per_chunk = max(1, round(chunk_duration_s / self.profile.frame_interval_s))

        uplink = LastMileLink.mobile_uplink(
            local.get("uplink"),
            horizon_s=duration_s + 30.0,
            outage_rate_per_s=self.outage_rate_per_s,
            outage_mean_s=self.outage_mean_s,
        )
        uplink.base_delay_s += self.transfer_model.latency.propagation_s(
            broadcaster_location, wowza_dc.location
        )
        return CampaignBroadcast(
            broadcast_id=index + 1,
            wowza_dc=wowza_dc,
            fastly_dc=fastly_dc,
            chunk_duration_s=chunk_duration_s,
            frames_per_chunk=frames_per_chunk,
            uplink=uplink,
            edge_rng=local.get("edge"),
        )

    def _crawl_one(
        self,
        index: int,
        duration_s: float,
        streams: RandomStreams,
        placement_rng: np.random.Generator,
    ) -> BroadcastTrace:
        """Crawl one broadcast: its frame, chunk-ready and availability series.

        The result equals, bit for bit, what the chain runs to on the event
        engine: a broadcaster streaming frames from ``t = 0`` into a
        ``WowzaIngest``, a ``FastlyEdge`` attached to it and a
        ``DelayCrawler`` polling that edge from ``t = 0`` every 0.1 s until
        ``stop_after = duration + 30``, all run to ``until = duration + 60``.
        Every quantity below is the one the engine computes, with the same
        floating-point operations and the same rng draws in the same order:

        * **Frames.**  The uplink times all frames in one ``send_many``
          pass and the end-of-broadcast marker in one ``send`` after it.
          Arrivals are non-decreasing (the link is FIFO), so the frames the
          run delivers, those arriving at or before ``until``, are a
          prefix.
        * **Chunk-ready times.**  Chunk ``k`` completes when frame
          ``(k + 1) * frames_per_chunk - 1`` arrives.  If the end marker
          lands by ``until``, every frame has arrived before it and a
          trailing partial chunk is flushed at the marker's arrival.
        * **Availability.**  The frame series and the end marker were
          scheduled before any poll, so at equal times they fire first: a
          poll at ``t`` sees every chunk ready at or before ``t``.  A pull
          is scheduled by a poll before that poll schedules its successor,
          so a pull landing sorts before a poll at the same instant.  Hence
          the cache is stale at the first poll tick at or after the
          ready time of the first chunk it lacks (that chunk is ready after
          the previous landing, so the previous pull has landed by then);
          that poll starts the next pull and draws its one
          ``transfer_delay_s`` from the ``edge`` substream.  The landing
          copies the origin's chunklist as it stands then: every chunk
          ready at or before the landing, of which the last
          ``LIVE_WINDOW_ENTRIES`` are listed, and each listed chunk newer
          than the cache's becomes available at the landing.  Older chunks
          that fell out of the window never become available.  Polls stop
          after ``stop_after`` (ticks are accumulated as ``now + 0.1``,
          like the crawler's re-scheduling), and a landing after
          ``until`` never fires, so neither starts or ends a pull.
        """
        broadcast = self._place(index, duration_s, streams, placement_rng)
        until = duration_s + RUN_TAIL_S
        frame_interval_s = self.profile.frame_interval_s
        frame_count = int(duration_s / frame_interval_s)
        arrivals = broadcast.uplink.send_many(np.arange(frame_count) * frame_interval_s)
        end_arrival = broadcast.uplink.send(frame_count * frame_interval_s)
        frame_arrivals = arrivals[: np.searchsorted(arrivals, until, side="right")]

        per_chunk = broadcast.frames_per_chunk
        chunk_ready = frame_arrivals[per_chunk - 1 :: per_chunk].copy()
        if end_arrival <= until and frame_count % per_chunk:
            chunk_ready = np.append(chunk_ready, end_arrival)

        return BroadcastTrace(
            broadcast_id=broadcast.broadcast_id,
            duration_s=duration_s,
            frame_arrivals=frame_arrivals,
            chunk_ready=chunk_ready,
            chunk_availability=self._availability(
                broadcast, chunk_ready, duration_s + CRAWL_TAIL_S, until
            ),
            chunk_duration_s=broadcast.chunk_duration_s,
            frame_interval_s=frame_interval_s,
        )

    def _availability(
        self,
        broadcast: CampaignBroadcast,
        chunk_ready: np.ndarray,
        stop_after: float,
        until: float,
    ) -> np.ndarray:
        """Availability ⑪ at the crawled POP, one step per origin pull."""
        ticks = poll_ticks(stop_after)
        available: list[float] = []
        cached = 0  # chunks in the edge's copy of the chunklist
        while cached < len(chunk_ready):
            tick = int(np.searchsorted(ticks, chunk_ready[cached]))
            if tick == len(ticks):
                break
            landing = float(ticks[tick]) + self.transfer_model.transfer_delay_s(
                broadcast.wowza_dc, broadcast.fastly_dc, broadcast.edge_rng
            )
            if landing > until:
                break
            listed = int(np.searchsorted(chunk_ready, landing, side="right"))
            available += [landing] * (listed - max(cached, listed - LIVE_WINDOW_ENTRIES))
            cached = listed
        return np.array(available)


def poll_ticks(stop_after: float) -> np.ndarray:
    """The delay crawler's poll times from 0 through ``stop_after``.

    Accumulated one interval at a time (``np.add.accumulate`` adds in
    order), exactly as the crawler re-schedules itself at ``now + 0.1``.
    """
    steps = np.full(int(stop_after / HLS_POLL_INTERVAL_S) + 2, HLS_POLL_INTERVAL_S)
    steps[0] = 0.0
    ticks = np.add.accumulate(steps)
    return ticks[ticks <= stop_after]


def rtmp_viewer_traces(traces: list[BroadcastTrace]) -> list[np.ndarray]:
    """Frame-arrival traces driving the Figure 16 playback simulation.

    Per §6, the RTMP viewer path is simulated directly from the
    frame-arrival sequence at the Wowza server (last-mile variance is
    assumed small and stable).
    """
    return [trace.frame_arrivals for trace in traces]


def hls_viewer_traces(
    traces: list[BroadcastTrace],
    rng: np.random.Generator,
    poll_interval_s: float = 2.8,
) -> list[np.ndarray]:
    """Chunk pickup traces driving the Figure 17 playback simulation.

    Per §6, each HLS viewer polls at 2.8 s with a random phase; a chunk is
    picked up at the first poll after it becomes available at the POP.
    """
    from repro.core.playback import poll_pickup_times

    pickups = []
    for trace in traces:
        if trace.chunk_count == 0:
            continue
        phase = float(trace.chunk_availability[0]) - float(
            rng.uniform(0.0, poll_interval_s)
        )
        pickups.append(
            poll_pickup_times(trace.chunk_availability, poll_interval_s, phase)
        )
    return pickups

"""The fine-grained delay crawler (§4.3).

Two instruments, mirroring the paper's passive measurement setup:

* an RTMP crawler that joins a broadcast immediately with a zero-length
  stream buffer and records every frame's arrival (timestamp ②) next to
  the capture timestamp embedded in the keyframe metadata (①);
* an HLS crawler that polls a Fastly POP every 0.1 s — 20× faster than a
  real viewer — so it both observes chunk availability (⑪) the moment it
  happens and *triggers* the origin pull the instant the chunklist
  expires, pinning the Wowza2Fastly measurement (⑪−⑦) tight.

Crawlers were deployed co-located with each datacenter (the paper used
nearby EC2 sites), so their own network delay is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.fastly import FastlyEdge
from repro.cdn.wowza import WowzaIngest
from repro.protocols.frames import VideoFrame
from repro.protocols.hls import Chunklist
from repro.simulation.engine import Simulator

#: The HLS crawler's chunklist poll interval (§4.3).
HLS_POLL_INTERVAL_S = 0.1


@dataclass(frozen=True)
class ChunkObservation:
    """One chunk seen by the HLS crawler."""

    chunk_index: int
    ready_time: float  # ⑦ (from the RTMP-side record)
    available_time: float  # ⑪ first availability at the POP


@dataclass
class DelayCrawler:
    """Joins one broadcast with both crawler instruments."""

    broadcast_id: int
    simulator: Simulator
    poll_interval_s: float = HLS_POLL_INTERVAL_S
    stop_after: float = float("inf")
    # RTMP observations, one entry per frame in push order.
    frame_sequences: list[int] = field(default_factory=list)
    frame_captures: list[float] = field(default_factory=list)  # ① from keyframe metadata
    frame_server_times: list[float] = field(default_factory=list)  # ② at the crawler
    _edge: FastlyEdge | None = field(default=None, init=False)
    _stopped: bool = field(default=False, init=False)

    # -- RTMP side -------------------------------------------------------

    def attach_rtmp(self, wowza: WowzaIngest) -> None:
        """Subscribe with a zero buffer: frames recorded the moment Wowza
        pushes them (the crawler is co-located, last mile ≈ 0)."""
        wowza.subscribe_rtmp(self.broadcast_id, self)

    def push_frame(self, broadcast_id: int, frame: VideoFrame, pushed_at: float) -> None:
        """RtmpSubscriber protocol."""
        if broadcast_id != self.broadcast_id:
            raise ValueError("frame for wrong broadcast")
        self.frame_sequences.append(frame.sequence)
        self.frame_captures.append(frame.capture_time)
        self.frame_server_times.append(pushed_at)

    # -- HLS side ----------------------------------------------------------

    def attach_hls(self, edge: FastlyEdge) -> None:
        """Start 0.1 s polling against ``edge`` (must already be attached
        to the broadcast)."""
        self._edge = edge
        self.simulator.schedule(0.0, self._poll, label=f"crawler-poll:{self.broadcast_id}")

    def stop(self) -> None:
        self._stopped = True

    def _poll(self) -> None:
        if self._stopped or self._edge is None or self.simulator.now > self.stop_after:
            return
        self._edge.poll(self.broadcast_id, self._on_chunklist)
        self.simulator.schedule(
            self.poll_interval_s, self._poll, label=f"crawler-poll:{self.broadcast_id}"
        )

    def _on_chunklist(self, chunklist: Chunklist, response_time: float) -> None:
        # Availability is recorded by the edge itself; nothing to do here.
        del chunklist, response_time

    # -- results -------------------------------------------------------------

    def _in_sequence_order(self, values: list[float] | np.ndarray) -> np.ndarray:
        order = np.argsort(self.frame_sequences, kind="stable")
        return np.asarray(values, dtype=float)[order]

    def frame_arrival_trace(self) -> np.ndarray:
        """Frame arrival times at the ingest server, sequence order."""
        return self._in_sequence_order(self.frame_server_times)

    def upload_delays(self) -> np.ndarray:
        """Per-frame ② − ①."""
        return self._in_sequence_order(
            np.subtract(self.frame_server_times, self.frame_captures)
        )

    def chunk_observations(self, wowza: WowzaIngest) -> list[ChunkObservation]:
        """Join the RTMP-side chunk-ready record with POP availability."""
        if self._edge is None:
            raise RuntimeError("HLS crawler was never attached")
        record = wowza.record_for(self.broadcast_id)
        availability = self._edge.availability_map(self.broadcast_id)
        observations = []
        # The sorted() is load-bearing: the unordered-set-iteration lint rule
        # fails the build if this intersection is ever iterated bare.
        for index in sorted(set(record.chunk_ready) & set(availability)):
            observations.append(
                ChunkObservation(
                    chunk_index=index,
                    ready_time=record.chunk_ready[index],
                    available_time=availability[index],
                )
            )
        return observations

    def chunk_availability_trace(self) -> np.ndarray:
        """Chunk availability times ⑪ at the polled POP, index order."""
        if self._edge is None:
            raise RuntimeError("HLS crawler was never attached")
        return np.array(self._edge.availability_times(self.broadcast_id))

    def wowza2fastly_delays(self, wowza: WowzaIngest) -> np.ndarray:
        """Per-chunk ⑪ − ⑦ (the Figure 15 quantity)."""
        observations = self.chunk_observations(wowza)
        return np.array([o.available_time - o.ready_time for o in observations])

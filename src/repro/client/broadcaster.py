"""The broadcaster upload client.

Captures 40 ms frames and uploads them to the assigned Wowza ingest server
over a persistent RTMP connection.  Each frame's capture timestamp is
embedded in the stream metadata (keyframes carry it in the real app; we
stamp every frame) — this is timestamp ① / ⑤ of the delay breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.wowza import WowzaIngest
from repro.client.network import LastMileLink
from repro.protocols.frames import VideoFrame
from repro.simulation.engine import Simulator


@dataclass
class BroadcasterClient:
    """Streams one broadcast into the CDN.

    ``start`` times every frame upfront: frame ``i`` is captured at
    ``start_time + i * frame_interval``, spends the sampled uplink delay on
    the wire, and lands in :meth:`WowzaIngest.receive_frame`.  The arrivals
    are one :meth:`LastMileLink.send_many` pass scheduled as one event
    series; each frame is built when it is delivered.
    """

    broadcast_id: int
    token: str
    simulator: Simulator
    wowza: WowzaIngest
    uplink: LastMileLink
    frame_interval_s: float = 0.040
    keyframe_interval: int = 30
    payload_bytes: int = 0  # >0 materializes per-frame payloads
    frames_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.frame_interval_s <= 0:
            raise ValueError("frame interval must be positive")
        if self.keyframe_interval <= 0:
            raise ValueError("keyframe interval must be positive")

    def start(self, start_time: float, duration_s: float) -> int:
        """Schedule the whole broadcast; returns the number of frames."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        frame_count = int(duration_s / self.frame_interval_s)
        self.wowza.start_broadcast(self.broadcast_id, self.token)
        captures = start_time + np.arange(frame_count) * self.frame_interval_s
        arrivals = self.uplink.send_many(captures, size_kb=self.payload_bytes / 1024.0)

        def deliver(sequence: int) -> None:
            capture_time = start_time + sequence * self.frame_interval_s
            self.wowza.receive_frame(
                self.broadcast_id, self._make_frame(sequence, capture_time)
            )

        self.simulator.schedule_series(
            np.maximum(arrivals, self.simulator.now),
            deliver,
            label=f"upload:{self.broadcast_id}",
        )
        end_time = start_time + frame_count * self.frame_interval_s
        # End the broadcast only after the last frame has arrived.
        last_arrival = self.uplink.send(end_time)
        self.simulator.schedule_at(
            max(last_arrival, self.simulator.now),
            lambda: self.wowza.end_broadcast(self.broadcast_id),
            label=f"end:{self.broadcast_id}",
        )
        self.frames_sent = frame_count
        return frame_count

    def _make_frame(self, sequence: int, capture_time: float) -> VideoFrame:
        payload = (
            bytes([sequence % 251]) * self.payload_bytes if self.payload_bytes else b""
        )
        return VideoFrame(
            sequence=sequence,
            capture_time=capture_time,
            duration_s=self.frame_interval_s,
            is_keyframe=(sequence % self.keyframe_interval == 0),
            payload=payload,
        )


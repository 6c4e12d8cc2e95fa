"""Reference frame delivery, written the slow way: one event per frame.

The library times a broadcast's frames in one
:meth:`~repro.client.network.LastMileLink.send_many` pass, schedules them
as one :meth:`~repro.simulation.engine.Simulator.schedule_series`, and
has RTMP viewers record a frame's arrival the moment it is pushed.  These
are the versions they replaced: every frame is built, sent through the
scalar :meth:`~repro.client.network.LastMileLink.send` and scheduled as
its own event up front, and every RTMP viewer delivery is an ``rtmp-dl``
event of its own.  :func:`install` patches them into the modules that
build clients, so the tests can hold the library's output bit-identical
to them.
"""

from __future__ import annotations

import importlib

import pytest

from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.viewer_client import RtmpViewerClient
from repro.protocols.frames import VideoFrame

#: Modules that build broadcaster or RTMP viewer clients by name.
CLIENT_MODULES = (
    "repro.core.pipeline",
    "repro.core.delay_breakdown",
    "repro.core.full_broadcast",
    "repro.overlay.comparison",
)


class OracleBroadcasterClient(BroadcasterClient):
    """Schedules every frame as its own event, built before the run."""

    def start(self, start_time: float, duration_s: float) -> int:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        frame_count = int(duration_s / self.frame_interval_s)
        self.wowza.start_broadcast(self.broadcast_id, self.token)
        for sequence in range(frame_count):
            capture_time = start_time + sequence * self.frame_interval_s
            frame = self._make_frame(sequence, capture_time)
            arrival = self.uplink.send(capture_time, size_kb=self.payload_bytes / 1024.0)
            self.simulator.schedule_at(
                max(arrival, self.simulator.now),
                _FrameDelivery(self.wowza, self.broadcast_id, frame),
                label=f"upload:{self.broadcast_id}:{sequence}",
            )
        end_time = start_time + frame_count * self.frame_interval_s
        last_arrival = self.uplink.send(end_time)
        self.simulator.schedule_at(
            max(last_arrival, self.simulator.now),
            lambda: self.wowza.end_broadcast(self.broadcast_id),
            label=f"end:{self.broadcast_id}",
        )
        self.frames_sent = frame_count
        return frame_count


class _FrameDelivery:
    def __init__(self, wowza: WowzaIngest, broadcast_id: int, frame: VideoFrame) -> None:
        self._wowza = wowza
        self._broadcast_id = broadcast_id
        self._frame = frame

    def __call__(self) -> None:
        self._wowza.receive_frame(self._broadcast_id, self._frame)


class OracleRtmpViewerClient(RtmpViewerClient):
    """Records each pushed frame from an event at its arrival time."""

    def push_frame(self, broadcast_id: int, frame: VideoFrame, pushed_at: float) -> None:
        if broadcast_id != self.broadcast_id:
            raise ValueError(f"frame for wrong broadcast {broadcast_id}")
        arrival = self.downlink.send(pushed_at)
        self.simulator.schedule_at(
            max(arrival, self.simulator.now),
            _RecordFrame(self, frame),
            label=f"rtmp-dl:{self.viewer_id}:{frame.sequence}",
        )


class _RecordFrame:
    def __init__(self, client: RtmpViewerClient, frame: VideoFrame) -> None:
        self._client = client
        self._frame = frame

    def __call__(self) -> None:
        client = self._client
        client.frame_arrivals[self._frame.sequence] = client.simulator.now
        client.frame_captures[self._frame.sequence] = self._frame.capture_time
        client._m_frames.inc()


def install(monkeypatch: pytest.MonkeyPatch) -> None:
    """Swap the oracle clients into every module that builds clients."""
    for name in CLIENT_MODULES:
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "BroadcasterClient", OracleBroadcasterClient)
        if hasattr(module, "RtmpViewerClient"):
            monkeypatch.setattr(module, "RtmpViewerClient", OracleRtmpViewerClient)

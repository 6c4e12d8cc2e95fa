"""The Wowza ingest server.

One :class:`WowzaIngest` per ingest datacenter.  For each broadcast it:

* accepts the broadcaster's RTMP frame uploads (recording arrival
  timestamps — ② / ⑥ of Figure 10),
* pushes every frame immediately to the subscribed RTMP viewers (the
  low-latency tier),
* assembles frames into chunks of ``frames_per_chunk`` (75 ≙ 3 s), records
  the chunk-ready timestamp ⑦, appends to the broadcast's chunklist, and
  notifies the Fastly edges so they expire their cached copies (⑧).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.geo.datacenters import Datacenter
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.protocols.frames import Chunk, VideoFrame
from repro.protocols.hls import Chunklist
from repro.simulation.engine import Simulator


class RtmpSubscriber(Protocol):
    """Anything that can receive pushed RTMP frames."""

    def push_frame(self, broadcast_id: int, frame: VideoFrame, pushed_at: float) -> None:
        """Called by the ingest server the moment a frame is available."""


#: Callback signature for chunklist-expiry notifications (Figure 10 ⑧).
ExpiryListener = Callable[[int, int, float], None]  # (broadcast_id, version, time)


@dataclass
class IngestRecord:
    """Per-broadcast measurements collected at the ingest server."""

    broadcast_id: int
    token: str
    frame_arrivals: dict[int, float] = field(default_factory=dict)  # seq -> ②/⑥
    frame_captures: dict[int, float] = field(default_factory=dict)  # seq -> ①/⑤
    chunk_ready: dict[int, float] = field(default_factory=dict)  # index -> ⑦
    chunks: dict[int, Chunk] = field(default_factory=dict)

    def upload_delay_s(self, sequence: int) -> float:
        """Per-frame upload delay (② − ①)."""
        return self.frame_arrivals[sequence] - self.frame_captures[sequence]

    def chunk_arrival_times(self) -> list[float]:
        """Chunk-ready times in index order (the RTMP-side chunk trace)."""
        return [self.chunk_ready[index] for index in sorted(self.chunk_ready)]


class _BroadcastIngest:
    """Mutable per-broadcast state inside a Wowza server."""

    def __init__(self, broadcast_id: int, token: str, frames_per_chunk: int) -> None:
        self.record = IngestRecord(broadcast_id=broadcast_id, token=token)
        self.frames_per_chunk = frames_per_chunk
        self.pending_frames: list[VideoFrame] = []
        self.chunklist = Chunklist()
        self.next_chunk_index = 0
        self.rtmp_subscribers: list[RtmpSubscriber] = []
        self.live = True


class WowzaIngest:
    """An ingest datacenter handling many concurrent broadcasts."""

    def __init__(
        self,
        datacenter: Datacenter,
        simulator: Simulator,
        frames_per_chunk: int = 75,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        if frames_per_chunk <= 0:
            raise ValueError("frames_per_chunk must be positive")
        self.datacenter = datacenter
        self.simulator = simulator
        self.frames_per_chunk = frames_per_chunk
        #: Fault surface (set by repro.faults): while False, origin pulls
        #: against this server fail at the edge; ingest itself continues.
        self.origin_available: bool = True
        #: Fault surface: multiplies edge→origin pull transfer times while
        #: the server is degraded (overloaded Wowza, §5 delay spikes).
        self.fault_delay_factor: float = 1.0
        self._broadcasts: dict[int, _BroadcastIngest] = {}
        self._expiry_listeners: dict[int, list[ExpiryListener]] = {}
        self._m_frames = metrics.counter("cdn.wowza.frames_received", help="RTMP frames ingested")
        self._m_chunks = metrics.counter("cdn.wowza.chunks_completed", help="HLS chunks assembled")
        self._m_starts = metrics.counter("cdn.wowza.broadcasts_started")
        self._m_ends = metrics.counter("cdn.wowza.broadcasts_ended")
        self._m_live = metrics.gauge("cdn.wowza.live_broadcasts", help="broadcasts ingesting now")
        self._m_pushes = metrics.counter("cdn.wowza.rtmp_frames_pushed", help="frames fanned out to RTMP subscribers")

    # -- broadcast lifecycle -------------------------------------------

    def start_broadcast(
        self, broadcast_id: int, token: str, frames_per_chunk: Optional[int] = None
    ) -> None:
        if broadcast_id in self._broadcasts:
            raise ValueError(f"broadcast {broadcast_id} already ingesting")
        self._broadcasts[broadcast_id] = _BroadcastIngest(
            broadcast_id, token, frames_per_chunk or self.frames_per_chunk
        )
        self._m_starts.inc()
        self._m_live.inc()

    def end_broadcast(self, broadcast_id: int) -> IngestRecord:
        """Flush the trailing partial chunk and close the broadcast.

        Closing drops the broadcast's RTMP subscribers and expiry
        listeners: an ended broadcast pushes no frame and completes no
        chunk, and without them the edges and subscribers that hold this
        server form no reference cycle with it, so a finished simulation
        is freed as soon as it is dropped rather than by the cyclic GC.
        """
        state = self._state(broadcast_id)
        if state.pending_frames:
            self._complete_chunk(state)
        if state.live:
            self._m_ends.inc()
            self._m_live.dec()
        state.live = False
        state.rtmp_subscribers.clear()
        self._expiry_listeners.pop(broadcast_id, None)
        return state.record

    def is_live(self, broadcast_id: int) -> bool:
        state = self._broadcasts.get(broadcast_id)
        return state is not None and state.live

    def record_for(self, broadcast_id: int) -> IngestRecord:
        return self._state(broadcast_id).record

    # -- ingest ----------------------------------------------------------

    def receive_frame(self, broadcast_id: int, frame: VideoFrame) -> None:
        """A frame arrived from the broadcaster (called at arrival time)."""
        state = self._state(broadcast_id)
        if not state.live:
            raise ValueError(f"broadcast {broadcast_id} already ended")
        now = self.simulator.now
        state.record.frame_arrivals[frame.sequence] = now
        state.record.frame_captures[frame.sequence] = frame.capture_time
        self._m_frames.inc()

        # RTMP tier: push immediately to every subscriber.
        if state.rtmp_subscribers:
            self._m_pushes.inc(len(state.rtmp_subscribers))
            for subscriber in list(state.rtmp_subscribers):
                subscriber.push_frame(broadcast_id, frame, now)

        # HLS tier: chunk assembly.
        state.pending_frames.append(frame)
        if len(state.pending_frames) >= state.frames_per_chunk:
            self._complete_chunk(state)

    def _complete_chunk(self, state: _BroadcastIngest) -> None:
        now = self.simulator.now
        chunk = Chunk(
            index=state.next_chunk_index,
            frames=tuple(state.pending_frames),
            completed_time=now,
        )
        state.pending_frames = []
        state.next_chunk_index += 1
        self._m_chunks.inc()
        state.record.chunk_ready[chunk.index] = now
        state.record.chunks[chunk.index] = chunk
        state.chunklist.append(chunk.index, chunk.duration_s, now)
        for listener in self._expiry_listeners.get(state.record.broadcast_id, []):
            listener(state.record.broadcast_id, state.chunklist.version, now)

    # -- RTMP fan-out ------------------------------------------------------

    def subscribe_rtmp(self, broadcast_id: int, subscriber: RtmpSubscriber) -> None:
        self._state(broadcast_id).rtmp_subscribers.append(subscriber)

    def unsubscribe_rtmp(self, broadcast_id: int, subscriber: RtmpSubscriber) -> None:
        subscribers = self._state(broadcast_id).rtmp_subscribers
        if subscriber in subscribers:
            subscribers.remove(subscriber)

    def rtmp_subscriber_count(self, broadcast_id: int) -> int:
        return len(self._state(broadcast_id).rtmp_subscribers)

    # -- origin interface for Fastly ---------------------------------------

    def add_expiry_listener(self, broadcast_id: int, listener: ExpiryListener) -> None:
        self._expiry_listeners.setdefault(broadcast_id, []).append(listener)

    def chunklist_snapshot(self, broadcast_id: int) -> Chunklist:
        return self._state(broadcast_id).chunklist.copy()

    def get_chunk(self, broadcast_id: int, index: int) -> Chunk:
        chunks = self._state(broadcast_id).record.chunks
        if index not in chunks:
            raise KeyError(f"chunk {index} not (yet) available for {broadcast_id}")
        return chunks[index]

    def _state(self, broadcast_id: int) -> _BroadcastIngest:
        if broadcast_id not in self._broadcasts:
            raise KeyError(f"broadcast {broadcast_id} not ingesting here")
        return self._broadcasts[broadcast_id]

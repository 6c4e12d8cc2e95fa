"""A minimal, deterministic discrete-event simulation engine.

The engine is intentionally simple: a priority queue of timestamped events,
a clock that only moves forward, and cancellation support.  Determinism
matters more than raw speed here — ties are broken by insertion order so two
runs with the same seed produce identical traces.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(2.0, lambda: fired.append("b"))  # doctest: +ELLIPSIS
Event(...)
>>> sim.schedule(1.0, lambda: fired.append("a"))  # doctest: +ELLIPSIS
Event(...)
>>> sim.run()
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import SpanRecorder


class SimulationError(Exception):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    Events order by ``(time, sequence)`` — the sequence number is a global
    insertion counter, which makes simultaneous events fire in the order
    they were scheduled.  This keeps runs deterministic.

    A ``__slots__`` class rather than a dataclass: events are created once
    per scheduled callback, so construction and attribute access sit on the
    engine's hottest path.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "label", "_queue", "_in_heap")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        _queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.label = label
        self._queue = _queue
        self._in_heap = _queue is not None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None and self._in_heap:
            self._queue._notify_cancel()


class EventQueue:
    """A heap of :class:`Event` objects with lazy cancellation.

    Live/cancelled accounting is kept incrementally so ``len`` is O(1)
    (``Simulator.pending`` in a loop used to be quadratic), and the heap is
    compacted once cancelled entries outnumber live ones, bounding both
    memory and pop latency under heavy cancellation.
    """

    #: Below this heap size, compaction is not worth the heapify.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0
        self._dead = 0  # cancelled events still sitting in the heap
        self.cancelled_total = 0
        self.pushes = 0  # heap insertions, series re-arms included

    def __len__(self) -> int:
        return self._live

    @property
    def dead(self) -> int:
        """Cancelled events not yet purged from the heap."""
        return self._dead

    @property
    def heap_size(self) -> int:
        """Physical heap length (live + not-yet-purged cancelled)."""
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        event = Event(time, next(self._counter), action, label, self)
        heapq.heappush(self._heap, event)
        self._live += 1
        self.pushes += 1
        return event

    def reserve(self, count: int) -> int:
        """Claim ``count`` consecutive sequence numbers; returns the first."""
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def _arm(self, event: Event) -> None:
        """(Re-)insert a series entry keyed by its next step."""
        heapq.heappush(self._heap, event)
        self.pushes += 1

    def _notify_cancel(self) -> None:
        """An in-heap event was cancelled; update accounting, maybe compact."""
        self._live -= 1
        self._dead += 1
        self.cancelled_total += 1
        if self._dead * 2 >= len(self._heap) and len(self._heap) >= self._COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.

        ``heapify`` preserves the ``(time, sequence)`` ordering contract, so
        pop order — and therefore simulation determinism — is unaffected.
        """
        for event in self._heap:
            if event.cancelled:
                event._in_heap = False
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def pop(self) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` when drained."""
        while self._heap:
            event = heapq.heappop(self._heap)
            event._in_heap = False
            if not event.cancelled:
                self._live -= 1
                return event
            self._dead -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)._in_heap = False
            self._dead -= 1
        if self._heap:
            return self._heap[0].time
        return None


def _spent(*_: object) -> None:
    """Stands in for the callbacks of a series whose steps have all fired."""


class _Series(Event):
    """Pre-timed steps ``action(0) .. action(k-1)`` behind one heap entry.

    The entry is keyed ``(times[i], first + i)`` for its next unfired step
    ``i``, where ``first`` is the first of ``k`` reserved sequence numbers,
    so it pops exactly when per-step event ``i`` would have.  Once a step
    has fired, the next one runs inline only while its key still sorts
    before the heap top and stays within the run's ``until`` and
    ``max_events``; otherwise the entry is re-armed.  Ordinary events
    therefore interleave with the steps exactly as with ``k`` events.
    """

    __slots__ = ("_times", "_first", "_index", "_step", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        times: list[float],
        first: int,
        step: Callable[[int], None],
        label: str,
    ) -> None:
        super().__init__(times[0], first, self._fire, label, sim._queue)
        self._sim = sim
        self._times = times
        self._first = first
        self._index = 0
        self._step = step

    def _fire(self) -> None:
        sim = self._sim
        queue = sim._queue
        times = self._times
        last = len(times) - 1
        index = self._index
        try:
            self._step(index)
            until, stop_at, spans = sim._until, sim._stop_at, sim._spans
            while index < last:
                time = times[index + 1]
                if until is not None and time > until:
                    break
                # The run loop counts the step that just fired after we
                # return; it is one of this run's events already.
                if stop_at is not None and sim._events_processed + 1 >= stop_at:
                    break
                top_time = queue.peek_time()
                if top_time is not None and (
                    top_time < time
                    or (top_time == time and queue._heap[0].sequence < self._first + index + 1)
                ):
                    break
                sim._events_processed += 1
                index += 1
                queue._live -= 1
                sim._now = time
                if spans is not None:
                    spans.record(self.label, time)
                self._step(index)
        finally:
            # Also on an exception: the unfired steps stay scheduled, as
            # their per-step events would have.
            if index < last:
                self._index = index + 1
                self.time = times[index + 1]
                self.sequence = self._first + index + 1
                queue._arm(self)
            else:
                # ``action`` is a bound method of this series: drop the
                # cycle so the spent series, and everything its step
                # reaches, is freed at once rather than by the cyclic GC.
                self.action = self._step = _spent


class Simulator:
    """Discrete-event simulator with a forward-only clock.

    Components schedule callbacks at absolute times (:meth:`schedule_at`) or
    relative delays (:meth:`schedule`).  ``run`` drains the queue, optionally
    up to a horizon.

    Passing a live :class:`~repro.obs.metrics.MetricsRegistry` as ``metrics``
    turns on engine observability: per-label event counts and inter-event
    gaps (spans keyed by the label prefix before ``:``), plus processed /
    cancelled counters and a queue-depth gauge.  The default
    ``NULL_REGISTRY`` keeps the run loop on a single pointer check.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self._queue = EventQueue()
        self._now = float(start_time)
        self._events_processed = 0
        self._running = False
        # The current run's horizon, read by series run-ahead.
        self._until: Optional[float] = None
        self._stop_at: Optional[int] = None
        self._metrics = metrics
        self._spans: Optional[SpanRecorder] = None
        if metrics.enabled:
            metrics.bind_simulator(self)
            self._spans = SpanRecorder(metrics)
            metrics.add_collector(self._collect)

    def _collect(self, registry: MetricsRegistry) -> None:
        """Snapshot collector: publish engine totals without hot-path cost."""
        processed = registry.counter(
            "engine.events_processed", help="events executed by the run loop"
        )
        if self._events_processed > processed.value:
            processed.inc(self._events_processed - processed.value)
        cancelled = registry.counter(
            "engine.events_cancelled", help="events cancelled before firing"
        )
        if self._queue.cancelled_total > cancelled.value:
            cancelled.inc(self._queue.cancelled_total - cancelled.value)
        pushes = registry.counter(
            "engine.heap_pushes", help="heap insertions (a series counts each re-arm)"
        )
        if self._queue.pushes > pushes.value:
            pushes.inc(self._queue.pushes - pushes.value)
        registry.gauge("engine.queue_depth", help="pending events").set(
            float(len(self._queue))
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this simulator reports into (NULL_REGISTRY when off)."""
        return self._metrics

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still scheduled (each unfired series step counts)."""
        return len(self._queue)

    @property
    def heap_pushes(self) -> int:
        """Heap insertions so far; a series counts its first arm and each re-arm."""
        return self._queue.pushes

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, action, label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._queue.push(time, action, label)

    def schedule_series(
        self, times: Sequence[float], action: Callable[[int], None], label: str = ""
    ) -> None:
        """Schedule ``action(i)`` at ``times[i]`` for every ``i``, in one heap entry.

        Exactly equivalent to calling ``schedule_at(times[i], ...)`` for
        each ``i`` now: the series reserves ``len(times)`` consecutive
        sequence numbers, so ties with other events break as before, and
        every step counts in ``events_processed`` and records its span.
        ``times`` must be non-decreasing.  A series cannot be cancelled.
        """
        steps = [float(time) for time in times]
        if not steps:
            return
        if not steps[0] >= self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={steps[0]}, now={self._now})"
            )
        if not all(a <= b for a, b in zip(steps, steps[1:])):
            raise SimulationError("series times must be non-decreasing")
        queue = self._queue
        series = _Series(self, steps, queue.reserve(len(steps)), action, label)
        queue._live += len(steps)
        queue._arm(series)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the clock is
            advanced exactly to ``until``.  ``None`` drains the queue.
        max_events:
            Safety valve — stop after this many events.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        stop_at = None if max_events is None else self._events_processed + max_events
        self._until, self._stop_at = until, stop_at
        spans = self._spans
        try:
            while True:
                if stop_at is not None and self._events_processed >= stop_at:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = self._queue.pop()
                if event is None:
                    break
                self._now = event.time
                if spans is not None:
                    spans.record(event.label, event.time)
                event.action()
                self._events_processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

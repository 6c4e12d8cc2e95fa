"""Tests for the discrete-event engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.simulation.engine import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        assert queue.pop().time == 2.0

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_empty_queue_pops_none(self):
        assert EventQueue().pop() is None
        assert EventQueue().peek_time() is None

    def test_len_is_constant_time_accounting(self):
        """Regression: __len__ used to scan the whole heap on every call."""
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(100)]
        assert len(queue) == 100
        for event in events[:60]:
            event.cancel()
        assert len(queue) == 40
        # Double-cancel must not double-count.
        events[0].cancel()
        assert len(queue) == 40
        assert queue.cancelled_total == 60

    def test_cancel_after_pop_does_not_corrupt_len(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is first
        first.cancel()  # already out of the heap
        assert len(queue) == 1
        assert queue.pop().time == 2.0
        assert len(queue) == 0

    def test_compaction_purges_cancelled_and_keeps_order(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(200)]
        for event in events[::2]:  # cancel half -> triggers compaction
            event.cancel()
        assert queue.heap_size < 200  # cancelled events physically removed
        assert len(queue) == 100
        times = [queue.pop().time for _ in range(100)]
        assert times == [float(i) for i in range(1, 200, 2)]
        assert queue.pop() is None

    def test_compaction_preserves_tie_order(self):
        queue = EventQueue()
        cancels = [queue.push(0.5, lambda: None) for _ in range(80)]
        ties = [queue.push(1.0, lambda: None) for _ in range(20)]
        for event in cancels:
            event.cancel()
        popped = [queue.pop() for _ in range(20)]
        assert popped == ties  # insertion order survives heapify

    def test_peek_time_updates_accounting(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0
        assert len(queue) == 1
        assert queue.dead == 0  # the cancelled head was purged


class TestSimulator:
    def test_runs_actions_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        observed = []
        sim.schedule(1.5, lambda: observed.append(sim.now))
        sim.schedule(4.0, lambda: observed.append(sim.now))
        sim.run()
        assert observed == [1.5, 4.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_actions_can_schedule_more_actions(self):
        sim = Simulator()
        fired = []

        def chain(depth: int) -> None:
            fired.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_schedule_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_max_events_limits_processing(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        assert sim.pending == 6

    def test_start_time_respected(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.now))
        sim.run()
        assert observed == [101.0]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter() -> None:
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clock_never_goes_backwards(self):
        sim = Simulator()
        times = []
        for delay in [5.0, 1.0, 3.0, 2.0, 4.0]:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestEventSeries:
    def test_steps_fire_in_order_with_their_index(self):
        sim = Simulator()
        fired = []
        sim.schedule_series([1.0, 1.0, 2.5], lambda i: fired.append((sim.now, i)), label="s")
        assert sim.pending == 3
        sim.run()
        assert fired == [(1.0, 0), (1.0, 1), (2.5, 2)]
        assert sim.events_processed == 3

    def test_runs_ahead_without_re_arming_when_nothing_interleaves(self):
        sim = Simulator()
        sim.schedule_series([float(i) for i in range(100)], lambda i: None)
        sim.run()
        assert sim.events_processed == 100
        assert sim.heap_pushes == 1

    def test_empty_series_is_a_no_op(self):
        sim = Simulator()
        sim.schedule_series([], lambda i: None)
        assert sim.pending == 0
        assert sim.heap_pushes == 0

    def test_unordered_times_raise(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_series([2.0, 1.0], lambda i: None)

    def test_times_in_the_past_raise(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=5.0).schedule_series([4.0, 6.0], lambda i: None)

    def test_failing_step_leaves_later_steps_scheduled(self):
        """As with per-step events: the raising step is spent and
        uncounted, the rest fire on the next run."""
        sim = Simulator()
        fired = []

        def step(index: int) -> None:
            if index == 1:
                raise RuntimeError("boom")
            fired.append(index)

        sim.schedule_series([1.0, 2.0, 3.0], step)
        with pytest.raises(RuntimeError):
            sim.run()
        assert (fired, sim.events_processed, sim.pending) == ([0], 1, 1)
        sim.run()
        assert fired == [0, 2]

    def test_spent_series_releases_its_step_without_cyclic_gc(self):
        class Payload:
            pass

        payload = Payload()
        released = weakref.ref(payload)
        sim = Simulator()
        sim.schedule_series([1.0, 2.0], lambda i, p=payload: None)
        del payload
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run()
            assert released() is None
        finally:
            if enabled:
                gc.enable()

    def test_heap_pushes_reach_the_snapshot(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(metrics=registry)
        sim.schedule(1.5, lambda: None)
        sim.schedule_series([1.0, 2.0, 3.0], lambda i: None)
        sim.run()
        counters = registry.snapshot()["counters"]
        # The ordinary event, the series' first arm, and its re-arm at 2.0.
        assert counters["engine.heap_pushes"]["value"] == 3
        assert counters["engine.events_processed"]["value"] == 4

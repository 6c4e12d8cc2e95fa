"""Cross-cutting property-based tests.

Differential tests pit the vectorized implementations against
straightforward reference loops; invariant tests encode the physical
sanity conditions every run must satisfy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.network import LastMileLink, OutageSchedule
from repro.core.playback import PlaybackConfig, simulate_playback
from repro.obs.metrics import MetricsRegistry
from repro.simulation.engine import Simulator


def _reference_rebuffer(arrivals: np.ndarray, start_play: float, d: float):
    """O(n) reference implementation of the stall-and-wait player."""
    play_times = []
    next_slot = start_play
    for arrival in arrivals:
        play = max(next_slot, arrival)
        play_times.append(play)
        next_slot = play + d
    return np.array(play_times)


arrivals_strategy = st.lists(
    st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=150
).map(lambda xs: np.array(sorted(xs)))


class TestRebufferDifferential:
    @given(trace=arrivals_strategy, prebuffer=st.floats(0.0, 20.0), d=st.floats(0.05, 4.0))
    @settings(max_examples=120, deadline=None)
    def test_vectorized_matches_reference(self, trace, prebuffer, d):
        config = PlaybackConfig(prebuffer_s=prebuffer, unit_duration_s=d)
        result = simulate_playback(trace, config)
        k0 = min(config.prebuffer_units, len(trace)) - 1
        start = float(np.max(trace[: k0 + 1]))
        reference = _reference_rebuffer(trace, start, d)
        assert np.allclose(result.play_times, reference, atol=1e-9)

    @given(trace=arrivals_strategy, d=st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_stall_time_matches_reference_sum(self, trace, d):
        config = PlaybackConfig(prebuffer_s=0.0, unit_duration_s=d)
        result = simulate_playback(trace, config)
        start = float(trace[0])
        reference = _reference_rebuffer(trace, start, d)
        stalls = np.maximum(
            reference[1:] - (reference[:-1] + d), 0.0
        ).sum() + max(reference[0] - start, 0.0)
        assert result.stall_time_s == pytest.approx(float(stalls), abs=1e-9)


class TestOutageScheduleProperties:
    @given(
        windows=st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 20, allow_nan=False)),
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_merged_windows_disjoint_and_sorted(self, windows):
        schedule = OutageSchedule([(start, start + length) for start, length in windows])
        for (s1, e1), (s2, e2) in zip(schedule.windows, schedule.windows[1:]):
            assert e1 < s2  # strictly disjoint after merging

    @given(
        windows=st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0.1, 20, allow_nan=False)),
            max_size=10,
        ),
        probe=st.floats(0, 150, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_release_time_is_outside_all_windows(self, windows, probe):
        schedule = OutageSchedule([(start, start + length) for start, length in windows])
        released = schedule.release_time(probe)
        assert released >= probe
        for start, end in schedule.windows:
            assert not (start <= released < end)


class TestLinkProperties:
    @given(
        sends=st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=80),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_and_causality(self, sends, seed):
        link = LastMileLink(
            rng=np.random.default_rng(seed), base_delay_s=0.02, jitter_sigma=0.8
        )
        deliveries = [link.send(t) for t in sorted(sends)]
        # Causality: never delivered before sent (+base floor would need
        # jitter >= 0, which lognormal guarantees).
        for sent, delivered in zip(sorted(sends), deliveries):
            assert delivered > sent
        # FIFO: non-decreasing delivery order.
        assert all(b >= a for a, b in zip(deliveries, deliveries[1:]))

    @given(
        outage_start=st.floats(0.0, 10.0),
        outage_len=st.floats(0.1, 10.0),
        send=st.floats(0.0, 25.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_outage_never_delivers_inside_window(self, outage_start, outage_len, send):
        link = LastMileLink(
            rng=np.random.default_rng(0),
            base_delay_s=0.01,
            jitter_sigma=0.0,
            outages=OutageSchedule([(outage_start, outage_start + outage_len)]),
        )
        delivered = link.send(send)
        # Departure is pushed out of the window; transit then adds delay.
        if outage_start <= send < outage_start + outage_len:
            assert delivered >= outage_start + outage_len


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_time_order(self, delays):
        simulator = Simulator()
        fired: list[float] = []
        for delay in delays:
            simulator.schedule(delay, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=50),
        horizon=st.floats(0.0, 120.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_run_until_is_a_clean_partition(self, delays, horizon):
        """Running to a horizon then draining equals one full run."""
        full = Simulator()
        fired_full: list[float] = []
        split = Simulator()
        fired_split: list[float] = []
        for delay in delays:
            full.schedule(delay, lambda: fired_full.append(full.now))
            split.schedule(delay, lambda: fired_split.append(split.now))
        full.run()
        split.run(until=horizon)
        assert all(t <= horizon for t in fired_split)
        split.run()
        assert fired_split == fired_full


# A coarse time grid, so exact ties between events and series steps are common.
_TICKS = st.integers(0, 12).map(lambda k: k * 0.5)
_FOLLOW = st.sampled_from([None, 0.0, 0.25, 1.0])
_EVENT = st.tuples(_TICKS, _FOLLOW, st.one_of(st.none(), st.integers(0, 7)))
_SERIES = st.tuples(st.lists(_TICKS, min_size=1, max_size=12).map(sorted), _FOLLOW)
_PLAN = st.lists(
    st.one_of(_EVENT.map(lambda spec: ("event", spec)), _SERIES.map(lambda spec: ("series", spec))),
    max_size=10,
)
_RUNS = st.lists(
    st.tuples(st.one_of(st.none(), _TICKS), st.one_of(st.none(), st.integers(0, 6))),
    max_size=3,
)


def _drive(plan, runs, per_step: bool):
    """Run one scenario; series go through schedule_series or, as the
    reference, through one schedule_at per step."""
    registry = MetricsRegistry()
    sim = Simulator(metrics=registry)
    log: list[tuple] = []
    handles = []

    def fire(label, index, follow, cancel):
        log.append((sim.now, label, index, sim.events_processed, sim.pending))
        if follow is not None:
            # follow=0.25 lands before the next step on the 0.5 grid.
            sim.schedule(
                follow,
                lambda: log.append((sim.now, "follow", label, index)),
                label=f"follow:{label}",
            )
        if cancel is not None and cancel < len(handles):
            handles[cancel].cancel()

    for position, (kind, spec) in enumerate(plan):
        label = f"{kind}{position}"
        if kind == "event":
            time, follow, cancel = spec
            handles.append(
                sim.schedule_at(
                    time, lambda l=label, f=follow, c=cancel: fire(l, 0, f, c), label=label
                )
            )
            continue
        times, follow = spec

        def step(index, l=label, f=follow):
            fire(l, index, f, None)

        if per_step:
            for index, time in enumerate(times):
                sim.schedule_at(time, lambda i=index, s=step: s(i), label=label)
        else:
            sim.schedule_series(times, step, label=label)
    for until, max_events in runs:
        sim.run(until=until, max_events=max_events)
        log.append(("stop", sim.now, sim.events_processed, sim.pending))
    sim.run()
    log.append(("end", sim.now, sim.events_processed, sim.pending))
    snapshot = registry.snapshot()
    pushes = snapshot["counters"].pop("engine.heap_pushes")["value"]
    return log, snapshot, pushes


class TestEventSeriesProperties:
    @given(plan=_PLAN, runs=_RUNS)
    @settings(max_examples=200, deadline=None)
    def test_series_equals_per_step_schedule_at(self, plan, runs):
        """Same firings (time, label, index), same events_processed and
        pending at every step, same span counts and gaps, whatever the
        ties, cancellations, follow-up events, horizons and event caps."""
        log, snapshot, pushes = _drive(plan, runs, per_step=False)
        reference_log, reference_snapshot, reference_pushes = _drive(plan, runs, per_step=True)
        assert log == reference_log
        assert snapshot == reference_snapshot
        assert pushes <= reference_pushes


_GRID = st.integers(0, 400).map(lambda k: k * 0.1)
_WINDOWS = st.lists(st.tuples(_GRID, st.sampled_from([0.0, 0.3, 2.0, 7.5])), max_size=8)


class TestLinkBatchProperties:
    @given(
        windows=_WINDOWS,
        warmup=st.lists(_GRID, max_size=5),
        sends=st.lists(_GRID, max_size=60),
        sigma=st.sampled_from([0.0, 0.3, 1.5]),
        size_kb=st.sampled_from([0.0, 2.5]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=120, deadline=None)
    def test_send_many_equals_looped_send(self, windows, warmup, sends, sigma, size_kb, seed):
        """Same deliveries, FIFO state and rng end state; overlapping
        outages and heavy jitter exercise the release and FIFO clamps."""

        def link() -> LastMileLink:
            return LastMileLink(
                rng=np.random.default_rng(seed),
                base_delay_s=0.05,
                jitter_sigma=sigma,
                outages=OutageSchedule([(start, start + length) for start, length in windows]),
                serialization_s_per_kb=0.01,
            )

        batch, loop = link(), link()
        for time in sorted(warmup):  # FIFO state carried into the batch
            batch.send(time)
            loop.send(time)
        offset = max(warmup, default=0.0)
        times = np.array(sorted(offset + time for time in sends), dtype=float)
        got = batch.send_many(times, size_kb=size_kb)
        want = np.array([loop.send(time, size_kb=size_kb) for time in times], dtype=float)
        assert got.tobytes() == want.tobytes()
        assert (batch._last_send, batch._last_delivery) == (loop._last_send, loop._last_delivery)
        assert batch.rng.bit_generator.state == loop.rng.bit_generator.state

    @given(windows=_WINDOWS, probes=st.lists(st.floats(-5.0, 60.0, allow_nan=False), max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_release_times_equals_looped_release_time(self, windows, probes):
        schedule = OutageSchedule([(start, start + length) for start, length in windows])
        # Window edges exactly: start is down, end is up.
        probes = probes + [edge for window in schedule.windows for edge in window]
        got = schedule.release_times(np.array(probes, dtype=float))
        want = np.array([schedule.release_time(probe) for probe in probes], dtype=float)
        assert got.tobytes() == want.tobytes()


class TestEdgeConsistencyProperty:
    @given(
        poll_interval=st.floats(0.1, 5.0),
        first_poll=st.floats(0.0, 5.0),
        frames_per_chunk=st.integers(5, 50),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_ready_chunk_eventually_available(
        self, poll_interval, first_poll, frames_per_chunk, seed
    ):
        """Whatever the polling cadence, the edge converges: every chunk
        the origin produced becomes available, in order, never earlier
        than its ready time."""
        from repro.cdn.fastly import FastlyEdge
        from repro.cdn.transfer import TransferModel
        from repro.cdn.wowza import WowzaIngest
        from repro.client.broadcaster import BroadcasterClient
        from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS

        simulator = Simulator()
        wowza = WowzaIngest(
            WOWZA_DATACENTERS[0], simulator, frames_per_chunk=frames_per_chunk
        )
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(seed))
        edge.attach_broadcast(1, wowza)
        broadcaster = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink(rng=np.random.default_rng(seed + 1), base_delay_s=0.02,
                                jitter_sigma=0.2),
        )
        broadcaster.start(start_time=0.0, duration_s=6.0)

        def poll_loop():
            edge.poll(1, lambda cl, t: None)
            if simulator.now < 30.0:
                simulator.schedule(poll_interval, poll_loop)

        simulator.schedule(first_poll, poll_loop)
        simulator.run(until=60.0)

        ready = wowza.record_for(1).chunk_ready
        availability = edge.availability_map(1)
        # Soundness always holds: nothing invented, nothing early, in order.
        assert set(availability) <= set(ready)
        ordered = [availability[i] for i in sorted(availability)]
        assert ordered == sorted(ordered)
        for index, available_at in availability.items():
            assert available_at >= ready[index]
        # Completeness holds when polling keeps up with the live window:
        # chunks older than the 6-entry chunklist window legitimately slide
        # out before a slow poller ever sees them.
        chunk_duration = frames_per_chunk * 0.04
        window_span = 6 * chunk_duration
        if poll_interval <= 0.8 * window_span:
            # Chunks produced once polling is underway are all captured;
            # chunks that slid out of the window before the first poll are
            # legitimately lost to a late joiner.
            expected = {i for i, t in ready.items() if t >= first_poll}
            assert expected <= set(availability)
        # The live edge is always reachable: the newest chunk made it.
        assert max(ready) in availability


class TestDatasetProperties:
    @staticmethod
    def _records(spec):
        from repro.crawler.dataset import BroadcastRecord

        records = []
        for index, (broadcaster, viewers, web) in enumerate(spec):
            records.append(
                BroadcastRecord(
                    broadcast_id=index + 1,
                    broadcaster_id=broadcaster,
                    app_name="Periscope",
                    start_time=float(index) * 100.0,
                    duration_s=60.0,
                    viewer_ids=np.array(viewers, dtype=np.int64),
                    web_views=web,
                    heart_count=0,
                    comment_count=0,
                    commenter_count=0,
                )
            )
        return records

    @given(
        spec=st.lists(
            st.tuples(
                st.integers(1, 20),
                st.lists(st.integers(100, 130), max_size=10),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_table1_row_internally_consistent(self, spec):
        from repro.crawler.dataset import BroadcastDataset

        dataset = BroadcastDataset("Periscope", days=40, records=self._records(spec))
        row = dataset.table1_row()
        assert row["broadcasts"] == len(spec)
        assert row["broadcasters"] <= row["broadcasts"]
        assert row["unique_viewers"] <= sum(len(v) for _, v, _ in spec)
        assert row["total_views"] == sum(len(v) + w for _, v, w in spec)
        # Daily counts partition the broadcasts.
        assert dataset.daily_broadcast_counts().sum() == len(spec)

    @given(
        spec=st.lists(
            st.tuples(
                st.integers(1, 20),
                st.lists(st.integers(100, 130), max_size=10),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_is_idempotent_on_duplicates(self, spec):
        from repro.crawler.dataset import BroadcastDataset, merge_datasets

        a = BroadcastDataset("Periscope", days=40, records=self._records(spec))
        b = BroadcastDataset("Periscope", days=40, records=self._records(spec))
        merged = merge_datasets([a, b])
        assert merged.table1_row() == a.table1_row()


class TestCdfProperties:
    @given(
        values=st.lists(st.floats(-1e5, 1e5, allow_nan=False), min_size=2, max_size=150),
        q=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantile_at_roundtrip(self, values, q):
        """F(F^-1(q)) >= q within one sample mass (quantile interpolates
        linearly between order statistics, so the exact Galois connection
        holds only up to 1/n)."""
        from repro.analysis.cdf import Cdf

        cdf = Cdf(np.array(values))
        x = cdf.quantile(q)
        assert cdf.at(x) >= q - 1.0 / len(cdf) - 1e-9

    @given(values=st.lists(st.floats(-1e5, 1e5, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_fraction_above_complements_at(self, values):
        from repro.analysis.cdf import Cdf

        cdf = Cdf(np.array(values))
        for probe in (cdf.median, cdf.values[0], cdf.values[-1], 0.0):
            assert cdf.at(probe) + cdf.fraction_above(probe) == pytest.approx(1.0)

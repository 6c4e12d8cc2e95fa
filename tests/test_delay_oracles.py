"""The library's delay simulations against the slow oracles, bit for bit.

Each test runs one scenario twice in the same process: once on the
library and once on :mod:`delay_oracles` (the engine-run delay campaign,
or the event-per-frame clients patched in).  Traces compare as raw bytes
and results by ``repr`` (exact floats, NaN-safe), so any drift in
arithmetic, rng consumption or tie order fails.
"""

from __future__ import annotations

import functools
from typing import Callable, TypeVar

import numpy as np
import pytest

import delay_oracles as oracle
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.network import LastMileLink
from repro.core.chunk_stats import PERISCOPE_CHUNK_MIX
from repro.core.delay_breakdown import ControlledExperiment
from repro.core.full_broadcast import FullBroadcastSimulation
from repro.core.pipeline import CampaignBroadcast, DelayMeasurementCampaign, poll_ticks
from repro.crawler.delay_crawler import DelayCrawler
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.overlay.comparison import compare_architectures
from repro.protocols.frames import VideoFrame
from repro.simulation.engine import Simulator

T = TypeVar("T")


def _both(monkeypatch: pytest.MonkeyPatch, run: Callable[[], T]) -> tuple[T, T]:
    library = run()
    with monkeypatch.context() as patch:
        oracle.install(patch)
        reference = run()
    return library, reference


#: Mobile uplinks whose outages push frames past the run's end and stall
#: the uplink long enough for chunks to fall out of the chunklist window.
STRESS_CAMPAIGNS = (
    dict(n_broadcasts=30, seed=5, outage_rate_per_s=1 / 20, outage_mean_s=15),
    dict(
        n_broadcasts=30,
        seed=11,
        outage_rate_per_s=1 / 10,
        outage_mean_s=30,
        chunk_duration_mix=PERISCOPE_CHUNK_MIX,
    ),
)


class _ConstantTransfer(TransferModel):
    """Every origin pull takes the same time."""

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self.delay_s = delay_s

    def pair_sampler(self, wowza, fastly):
        return lambda rng: self.delay_s


class TestCampaign:
    """The per-chunk recurrence against the campaign run on the engine."""

    @pytest.mark.parametrize(
        "config",
        [
            dict(n_broadcasts=60, seed=2016),  # the fig12 campaign itself
            dict(n_broadcasts=20, seed=7),
            # Varied frames_per_chunk (1.0–6.0 s chunks) on mobile uplinks.
            dict(n_broadcasts=12, seed=3, chunk_duration_mix=PERISCOPE_CHUNK_MIX),
            *STRESS_CAMPAIGNS,
            # Origin pulls of about 80 s: the last pull lands after ``until``.
            dict(n_broadcasts=4, seed=1, transfer_model=TransferModel(handoff_s=80.0)),
        ],
        ids=["fig12-60-2016", "20-7", "12-3-mix", "stress-5", "stress-11-mix", "slow-pulls"],
    )
    def test_traces_bit_identical_to_engine(self, config):
        library = DelayMeasurementCampaign(**config).run()
        reference = oracle.EngineDelayCampaign(**config).run()
        assert oracle.trace_bytes(library) == oracle.trace_bytes(reference)
        if "chunk_duration_mix" in config:
            assert len({trace.chunk_duration_s for trace in library}) > 1

    def test_stress_campaigns_reach_the_edge_paths(self):
        traces = [
            trace
            for config in STRESS_CAMPAIGNS
            for trace in DelayMeasurementCampaign(**config).run()
        ]
        # Frames that arrive after the run's end are never delivered.
        assert any(
            len(trace.frame_arrivals) < int(trace.duration_s / trace.frame_interval_s)
            for trace in traces
        )
        # Chunks that fell out of the 6-entry window never become available.
        assert any(len(trace.chunk_availability) < len(trace.chunk_ready) for trace in traces)

    def test_poll_ticks_accumulate_like_the_crawler(self):
        expected, time = [], 0.0
        while time <= 97.3:
            expected.append(time)
            time += 0.1
        assert poll_ticks(97.3).tolist() == expected

    def test_equal_time_orders_match_engine(self):
        """Chunks ready exactly on a poll tick or exactly as a pull lands.

        A poll sees a chunk ready at its own tick, and a pull landing at a
        chunk's ready time lists that chunk.  Frame times are hand-picked
        on the crawler's tick grid and every pull takes a constant 0.25 s,
        so both ties happen exactly; a burst during one pull also pushes
        chunks out of the 6-entry window.
        """
        pull_s = 0.25
        ticks = poll_ticks(10.0)
        ready = [
            ticks[3],  # on a tick: the poll at ticks[3] starts the pull
            ticks[3] + pull_s,  # ready as that pull lands: listed by it
            ticks[12],
            *(ticks[12] + 0.01 * step for step in range(1, 8)),
            ticks[12] + pull_s,  # the burst's last chunk, ready at the landing
            5.037,  # off the grid: picked up by the next tick
        ]
        stop_after, until = 10.0, 12.0
        wowza_dc, fastly_dc = WOWZA_DATACENTERS[0], FASTLY_DATACENTERS[0]
        transfer = _ConstantTransfer(pull_s)

        simulator = Simulator()
        wowza = WowzaIngest(wowza_dc, simulator, frames_per_chunk=1)
        edge = FastlyEdge(fastly_dc, simulator, transfer, np.random.default_rng(0))
        edge.attach_broadcast(1, wowza)
        wowza.start_broadcast(1, "bcast-1")
        for sequence, time in enumerate(ready):
            simulator.schedule_at(
                time, functools.partial(wowza.receive_frame, 1, VideoFrame(sequence, time))
            )
        DelayCrawler(broadcast_id=1, simulator=simulator, stop_after=stop_after).attach_hls(
            edge
        )
        simulator.run(until=until)

        broadcast = CampaignBroadcast(
            broadcast_id=1,
            wowza_dc=wowza_dc,
            fastly_dc=fastly_dc,
            chunk_duration_s=0.04,
            frames_per_chunk=1,
            uplink=LastMileLink(np.random.default_rng(0)),
            edge_rng=np.random.default_rng(0),
        )
        recurrence = DelayMeasurementCampaign(transfer_model=transfer)._availability(
            broadcast, np.array(ready), stop_after, until
        )
        first, burst = ticks[3] + pull_s, ticks[12] + pull_s
        expected = [first, first, *[burst] * 6, ticks[51] + pull_s]
        assert edge.availability_times(1) == expected
        assert recurrence.tolist() == expected

    @pytest.mark.parametrize(
        "n_broadcasts, seed, mix",
        [(60, 2016, None), (20, 7, None), (12, 3, PERISCOPE_CHUNK_MIX)],
    )
    def test_traces_and_event_count_bit_identical(
        self, monkeypatch, n_broadcasts, seed, mix
    ):
        """The oracle campaign's frame series against per-frame events."""
        processed = []
        run_simulator = Simulator.run

        def counting_run(simulator, *args, **kwargs):
            run_simulator(simulator, *args, **kwargs)
            processed.append(simulator.events_processed)

        monkeypatch.setattr(Simulator, "run", counting_run)
        campaign = oracle.EngineDelayCampaign(
            n_broadcasts=n_broadcasts, seed=seed, chunk_duration_mix=mix
        )
        library, reference = _both(
            monkeypatch, lambda: oracle.trace_bytes(campaign.run())
        )
        assert library == reference
        assert len(processed) == 2 * n_broadcasts
        assert processed[:n_broadcasts] == processed[n_broadcasts:]


class TestControlledExperiment:
    def test_breakdown_bit_identical(self, monkeypatch):
        experiment = ControlledExperiment(seed=7, duration_s=60.0)
        library, reference = _both(monkeypatch, lambda: experiment.run(repetitions=3))
        assert repr(library) == repr(reference)

    def test_timeline_bit_identical(self, monkeypatch):
        experiment = ControlledExperiment(seed=11, duration_s=60.0)
        library, reference = _both(monkeypatch, lambda: experiment.run_timeline(1))
        assert repr(library) == repr(reference)

    def test_raw_arrivals_bit_identical(self, monkeypatch):
        """Every frame and chunk timestamp, in recording order."""

        def raw():
            record, edge, rtmp, hls, broadcast_id = ControlledExperiment(
                seed=3, duration_s=45.0
            )._simulate(0)
            return (
                list(record.frame_arrivals.items()),
                list(record.chunk_ready.items()),
                list(rtmp.frame_arrivals.items()),
                list(rtmp.frame_captures.items()),
                list(hls.chunk_arrivals.items()),
                edge.availability_times(broadcast_id),
            )

        library, reference = _both(monkeypatch, raw)
        assert library == reference
        assert len(library[2]) == len(library[0]) > 1000


class TestArchitectures:
    def test_compare_architectures_bit_identical(self, monkeypatch):
        """The overlay case draws its shared rng in event order and
        forwards from ``now``: only exact per-frame timing keeps it."""
        library, reference = _both(
            monkeypatch, lambda: compare_architectures(n_viewers=40, duration_s=12.0, seed=8)
        )
        assert repr(library) == repr(reference)


class TestFullBroadcast:
    def test_mid_run_rtmp_joins_bit_identical(self, monkeypatch):
        """RTMP viewers attach at their join time, between frame events."""

        def run():
            return FullBroadcastSimulation(
                n_viewers=140, duration_s=20.0, moment_time_s=12.0, seed=5
            ).run()

        library, reference = _both(monkeypatch, run)
        assert repr(library) == repr(reference)
        assert library.rtmp.viewers > 0
        assert np.isfinite(library.rtmp.mean_video_lag_s)

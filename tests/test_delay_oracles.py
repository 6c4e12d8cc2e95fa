"""The series frame path against the event-per-frame oracle, bit for bit.

Each test runs one scenario twice in the same process: once on the
library and once with :mod:`delay_oracles` patched in.  Traces compare
as raw bytes and results by ``repr`` (exact floats, NaN-safe), so any
drift in arithmetic, rng consumption or tie order fails.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np
import pytest

import delay_oracles as oracle
from repro.core.chunk_stats import PERISCOPE_CHUNK_MIX
from repro.core.delay_breakdown import ControlledExperiment
from repro.core.full_broadcast import FullBroadcastSimulation
from repro.core.pipeline import DelayMeasurementCampaign
from repro.overlay.comparison import compare_architectures
from repro.simulation.engine import Simulator

T = TypeVar("T")


def _both(monkeypatch: pytest.MonkeyPatch, run: Callable[[], T]) -> tuple[T, T]:
    library = run()
    with monkeypatch.context() as patch:
        oracle.install(patch)
        reference = run()
    return library, reference


def _trace_bytes(traces) -> list[tuple]:
    return [
        (
            trace.broadcast_id,
            trace.duration_s,
            trace.chunk_duration_s,
            trace.frame_interval_s,
            trace.frame_arrivals.tobytes(),
            trace.chunk_ready.tobytes(),
            trace.chunk_availability.tobytes(),
        )
        for trace in traces
    ]


class TestCampaign:
    @pytest.mark.parametrize(
        "n_broadcasts, seed, mix",
        [
            (60, 2016, None),  # the fig12 campaign itself
            (20, 7, None),
            # Varied frames_per_chunk (1.0–6.0 s chunks) on mobile uplinks.
            (12, 3, PERISCOPE_CHUNK_MIX),
        ],
    )
    def test_traces_and_event_count_bit_identical(
        self, monkeypatch, n_broadcasts, seed, mix
    ):
        processed = []
        run_simulator = Simulator.run

        def counting_run(simulator, *args, **kwargs):
            run_simulator(simulator, *args, **kwargs)
            processed.append(simulator.events_processed)

        monkeypatch.setattr(Simulator, "run", counting_run)
        campaign = DelayMeasurementCampaign(
            n_broadcasts=n_broadcasts, seed=seed, chunk_duration_mix=mix
        )
        library, reference = _both(monkeypatch, lambda: _trace_bytes(campaign.run()))
        assert library == reference
        assert processed[:n_broadcasts] == processed[n_broadcasts:]
        if mix is not None:
            chunk_sizes = {trace[2] for trace in library}
            assert len(chunk_sizes) > 1


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

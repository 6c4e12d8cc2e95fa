"""The repo benchmark's layer wrappers still fit the program.

``perfbench.boundaries.install`` wraps program functions by attribute
name, so renaming or deleting one of them breaks the benchmark.  This
suite is the only place the tier-1 gate notices.
"""

from __future__ import annotations

import repro.analysis.social_stats as social_stats
import repro.experiments.context as experiment_context
import repro.parallel.generate as parallel_generate
from perfbench.boundaries import install
from perfbench.spans import SpanRecorder
from repro.core.pipeline import DelayMeasurementCampaign
from repro.crawler.storage import DatasetCache
from repro.service.admission import AdmissionController
from repro.service.frontend import ServiceFrontend
from repro.service.store import BroadcastStore, RegionCache
from repro.simulation.engine import Simulator
from repro.social.graph import CompiledGraph

#: Every module and class whose attributes ``install`` may replace.
OWNERS = (
    social_stats,
    experiment_context,
    parallel_generate,
    DelayMeasurementCampaign,
    DatasetCache,
    AdmissionController,
    ServiceFrontend,
    BroadcastStore,
    RegionCache,
    Simulator,
    CompiledGraph,
)


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_the_graph_boundaries_and_restore_undoes_everything():
    before = _attributes()
    patches = install(SpanRecorder())
    try:
        assert vars(CompiledGraph)["undirected_neighbors"] is not before[-1]["undirected_neighbors"]
        assert social_stats.compute_graph_metrics is not before[0]["compute_graph_metrics"]
        changed = {
            (owner.__name__, name)
            for owner, old in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if old.get(name) is not value
        }
        assert ("Simulator", "run") in changed
        assert ("repro.parallel.generate", "stream_merge_shards") in changed
    finally:
        patches.restore()
    after = _attributes()
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        for name, value in old.items():
            assert new[name] is value, (owner, name)

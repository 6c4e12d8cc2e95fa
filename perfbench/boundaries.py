"""The layer boundaries the traced run times or counts, from outside.

Each entry wraps one public function of a ``src/repro`` layer at the name
its caller looks it up by (a module attribute or a class method).  The
benchmark's own calls into the trace pipeline, the analyses and the
experiment runners are spanned where the benchmark makes them, in
:mod:`perfbench.workloads`.
"""

from __future__ import annotations

import inspect

from perfbench.spans import Patches, SpanRecorder

__all__ = ["install"]


def _simulation_run(recorder: SpanRecorder):
    """``Simulator.run`` as a span, plus the events it processed."""

    def make(run):
        timed = recorder.timed("simulation.run", run)

        def wrapper(simulator, *args, **kwargs):
            before = simulator.events_processed
            try:
                return timed(simulator, *args, **kwargs)
            finally:
                recorder.counters["simulation.events"] += simulator.events_processed - before

        return wrapper

    return make


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every boundary; the caller must ``restore()`` the result."""
    import repro.analysis.social_stats as social_stats
    import repro.experiments.context as experiment_context
    import repro.parallel.generate as parallel_generate
    from repro.core.pipeline import DelayMeasurementCampaign
    from repro.crawler.storage import DatasetCache
    from repro.service.admission import AdmissionController
    from repro.service.frontend import ServiceFrontend
    from repro.service.store import BroadcastStore, RegionCache
    from repro.simulation.engine import Simulator
    from repro.social.graph import CompiledGraph

    patches = Patches()

    def span(owner, attr, name):
        patches.wrap(owner, attr, lambda fn: recorder.timed(name, fn))

    # trace pipeline, as generate_trace looks its steps up
    span(parallel_generate, "load_or_build_graph", "workload.graph")
    span(parallel_generate, "build_trace_context", "workload.context")
    span(parallel_generate, "generate_dataset", "parallel.generate")
    span(parallel_generate, "stream_merge_shards", "parallel.merge")
    span(DatasetCache, "put", "crawler.cache_put")
    span(DatasetCache, "get", "crawler.cache_get")
    # the experiments' shared inputs
    span(experiment_context, "generate_trace", "workload.trace")
    span(DelayMeasurementCampaign, "run", "core.campaign")
    span(social_stats, "compute_graph_metrics", "social.graph_metrics")
    patches.wrap(
        CompiledGraph,
        "undirected_neighbors",
        lambda fn: recorder.counted("social.neighbors", fn),
    )
    # engine and service tiers
    patches.wrap(Simulator, "run", _simulation_run(recorder))
    span(ServiceFrontend, "submit", "service.submit")
    patches.wrap(
        AdmissionController,
        "admit",
        lambda fn: recorder.counted(
            "service.admit_verdicts", recorder.timed("service.admit", fn), hit=lambda v: v is None
        ),
    )
    for attr, member in sorted(vars(BroadcastStore).items()):
        if not attr.startswith("_") and inspect.isfunction(member):
            span(BroadcastStore, attr, "service.store")
    patches.wrap(
        RegionCache,
        "get",
        lambda fn: recorder.counted("service.list_cache", fn, hit=lambda page: page is not None),
    )
    return patches

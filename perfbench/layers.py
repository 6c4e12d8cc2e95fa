"""Per-layer metrics of the traced run, and what each should move.

Every entry names a ``src/repro`` layer metric, its unit and direction,
how the traced run computes it, and the end-to-end metrics, each on a
workload, that a gain in that layer should show up in.  A span metric
``<span>_s`` is the span's total time, ``<span>.unaccounted_s`` the part
of it its child spans do not cover (its self time).  A span without
children has self time equal to its total.  Every traced run reports every
metric; a layer the workload does not reach reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.harness import PassResult
from perfbench.spans import SpanStats

__all__ = ["EXPERIMENT_IDS", "LAYERS", "Layer", "layer_metrics"]

#: The experiments behind the scorecard claims, in first-use order.
EXPERIMENT_IDS = (
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "table2",
    "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "fig18",
)

#: Experiments whose runs contain spans of other layers.
_EXPERIMENT_PARENTS = ("fig1", "table2", "fig11", "fig12")

TRACE_RUN = (("run_s", "trace"),)
TRACE_COLD = (("throughput_per_s", "trace"), ("run_s", "trace"))
SCORECARD = (("run_s", "scorecard"), ("throughput_per_s", "scorecard"))
SERVE = (("throughput_per_s", "serve"), ("run_s", "serve"))
EVERY_RUN = (("run_s", "trace"), ("run_s", "scorecard"), ("run_s", "serve"))


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: ``source`` is ``(kind, key)``, see :func:`_value`."""

    name: str
    unit: str
    better: str
    moves: tuple[tuple[str, str], ...]
    source: tuple[str, str]


def _span(name: str, moves, children: bool = False) -> list[Layer]:
    layers = [Layer(f"{name}_s", "s", "lower", moves, ("total", name))]
    if children:
        layers.append(Layer(f"{name}.unaccounted_s", "s", "lower", moves, ("self", name)))
    return layers


LAYERS: tuple[Layer, ...] = (
    # trace: cold generation
    *_span("trace.cold", TRACE_COLD, children=True),
    *_span("workload.graph", TRACE_COLD),
    *_span("workload.context", TRACE_COLD),
    *_span("parallel.generate", TRACE_COLD, children=True),
    *_span("parallel.merge", TRACE_COLD),
    Layer("parallel.shards", "count", "higher", TRACE_COLD, ("value", "parallel.shards")),
    Layer("parallel.workers_used", "count", "higher", TRACE_COLD, ("value", "parallel.workers_used")),
    *_span("crawler.cache_put", TRACE_COLD),
    Layer("crawler.cache_bytes", "B", "lower", TRACE_COLD, ("value", "crawler.cache_bytes")),
    Layer("crawler.bytes_per_broadcast", "B", "lower", TRACE_COLD,
          ("value", "crawler.bytes_per_broadcast")),
    # trace: reopen and analyses
    *_span("trace.analyze", TRACE_RUN, children=True),
    *_span("trace.reopen", TRACE_RUN, children=True),
    *_span("crawler.cache_get", TRACE_RUN),
    *_span("analysis.table1", TRACE_RUN),
    *_span("analysis.cdfs", TRACE_RUN),
    *_span("analysis.views_per_user", TRACE_RUN),
    *_span("analysis.activity_skew", TRACE_RUN),
    *_span("analysis.correlation", TRACE_RUN),
    *_span("analysis.daily_counts", TRACE_RUN),
    # scorecard
    *_span("validation.scorecard", SCORECARD, children=True),
    *(
        layer
        for exp in EXPERIMENT_IDS
        for layer in _span(f"experiments.{exp}", SCORECARD, children=exp in _EXPERIMENT_PARENTS)
    ),
    *_span("validation.evaluate", SCORECARD),
    Layer("validation.claims_passed", "count", "higher", (("checks_passed", "scorecard"),),
          ("value", "validation.claims_passed")),
    *_span("workload.trace", SCORECARD, children=True),
    *_span("social.graph_metrics", SCORECARD),
    Layer("social.neighbor_calls", "count", "lower", SCORECARD, ("counter", "social.neighbors.calls")),
    *_span("core.campaign", SCORECARD, children=True),
    # engine: both the delay campaign and the serving stack run on it
    *_span("simulation.run", SCORECARD + SERVE, children=True),
    Layer("simulation.events", "count", "lower", SCORECARD + SERVE, ("counter", "simulation.events")),
    Layer("simulation.events_per_s", "1/s", "higher", SCORECARD + SERVE,
          ("rate", "simulation.events|simulation.run")),
    # serve
    *_span("service.serve_bench", SERVE, children=True),
    Layer("service.submit_calls", "count", "higher", SERVE, ("calls", "service.submit")),
    *_span("service.submit", SERVE, children=True),
    Layer("service.admit_calls", "count", "higher", SERVE, ("calls", "service.admit")),
    *_span("service.admit", SERVE),
    Layer("service.admitted_ratio", "ratio", "higher", SERVE,
          ("ratio", "service.admit_verdicts.hits|service.admit_verdicts.calls")),
    Layer("service.store_calls", "count", "lower", SERVE, ("calls", "service.store")),
    *_span("service.store", SERVE),
    Layer("service.list_cache_hit_ratio", "ratio", "higher", SERVE,
          ("ratio", "service.list_cache.hits|service.list_cache.calls")),
    Layer("service.retries", "count", "lower", SERVE, ("value", "service.retries")),
    Layer("service.give_ups", "count", "lower", SERVE, ("value", "service.give_ups")),
    # the benchmark's own cost: traced pass minus the untraced pass before it
    Layer("tracing.overhead_s", "s", "lower", EVERY_RUN, ("overhead", "s")),
    Layer("tracing.overhead_ratio", "ratio", "lower", EVERY_RUN, ("overhead", "ratio")),
)


def _value(layer: Layer, stats: SpanStats, values: dict, plain: PassResult, traced: PassResult) -> float:
    kind, key = layer.source
    if kind == "total":
        return stats.total(key)
    if kind == "self":
        return stats.self_time(key)
    if kind == "calls":
        return stats.calls(key)
    if kind == "counter":
        return stats.counter(key)
    if kind == "value":
        return values.get(key, 0)
    if kind == "ratio":
        top, bottom = (stats.counter(k) for k in key.split("|"))
        return top / bottom if bottom else 0.0
    if kind == "rate":
        counter, span = key.split("|")
        seconds = stats.total(span)
        return stats.counter(counter) / seconds if seconds else 0.0
    if kind == "overhead":
        extra = traced.run_s - plain.run_s
        return extra if key == "s" else extra / plain.run_s
    raise ValueError(f"unknown source kind {kind!r} for {layer.name}")


def layer_metrics(
    stats: SpanStats, values: dict, plain: PassResult, traced: PassResult
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    return {
        layer.name: (float(_value(layer, stats, values, plain, traced)), layer.unit)
        for layer in LAYERS
    }

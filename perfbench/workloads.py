"""The benchmark's three workloads.

Each workload is built from a seed (its set-up: imports, configs, a
scratch directory) and then runs passes.  A pass does the workload's steps
one after another, times them, and checks their outputs after the timed
region.  With a :class:`~perfbench.spans.SpanRecorder` the pass also
records a root span around each step it times.

``toy=True`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from perfbench.harness import Check, PassResult, column_digest, now
from perfbench.spans import SpanRecorder

__all__ = ["WORKLOADS", "ScorecardWorkload", "ServeWorkload", "TraceWorkload"]


def _span(recorder: Optional[SpanRecorder], name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


class TraceWorkload:
    """``generate_trace`` into an empty cache, a cache hit, then the
    Table 1 / Figure 3-7 analyses on the reopened dataset."""

    name = "trace"
    pass_seconds = 30.0  # nominal, on a 2-core x86 VM

    def __init__(self, seed: int, scratch: Path, toy: bool = False) -> None:
        from repro.analysis import broadcast_stats, social_stats
        from repro.parallel import generate_trace
        from repro.workload.trace import TraceConfig

        self._generate_trace = generate_trace
        self._stats = broadcast_stats
        self._social = social_stats
        scale, workers = (0.0005, 1) if toy else (0.005, 2)
        self.config = TraceConfig.periscope(scale=scale, seed=seed, workers=workers)
        self.scratch = scratch

    def _analyses(self, dataset, recorder) -> dict:
        stats, social = self._stats, self._social
        out = {}
        with _span(recorder, "analysis.table1"):
            out["table1"] = stats.table1_rows([dataset])
        for name in ("broadcast_length", "viewers_per_broadcast", "comments", "hearts"):
            with _span(recorder, "analysis.cdfs"):
                out[name] = getattr(stats, f"{name}_cdf")(dataset)
        for name in ("views_per_user", "creations_per_user"):
            with _span(recorder, "analysis.views_per_user"):
                out[name] = getattr(stats, f"{name}_cdf")(dataset)
        with _span(recorder, "analysis.activity_skew"):
            out["activity_skew"] = stats.viewer_activity_skew(dataset)
        with _span(recorder, "analysis.correlation"):
            out["correlation"] = social.follower_viewer_correlation(dataset)
        with _span(recorder, "analysis.daily_counts"):
            out["daily_counts"] = dataset.daily_broadcast_counts()
        return out

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        from repro.obs import NULL_REGISTRY, MetricsRegistry

        cache_dir = Path(tempfile.mkdtemp(prefix="trace-cache-", dir=self.scratch))
        registry = MetricsRegistry() if recorder is not None else NULL_REGISTRY
        try:
            started = now()
            with _span(recorder, "trace.cold"):
                cold = self._generate_trace(self.config, cache_dir=cache_dir, registry=registry)
            cold_s = now() - started
            started = now()
            with _span(recorder, "trace.analyze"):
                with _span(recorder, "trace.reopen"):
                    hit = self._generate_trace(self.config, cache_dir=cache_dir)
                results = self._analyses(hit.dataset, recorder)
            analyze_s = now() - started
            cache_bytes = sum(p.stat().st_size for p in cache_dir.iterdir() if p.is_file())
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        n = len(cold.dataset)
        cold_cols, hit_cols = cold.dataset.columns, hit.dataset.columns
        columnar = cold_cols is not None and hit_cols is not None
        fields = [f for f in vars(cold_cols) if f != "app_name"] if columnar else []
        checks = [
            Check("broadcasts generated", n > 0),
            Check("cold and hit datasets are columnar", columnar),
            Check("hit broadcast count", len(hit.dataset) == n),
        ]
        if columnar:
            import numpy as np

            checks += [
                Check(f"column {f}", np.array_equal(getattr(cold_cols, f), getattr(hit_cols, f)))
                for f in fields
            ]
        row = next(iter(results["table1"].values()))
        checks += [
            Check("table1 counts every broadcast", row.get("broadcasts") == n),
            Check("daily counts cover the trace", 0 < int(results["daily_counts"].sum()) <= n),
            Check("activity skew finite", _finite(results["activity_skew"])),
            Check("correlation finite", _finite(results["correlation"])),
        ]
        checks += [
            Check(f"{name} cdf finite", _finite(results[name].median))
            for name in (
                "broadcast_length", "viewers_per_broadcast", "comments", "hearts",
                "views_per_user", "creations_per_user",
            )
        ]
        digest = column_digest(getattr(hit_cols, f) for f in fields)
        notes = {"broadcasts": n, "cache_bytes": cache_bytes}
        if recorder is not None:
            for key in ("trace.shards", "trace.workers"):
                notes[key] = registry.gauge(key).value
        return PassResult(
            seconds={"cold_s": cold_s, "analyze_s": analyze_s},
            items=n / cold_s,
            checks=checks,
            checks_passed=sum(c.passed for c in checks),
            digest=digest,
            notes=notes,
        )

    def layer_values(self, last: PassResult) -> dict[str, float]:
        n = last.notes["broadcasts"]
        return {
            "parallel.shards": last.notes.get("trace.shards", 0),
            "parallel.workers_used": last.notes.get("trace.workers", 0),
            "crawler.cache_bytes": last.notes["cache_bytes"],
            "crawler.bytes_per_broadcast": last.notes["cache_bytes"] / n if n else 0.0,
        }


class ScorecardWorkload:
    """The 14 experiments behind the 20 scorecard claims, from cold
    experiment caches, and every claim's evaluation."""

    name = "scorecard"
    pass_seconds = 17.0

    def __init__(self, seed: int, scratch: Path, toy: bool = False) -> None:
        from repro.experiments.context import clear_caches
        from repro.experiments.registry import get_experiment, list_experiments, run_experiment
        from repro.validation import CLAIMS

        list_experiments()  # imports every runner module
        self.claims = tuple(c for c in CLAIMS if not toy or c.experiment_id == "fig3")
        self.experiment_ids = list(dict.fromkeys(c.experiment_id for c in self.claims))
        self.kwargs = {
            exp: ({"seed": seed} if "seed" in inspect.signature(get_experiment(exp).runner).parameters else {})
            for exp in self.experiment_ids
        }
        self._clear_caches = clear_caches
        self._run_experiment = run_experiment

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        self._clear_caches()
        results = {}
        started = now()
        with _span(recorder, "validation.scorecard"):
            for exp in self.experiment_ids:
                with _span(recorder, f"experiments.{exp}"):
                    results[exp] = self._run_experiment(exp, **self.kwargs[exp])
            with _span(recorder, "validation.evaluate"):
                outcomes = [c.evaluate(results[c.experiment_id]) for c in self.claims]
        scorecard_s = now() - started

        checks = [Check(f"claim {o.claim.claim_id} evaluates", _finite(o.measured)) for o in outcomes]
        passed = sum(o.passed for o in outcomes)
        digest = hashlib.sha256(
            json.dumps([[o.claim.claim_id, float(o.measured).hex(), o.passed] for o in outcomes]).encode()
        ).hexdigest()
        return PassResult(
            seconds={"scorecard_s": scorecard_s},
            items=len(outcomes) / scorecard_s,
            checks=checks,
            checks_passed=passed,
            digest=digest,
            notes={"claims_passed": passed, "claims": len(outcomes)},
        )

    def layer_values(self, last: PassResult) -> dict[str, float]:
        return {"validation.claims_passed": last.notes["claims_passed"]}


class ServeWorkload:
    """``run_serve_bench`` with admission on and a flash crowd."""

    name = "serve"
    pass_seconds = 11.0

    def __init__(self, seed: int, scratch: Path, toy: bool = False) -> None:
        from repro.service.loadgen import FlashCrowdConfig, LoadGenConfig, run_serve_bench

        self.seed = seed
        if toy:
            self.config = LoadGenConfig(
                n_clients=8,
                duration_s=60.0,
                flash_crowd=FlashCrowdConfig(start_s=20.0, duration_s=20.0, extra_clients=40),
            )
        else:
            self.config = LoadGenConfig(
                n_clients=64,
                duration_s=3000.0,
                flash_crowd=FlashCrowdConfig(
                    start_s=1200.0, duration_s=300.0, extra_clients=320, think_time_s=0.25
                ),
            )
        self._run_serve_bench = run_serve_bench

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        started = now()
        with _span(recorder, "service.serve_bench"):
            report = self._run_serve_bench(seed=self.seed, config=self.config, admission=True)
        wall_s = now() - started

        outcomes = report.ok + report.shed + report.unavailable + report.errors + report.stale_joins
        checks = [
            Check("no errors", report.errors == 0),
            Check("none unavailable", report.unavailable == 0),
            Check("every request accounted for", outcomes == report.requests),
        ]
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
        return PassResult(
            seconds={"serve_s": wall_s},
            items=report.requests / wall_s,
            checks=checks,
            checks_passed=sum(c.passed for c in checks),
            digest=digest,
            notes={
                "requests": report.requests,
                "shed": report.shed,
                "retries": report.retries,
                "give_ups": report.give_ups,
            },
        )

    def layer_values(self, last: PassResult) -> dict[str, float]:
        return {"service.retries": last.notes["retries"], "service.give_ups": last.notes["give_ups"]}


WORKLOADS = {w.name: w for w in (TraceWorkload, ScorecardWorkload, ServeWorkload)}

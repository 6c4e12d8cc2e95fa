"""Sharded, multi-process workload-trace generation.

The paper's Periscope dataset is 19.6M broadcasts / 705M views; a
single-process generation loop is only practical around ``scale=0.001``,
which hides scaling bugs and keeps every figure pipeline toy-sized.  This
module fans generation out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* the day range is partitioned into deterministic shards
  (:func:`repro.parallel.sharding.plan_shards`),
* every day draws from its own seed-derived substream, so results are
  schedule-independent — ``workers=1`` and ``workers=N`` produce
  byte-identical datasets for the same config,
* the frozen :class:`~repro.workload.trace.ShardContext` ships to workers
  through a page-aligned mmap'd file (:mod:`repro.crawler.arrayfile`) that
  each worker attaches read-only — no per-process unpickling of the pool
  and CDF buffers,
* every shard — pooled, in-process, or degraded — is written to its own
  array file by one function (:func:`_run_shard`) and published by one
  handler, so only metadata ever crosses the process boundary,
* the pool loop *survives its workers*: shards are submitted individually
  and retried with capped backoff on failure, a per-shard deadline
  (``REPRO_TRACE_SHARD_DEADLINE``) convicts hung workers, a
  ``BrokenProcessPool`` rebuilds the pool and resubmits only unfinished
  shards, and after ``REPRO_TRACE_POOL_REBUILDS`` rebuilds generation
  degrades to the in-process walk rather than give up — all of which is
  output-invariant because re-run shards are byte-identical by
  construction,
* with a ``run_dir``, every finished shard is checkpointed through
  :class:`repro.parallel.checkpoint.RunCheckpoint` (atomic shard files +
  manifest), so an interrupted run resumes without repeating done shards,
* workloads too small to amortize pool startup fall back to the
  in-process walk (``MIN_BROADCASTS_PER_WORKER``) — the fallback only
  changes scheduling, never bytes,
* shard files are merged *out of core*: the streaming merge
  (:mod:`repro.parallel.merge`) copies them straight into the final
  column file — the dataset-cache entry when there is a cache — in
  bounded windows, so peak RSS never holds the whole dataset,
* an optional on-disk cache (:class:`repro.crawler.storage.DatasetCache`,
  keyed by :meth:`TraceConfig.cache_key`) lets figure experiments reuse
  generated traces across processes.  The cache is probed *before* any
  precompute, so a hit costs a read, not a graph build; the follow graph
  itself is cached next to the datasets as a mappable array file.

Recovery paths are provable: the :mod:`repro.parallel.faults` harness
(``REPRO_TRACE_FAULTS``) injects worker kills, hangs, task failures, and
shard-file corruption on demand, and the crash-path tests assert the
faulted output stays byte-identical to a clean run.

Per-phase wall times (graph build, context, generation, merge), shard
timings, retry/rebuild/resume counts, and cache traffic are published
through the :mod:`repro.obs` registry passed in (no-op by default).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.obs import NULL_REGISTRY, peak_rss_mb
from repro.crawler.arrayfile import atomic_output, read_arrays, write_arrays
from repro.crawler.storage import COLUMN_LAYOUT, DatasetCache
from repro.parallel.checkpoint import RunCheckpoint, shard_filename
from repro.parallel.merge import stream_merge_shards
from repro.parallel.faults import (
    PERSIST_FAULT_KINDS,
    PipelineFault,
    fault_plan_from_env,
    inject_persist_fault,
    inject_worker_fault,
)
from repro.parallel.sharding import ShardSpec, plan_shards
from repro.social.graph import CompiledGraph
from repro.workload.trace import (
    BroadcastColumns,
    BroadcastDataset,
    ShardContext,
    TraceConfig,
    WorkloadTrace,
    build_follow_graph,
    build_trace_context,
    generate_day_columns,
)

#: Below this expected per-worker broadcast volume a process pool costs
#: more than it saves, so generation stays in-process.  Overridable via
#: ``REPRO_TRACE_MIN_PER_WORKER`` (tests set ``0`` to force the pool).
MIN_BROADCASTS_PER_WORKER = 20_000
MIN_PER_WORKER_ENV = "REPRO_TRACE_MIN_PER_WORKER"

#: Per-shard retry budget: a shard may fail this many times (worker
#: exception, killed worker, blown deadline) before the run errors out.
#: Kept above the pool-rebuild cap so shards that merely *shared a pool*
#: with a crashing one never exhaust their budget before degradation.
DEFAULT_SHARD_RETRIES = 4
SHARD_RETRIES_ENV = "REPRO_TRACE_SHARD_RETRIES"

#: Per-shard wall-clock deadline in seconds, measured from when the
#: shard's future is first observed running; ``0`` (the default)
#: disables it.  A blown deadline is treated as a pool failure — the
#: hung worker cannot be cancelled, only its pool killed.
DEFAULT_SHARD_DEADLINE = 0.0
SHARD_DEADLINE_ENV = "REPRO_TRACE_SHARD_DEADLINE"

#: How many times the pool is rebuilt after breaking before generation
#: degrades to the in-process walk for the remaining shards.
DEFAULT_POOL_REBUILDS = 3
POOL_REBUILDS_ENV = "REPRO_TRACE_POOL_REBUILDS"

#: Retry backoff: ``min(base * 2**(attempt-1), cap)`` seconds before a
#: shard's re-submission — enough to let a transient (fd pressure, a
#: dying sibling) clear, bounded so chaos tests stay fast.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 1.0

#: Poll interval for the deadline clock; only paid when a deadline is set.
_POLL_SECONDS = 0.05

#: ShardContext array fields shipped to workers as one mapped file (the
#: remaining fields — config and audience_cap — travel as initargs).
_CONTEXT_ARRAY_FIELDS = (
    "broadcaster_ids",
    "viewer_ids",
    "broadcaster_cdf",
    "viewer_cdf",
    "follower_counts",
)

#: Per-worker-process shard context (set by the pool initializer).
_WORKER_CONTEXT: Optional[ShardContext] = None


# -- env knobs ----------------------------------------------------------


def _env_int(name: str, default: int) -> int:
    """An integer env knob; raises ``ValueError`` naming the variable."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r}: expected an integer (default {default})"
        ) from None


def _env_float(name: str, default: float) -> float:
    """A float env knob; raises ``ValueError`` naming the variable."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r}: expected a number (default {default})"
        ) from None


def validate_environment() -> None:
    """Fail fast on malformed generation env knobs.

    Called at the top of :func:`generate_trace` so a typo'd
    ``REPRO_TRACE_*`` variable errors out before the graph build, not
    minutes into it.  Each check raises ``ValueError`` naming the
    variable and the accepted values.
    """
    fault_plan_from_env()
    _env_int(MIN_PER_WORKER_ENV, MIN_BROADCASTS_PER_WORKER)
    _env_int(SHARD_RETRIES_ENV, DEFAULT_SHARD_RETRIES)
    _env_float(SHARD_DEADLINE_ENV, DEFAULT_SHARD_DEADLINE)
    _env_int(POOL_REBUILDS_ENV, DEFAULT_POOL_REBUILDS)


# -- worker-side shard execution ---------------------------------------


def _init_worker(config: TraceConfig, audience_cap: int, context_path: str) -> None:
    """Attach read-only mapped views of the parent's context arrays."""
    global _WORKER_CONTEXT
    arrays, _meta = read_arrays(context_path)
    # Written exactly once per worker process, by the pool initializer,
    # before any shard runs — worker-local configuration, not shared state.
    _WORKER_CONTEXT = ShardContext(  # repro: allow[worker-global-mutation] set once by the pool initializer before any shard task runs
        config=config,
        audience_cap=audience_cap,
        **{name: arrays[name] for name in _CONTEXT_ARRAY_FIELDS},
    )


def _columns_to_arrays(day_columns: list[BroadcastColumns]) -> dict[str, np.ndarray]:
    """Flatten per-day column batches into array-file entries."""
    arrays = {}
    for position, columns in enumerate(day_columns):
        for field, _dtype in COLUMN_LAYOUT:
            arrays[f"{position:03d}/{field}"] = getattr(columns, field)
    return arrays


def _run_shard(
    spec: ShardSpec,
    out_dir: Path,
    attempt: int = 0,
    context: Optional[ShardContext] = None,
) -> tuple[int, str, float]:
    """Generate one shard and write its day columns to an array file.

    Pool workers pass no ``context`` and use the one their initializer
    attached; the in-process and degraded paths pass the parent's.
    Worker-side pipeline faults fire only in pool workers — an injected
    ``os._exit`` must kill a *worker*, never the parent.

    The file is written under a ``.tmp<pid>`` name — the parent promotes
    it with ``os.replace`` (directly, or through the run checkpoint), so
    a worker killed mid-write can never leave a plausible-looking shard
    file behind.  Returns ``(shard_id, temp_path, seconds)``, where
    ``seconds`` covers generation only.
    """
    ctx = context if context is not None else _WORKER_CONTEXT
    if ctx is None:
        raise RuntimeError("worker process has no shard context (initializer not run)")
    if context is None:
        inject_worker_fault(fault_plan_from_env(), spec.shard_id, attempt)
    started = time.perf_counter()
    day_columns = [generate_day_columns(ctx, day) for day in spec.days()]
    seconds = time.perf_counter() - started
    temp = out_dir / f"{shard_filename(spec.shard_id)}.tmp{os.getpid()}"
    write_arrays(temp, _columns_to_arrays(day_columns), meta={"n_days": len(day_columns)})
    return spec.shard_id, str(temp), seconds


def effective_workers(config: TraceConfig, n_shards: int) -> int:
    """Worker processes generation will actually use.

    ``config.workers`` capped by the shard count, then collapsed to 1
    when the expected broadcast volume per worker is below
    ``MIN_BROADCASTS_PER_WORKER`` — pool startup would dominate.  Purely
    a scheduling decision; the generated bytes never depend on it.
    """
    workers = min(config.workers, n_shards)
    if workers <= 1:
        return 1
    floor = _env_int(MIN_PER_WORKER_ENV, MIN_BROADCASTS_PER_WORKER)
    expected = config.growth.total_broadcasts() * config.scale
    if expected < floor * workers:
        return 1
    return workers


# -- resilient pool loop ------------------------------------------------


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now* — hung or crashed workers included."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _persist_fault_pending(
    plan: tuple[PipelineFault, ...], shard_id: int, attempt: int
) -> bool:
    return any(
        fault.kind in PERSIST_FAULT_KINDS and fault.matches(shard_id, attempt)
        for fault in plan
    )


def _run_shards_resilient(
    pending: list[ShardSpec],
    make_pool: Callable[[], ProcessPoolExecutor],
    submit_shard: Callable[[ProcessPoolExecutor, ShardSpec, int], Future],
    handle_result: Callable[[ShardSpec, int, tuple], None],
    run_inline: Callable[[ShardSpec, int], None],
    registry,
) -> None:
    """Drive shard futures to completion through worker failures.

    Individual task failures are retried with capped backoff up to
    ``REPRO_TRACE_SHARD_RETRIES`` extra attempts.  Pool-level failures —
    a ``BrokenProcessPool`` (crashed worker) or a shard blowing the
    ``REPRO_TRACE_SHARD_DEADLINE`` clock — kill the pool, bump the
    attempt count of every in-flight shard (their work died with the
    pool), and rebuild; after ``REPRO_TRACE_POOL_REBUILDS`` rebuilds the
    remaining shards run in-process instead.  None of this can change
    the merged bytes: a re-run shard regenerates the exact same columns.
    """
    max_retries = _env_int(SHARD_RETRIES_ENV, DEFAULT_SHARD_RETRIES)
    deadline = _env_float(SHARD_DEADLINE_ENV, DEFAULT_SHARD_DEADLINE)
    rebuild_cap = _env_int(POOL_REBUILDS_ENV, DEFAULT_POOL_REBUILDS)

    retries_counter = registry.counter(
        "trace.shard_retries", "shard generation attempts retried"
    )
    failures_counter = registry.counter(
        "trace.worker_failures", "pool-level worker failures (crash or deadline)"
    )
    rebuilds_counter = registry.counter(
        "trace.pool_rebuilds", "process pools rebuilt after worker failures"
    )

    queue = deque(sorted(pending, key=lambda spec: spec.shard_id))
    attempts: dict[int, int] = {spec.shard_id: 0 for spec in pending}
    inflight: dict[Future, tuple[ShardSpec, int]] = {}
    running_since: dict[Future, float] = {}
    rebuilds = 0
    pool = make_pool()

    def _charge(spec: ShardSpec, cause: BaseException | str) -> None:
        """Bill one failed attempt to ``spec``; error out past the budget."""
        attempts[spec.shard_id] += 1
        if attempts[spec.shard_id] > max_retries:
            raise RuntimeError(
                f"shard {spec.shard_id} failed after {attempts[spec.shard_id]} "
                f"attempts (last failure: {cause}); raise {SHARD_RETRIES_ENV} "
                "or inspect the worker logs"
            ) from (cause if isinstance(cause, BaseException) else None)
        queue.append(spec)

    try:
        while queue or inflight:
            broken = False
            while queue and not broken:
                spec = queue.popleft()
                attempt = attempts[spec.shard_id]
                if attempt:
                    time.sleep(min(_BACKOFF_BASE * 2 ** (attempt - 1), _BACKOFF_CAP))
                try:
                    future = submit_shard(pool, spec, attempt)
                except BrokenProcessPool:
                    queue.appendleft(spec)
                    broken = True
                else:
                    inflight[future] = (spec, attempt)

            hung = False
            if not broken and inflight:
                done, _ = wait(
                    set(inflight),
                    timeout=_POLL_SECONDS if deadline else None,
                    return_when=FIRST_COMPLETED,
                )
                now = time.perf_counter()
                for future in done:
                    spec, attempt = inflight.pop(future)
                    running_since.pop(future, None)
                    error = future.exception()
                    if error is None:
                        handle_result(spec, attempt, future.result())
                    elif isinstance(error, BrokenProcessPool):
                        # The pool died under this shard; the common
                        # requeue below charges it with the rest.
                        inflight[future] = (spec, attempt)
                        broken = True
                    else:
                        retries_counter.inc()
                        _charge(spec, error)
                if deadline and not broken:
                    for future in inflight:
                        if not future.running():
                            continue
                        started = running_since.setdefault(future, now)
                        if now - started > deadline:
                            hung = True
                    broken = hung

            if broken:
                failures_counter.inc()
                _kill_pool(pool)
                # Harvest in-flight futures that actually finished before
                # the pool died; everything else is charged and requeued.
                casualties = []
                for future, (spec, attempt) in inflight.items():
                    if future.done() and future.exception() is None:
                        handle_result(spec, attempt, future.result())
                    else:
                        casualties.append(spec)
                inflight.clear()
                running_since.clear()
                for spec in casualties:
                    retries_counter.inc()
                    _charge(spec, "deadline exceeded" if hung else "worker crashed")
                rebuilds += 1
                if rebuilds > rebuild_cap:
                    # The pool keeps dying — finish in-process, which no
                    # worker fault can touch.  Same bytes, no parallelism.
                    registry.counter(
                        "trace.pool_degraded",
                        "generation runs degraded to in-process after repeated "
                        "pool failures",
                    ).inc()
                    while queue:
                        spec = queue.popleft()
                        run_inline(spec, attempts[spec.shard_id])
                    return
                rebuilds_counter.inc()
                pool = make_pool()
        pool.shutdown(wait=True)
        pool = None
    finally:
        if pool is not None:
            _kill_pool(pool)


# -- dataset generation -------------------------------------------------


def generate_dataset(
    config: TraceConfig,
    context: ShardContext,
    registry=NULL_REGISTRY,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    merge_path: Optional[Union[str, Path]] = None,
) -> BroadcastDataset:
    """Generate the broadcast dataset from a prebuilt context.

    Honours ``config.shards`` / ``config.workers``; the output is
    independent of both (test-enforced).

    With a ``run_dir``, finished shards are checkpointed there
    (:class:`~repro.parallel.checkpoint.RunCheckpoint`) and — when
    ``resume`` is true — shards already journaled ``done`` are merged
    from disk instead of regenerated, so an interrupted run repeats no
    finished work.  Checkpointing never changes the merged bytes.

    The shard files are merged out of core
    (:func:`~repro.parallel.merge.stream_merge_shards`) into
    ``merge_path`` — this is how :func:`generate_trace` streams straight
    into the dataset-cache entry — defaulting to ``<run_dir>/merged.cols``,
    or to a scratch file when neither is given.
    """
    fault_plan = fault_plan_from_env()

    specs = plan_shards(config.growth.days, shards=config.shards, workers=config.workers)
    workers = effective_workers(config, len(specs))

    checkpoint: Optional[RunCheckpoint] = None
    if run_dir is not None:
        checkpoint = RunCheckpoint.open(
            run_dir, config.cache_key(), specs, resume=resume
        )

    registry.gauge("trace.workers", "worker processes used for generation").set(workers)
    registry.gauge("trace.shards", "day-range shards generated").set(len(specs))
    shard_seconds = registry.histogram(
        "trace.shard_seconds", "wall seconds per generation shard"
    )

    generate_started = time.perf_counter()
    shard_files: dict[int, Path] = {}

    # The scratch dir holds the worker context file, shard files when
    # there is no checkpoint, clean copies of fault-damaged shards, and
    # the merged file when nothing else names one.  On POSIX the merged
    # dataset's mappings survive the cleanup unlink, so the returned
    # dataset outlives the directory.
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        scratch = Path(tmp)
        out_dir = checkpoint.root if checkpoint is not None else scratch

        if checkpoint is not None and checkpoint.done_shards:
            for shard_id in sorted(checkpoint.done_shards):
                shard_files[shard_id] = checkpoint.shard_path(shard_id)
            registry.counter(
                "trace.shards_resumed", "checkpointed shards loaded instead of regenerated"
            ).inc(checkpoint.resumed)
        pending = [spec for spec in specs if spec.shard_id not in shard_files]

        def _publish(spec: ShardSpec, attempt: int, result: tuple) -> None:
            """Promote a finished shard file and queue it for the merge."""
            shard_id, temp_path, seconds = result
            if checkpoint is not None:
                path = checkpoint.publish_shard(shard_id, temp_path)
            else:
                path = scratch / shard_filename(shard_id)
                os.replace(temp_path, path)
            shard_files[shard_id] = path
            if checkpoint is not None and _persist_fault_pending(
                fault_plan, shard_id, attempt
            ):
                # The fault is about to damage the journaled file; the
                # merge reads a clean private copy taken first.
                clean = scratch / shard_filename(shard_id)
                shutil.copyfile(path, clean)
                shard_files[shard_id] = clean
                inject_persist_fault(fault_plan, shard_id, attempt, path)
            shard_seconds.observe(seconds)

        def _run_inline(spec: ShardSpec, attempt: int = 0) -> None:
            """Generate one shard in-process (fallback and degraded modes)."""
            _publish(spec, attempt, _run_shard(spec, out_dir, attempt, context))

        if workers <= 1:
            for spec in pending:
                _run_inline(spec)
        elif pending:
            context_path = scratch / "context.arrays"
            write_arrays(
                context_path,
                {name: getattr(context, name) for name in _CONTEXT_ARRAY_FIELDS},
            )
            _run_shards_resilient(
                pending,
                make_pool=lambda: ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(config, context.audience_cap, str(context_path)),
                ),
                submit_shard=lambda pool, spec, attempt: pool.submit(
                    _run_shard, spec, out_dir, attempt
                ),
                handle_result=_publish,
                run_inline=_run_inline,
                registry=registry,
            )
        registry.gauge(
            "trace.generate_seconds", "wall seconds in per-day generation (all shards)"
        ).set(time.perf_counter() - generate_started)

        merge_started = time.perf_counter()
        if merge_path is None:
            merge_path = out_dir / "merged.cols"
        dataset = stream_merge_shards(
            config,
            [shard_files[shard_id] for shard_id in sorted(shard_files)],
            merge_path,
        )
    registry.gauge(
        "trace.merge_seconds", "wall seconds merging and re-keying shard output"
    ).set(time.perf_counter() - merge_started)
    rss = peak_rss_mb()
    if rss is not None:
        registry.gauge(
            "trace.peak_rss_mb", "process peak RSS high-water mark (MiB, VmHWM)"
        ).set(rss)
    registry.counter("trace.broadcasts", "broadcast records generated").inc(len(dataset))
    return dataset


def _graph_cache_key(config: TraceConfig) -> str:
    """Hash of everything that determines the follow graph's bytes."""
    basis = f"graph|{config.seed}|{config.total_users}|{config.graph_mean_out_degree}"
    return hashlib.sha256(basis.encode("ascii")).hexdigest()[:16]


def load_or_build_graph(
    config: TraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
    registry=NULL_REGISTRY,
) -> Optional[CompiledGraph]:
    """The config's follow graph, via the mappable graph cache.

    With a ``cache_dir``, a previously built graph is attached as
    read-only ``np.memmap`` views — milliseconds instead of the full
    generation — and a fresh build is stored back (atomically) for the
    next run.  Corrupt cache files are discarded and rebuilt.
    """
    if not config.with_social_graph:
        return None
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"graph-{_graph_cache_key(config)}.arrays"
        if path.exists():
            try:
                arrays, _meta = read_arrays(path)
                graph = CompiledGraph(
                    arrays["node_ids"],
                    arrays["indptr"],
                    arrays["indices"],
                    arrays["rindptr"],
                    arrays["rindices"],
                )
                registry.counter("trace.graph_cache_hits", "follow-graph cache hits").inc()
                return graph
            except (ValueError, OSError, KeyError):
                path.unlink(missing_ok=True)

    graph = build_follow_graph(config)
    if path is not None and graph is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_output(path) as temp:
            write_arrays(
                temp,
                {
                    "node_ids": graph.node_ids,
                    "indptr": graph.indptr,
                    "indices": graph.indices,
                    "rindptr": graph.rindptr,
                    "rindices": graph.rindices,
                },
            )
    return graph


def generate_trace(
    config: TraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
    registry=NULL_REGISTRY,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
) -> WorkloadTrace:
    """Generate (or load from cache) a full :class:`WorkloadTrace`.

    The environment knobs are validated *first* (a garbage
    ``REPRO_TRACE_*`` value fails here, not mid-run), then the dataset
    cache is probed: a hit costs the read plus the cheap population
    pools (their substream is independent of the graph's), and the
    follow graph becomes a lazy attribute — built, or attached from the
    graph cache, only if an analysis actually touches ``trace.graph``.
    Only on a miss does the full precompute run.

    ``run_dir`` / ``resume`` enable shard checkpointing — see
    :func:`generate_dataset` and :mod:`repro.parallel.checkpoint`.

    With a cache, the merge streams straight into the cache entry
    (atomically, under the same temp-name discipline the cache sweeps)
    — there is no post-merge ``cache.put`` copy, so the dataset is
    serialized exactly once.
    """
    validate_environment()

    cache = None
    dataset: Optional[BroadcastDataset] = None
    if cache_dir is not None:
        cache = DatasetCache(cache_dir)
        dataset = cache.get(config.cache_key())

    if dataset is not None:
        registry.counter("trace.cache_hits", "dataset cache hits").inc()
        # Pools draw from their own substream, so skipping the graph
        # changes nothing about them; follower counts are only consumed
        # by generation, which a hit bypasses.
        context, _ = build_trace_context(config, graph=None)
        return WorkloadTrace(
            config=config,
            dataset=dataset,
            graph=lambda: load_or_build_graph(config, cache_dir, registry),
            broadcaster_ids=context.broadcaster_ids,
            viewer_ids=context.viewer_ids,
        )

    if cache is not None:
        registry.counter("trace.cache_misses", "dataset cache misses").inc()

    graph_started = time.perf_counter()
    graph = load_or_build_graph(config, cache_dir, registry)
    registry.gauge(
        "trace.graph_seconds", "wall seconds building the follow graph"
    ).set(time.perf_counter() - graph_started)

    context_started = time.perf_counter()
    context, graph = build_trace_context(config, graph=graph)
    registry.gauge(
        "trace.context_seconds",
        "wall seconds in precompute after the graph (pools, follower counts)",
    ).set(time.perf_counter() - context_started)

    merge_path = None
    if cache is not None:
        # Stream the merge straight into the cache entry — the streamed
        # output IS the cache format.  ArrayFileWriter stages the file as
        # `trace-<key>.cols.tmp<pid>`, which matches the cache's stale
        # temp sweep, and publishes with the same os.replace the cache
        # itself uses — the entry appears whole or not at all.
        merge_path = cache.path_for(config.cache_key())

    dataset = generate_dataset(
        config,
        context,
        registry=registry,
        run_dir=run_dir,
        resume=resume,
        merge_path=merge_path,
    )

    return WorkloadTrace(
        config=config,
        dataset=dataset,
        graph=graph,
        broadcaster_ids=context.broadcaster_ids,
        viewer_ids=context.viewer_ids,
    )

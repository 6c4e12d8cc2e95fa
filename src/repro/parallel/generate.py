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
  and CDF buffers — and workers return their day columns the same way,
  through per-shard array files the parent maps back (the legacy
  ``transport="pickle"`` path is kept for comparison and testing),
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
* shard outputs are merged either in memory — a stable argsort on
  ``(start_time, broadcast_id)`` plus globally re-keyed IDs
  (:func:`repro.workload.trace.assemble_dataset_columns`) — or, by
  default whenever shard files already exist on disk (``run_dir`` or a
  dataset cache), *out of core*: the streaming merge
  (:mod:`repro.parallel.merge`) copies shard files straight into the
  final cache column file in bounded windows, so peak RSS never
  holds the whole dataset.  Both merges produce byte-identical files
  (test-enforced); ``REPRO_TRACE_MERGE`` overrides the choice,
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
from contextlib import ExitStack
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.obs import NULL_REGISTRY, peak_rss_mb
from repro.crawler.arrayfile import atomic_output, read_arrays, write_arrays
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
    assemble_dataset_columns,
    build_follow_graph,
    build_trace_context,
    generate_day_columns,
)

#: Worker transports: ``"mmap"`` ships context and results through
#: page-aligned array files workers attach with ``np.memmap``;
#: ``"pickle"`` is the legacy initargs/return-value path.
TRANSPORTS = ("mmap", "pickle")
TRANSPORT_ENV = "REPRO_TRACE_TRANSPORT"

#: Merge strategies: ``"stream"`` runs the out-of-core streaming merge
#: (:mod:`repro.parallel.merge`) over shard files on disk; ``"memory"``
#: concatenates every shard's columns in RAM
#: (:func:`~repro.workload.trace.assemble_dataset_columns`).  Identical
#: bytes either way; the default depends on whether shard files exist
#: anyway (run dir or dataset cache present → ``"stream"``).
MERGES = ("memory", "stream")
MERGE_ENV = "REPRO_TRACE_MERGE"

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

#: ShardContext array fields shipped through the mmap transport (the
#: remaining fields — config and audience_cap — travel as initargs).
_CONTEXT_ARRAY_FIELDS = (
    "broadcaster_ids",
    "viewer_ids",
    "broadcaster_cdf",
    "viewer_cdf",
    "follower_counts",
)

#: BroadcastColumns array fields, in serialization order.
_COLUMN_FIELDS = (
    "broadcast_id",
    "broadcaster_id",
    "start_time",
    "duration_s",
    "web_views",
    "heart_count",
    "comment_count",
    "commenter_count",
    "is_private",
    "broadcaster_followers",
    "viewer_indptr",
    "viewer_ids",
)

#: Per-worker-process shard context (set by the pool initializer, or
#: inherited from the parent on fork start methods).
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


def resolve_transport(transport: Optional[str] = None) -> str:
    """Validate a transport choice, naming its source in the error.

    ``None`` consults ``REPRO_TRACE_TRANSPORT`` (default ``"mmap"``); an
    unknown value — passed or from the environment — raises a
    ``ValueError`` listing the accepted transports.
    """
    source = "transport argument"
    if transport is None:
        transport = os.environ.get(TRANSPORT_ENV, "mmap")
        source = f"{TRANSPORT_ENV} environment variable"
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r} (from {source}); "
            f"expected one of {TRANSPORTS}"
        )
    return transport


def resolve_merge(merge: Optional[str] = None, default: str = "memory") -> str:
    """Validate a merge-strategy choice, naming its source in the error.

    ``None`` consults ``REPRO_TRACE_MERGE``, falling back to ``default``
    (callers pass the context-appropriate one: ``"stream"`` when shard
    files will exist on disk anyway, ``"memory"`` otherwise).  An
    unknown value — passed or from the environment — raises a
    ``ValueError`` listing the accepted strategies.
    """
    source = "merge argument"
    if merge is None:
        merge = os.environ.get(MERGE_ENV) or default
        source = f"{MERGE_ENV} environment variable"
    if merge not in MERGES:
        raise ValueError(
            f"unknown merge strategy {merge!r} (from {source}); "
            f"expected one of {MERGES}"
        )
    return merge


def validate_environment() -> None:
    """Fail fast on malformed generation env knobs.

    Called at the top of :func:`generate_trace` so a typo'd
    ``REPRO_TRACE_*`` variable errors out before the graph build, not
    minutes into it.  Each check raises ``ValueError`` naming the
    variable and the accepted values.
    """
    resolve_transport()
    resolve_merge()
    fault_plan_from_env()
    _env_int(MIN_PER_WORKER_ENV, MIN_BROADCASTS_PER_WORKER)
    _env_int(SHARD_RETRIES_ENV, DEFAULT_SHARD_RETRIES)
    _env_float(SHARD_DEADLINE_ENV, DEFAULT_SHARD_DEADLINE)
    _env_int(POOL_REBUILDS_ENV, DEFAULT_POOL_REBUILDS)


# -- worker-side shard execution ---------------------------------------


def _init_worker(context: ShardContext) -> None:
    global _WORKER_CONTEXT
    # Written exactly once per worker process, by the pool initializer,
    # before any shard runs — worker-local configuration, not shared state.
    _WORKER_CONTEXT = context  # repro: allow[worker-global-mutation] set once by the pool initializer before any shard task runs


def _init_worker_mapped(config: TraceConfig, audience_cap: int, context_path: str) -> None:
    """Attach read-only mapped views of the parent's context arrays."""
    arrays, _meta = read_arrays(context_path)
    _init_worker(
        ShardContext(
            config=config,
            audience_cap=audience_cap,
            **{name: arrays[name] for name in _CONTEXT_ARRAY_FIELDS},
        )
    )


def _run_shard(
    spec: ShardSpec, context: Optional[ShardContext] = None, attempt: int = 0
) -> tuple[int, list[BroadcastColumns], float]:
    """Generate one shard's day range; returns (shard_id, day columns, seconds).

    Worker-side pipeline faults fire only on the pooled path (``context``
    is ``None``) — an injected ``os._exit`` must kill a *worker*, never
    the parent running the in-process fallback.
    """
    ctx = context if context is not None else _WORKER_CONTEXT
    if ctx is None:
        raise RuntimeError("worker process has no shard context (initializer not run)")
    if context is None:
        inject_worker_fault(fault_plan_from_env(), spec.shard_id, attempt)
    started = time.perf_counter()
    day_columns = [generate_day_columns(ctx, day) for day in spec.days()]
    return spec.shard_id, day_columns, time.perf_counter() - started


def _columns_to_arrays(day_columns: list[BroadcastColumns]) -> dict[str, np.ndarray]:
    """Flatten per-day column batches into array-file entries."""
    arrays = {}
    for position, columns in enumerate(day_columns):
        for field in _COLUMN_FIELDS:
            arrays[f"{position:03d}/{field}"] = getattr(columns, field)
    return arrays


def _run_shard_mapped(
    spec: ShardSpec, out_dir: str, attempt: int = 0
) -> tuple[int, str, int, float]:
    """Generate one shard and write its day columns to an array file.

    The file is written under a ``.tmp<pid>`` name — the parent promotes
    it with ``os.replace`` (directly, or through the run checkpoint), so
    a worker killed mid-write can never leave a plausible-looking shard
    file behind.  Returns ``(shard_id, temp_path, n_days, seconds)`` —
    only metadata crosses the process boundary; the parent maps the
    columns back.
    """
    shard_id, day_columns, seconds = _run_shard(spec, attempt=attempt)
    temp = Path(out_dir) / f"{shard_filename(spec.shard_id)}.tmp{os.getpid()}"
    write_arrays(temp, _columns_to_arrays(day_columns), meta={"n_days": len(day_columns)})
    return shard_id, str(temp), len(day_columns), seconds


def _read_shard_columns(
    path: Union[str, Path], app_name: str, copy: bool = False
) -> list[BroadcastColumns]:
    """Map a shard file back as per-day column batches.

    ``copy=True`` materializes the columns in RAM instead of leaving them
    as ``np.memmap`` views — required before deliberately damaging the
    file (persist-fault injection), where a mapped view would SIGBUS.
    """
    arrays, meta = read_arrays(path)
    if copy:
        arrays = {name: np.array(array, copy=True) for name, array in arrays.items()}
    return [
        BroadcastColumns(
            app_name=app_name,
            **{field: arrays[f"{position:03d}/{field}"] for field in _COLUMN_FIELDS},
        )
        for position in range(int(meta["n_days"]))
    ]


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
    transport: Optional[str] = None,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    merge: Optional[str] = None,
    merge_path: Optional[Union[str, Path]] = None,
) -> BroadcastDataset:
    """Generate the broadcast dataset from a prebuilt context.

    Honours ``config.shards`` / ``config.workers``; the output is
    independent of both (test-enforced).  ``transport`` picks how context
    and results cross the process boundary (``"mmap"`` default,
    ``"pickle"`` legacy; env override ``REPRO_TRACE_TRANSPORT``) and is
    equally output-invariant.

    With a ``run_dir``, finished shards are checkpointed there
    (:class:`~repro.parallel.checkpoint.RunCheckpoint`) and — when
    ``resume`` is true — shards already journaled ``done`` are loaded
    from disk instead of regenerated, so an interrupted run repeats no
    finished work.  Checkpointing never changes the merged bytes.

    ``merge`` picks the shard-merge strategy (:data:`MERGES`; env
    override ``REPRO_TRACE_MERGE``).  ``None`` defaults to the streaming
    out-of-core merge whenever shard files exist on disk anyway
    (``run_dir`` or ``merge_path`` given), in-memory otherwise — either
    way the dataset bytes are identical.  ``merge_path`` names where the
    streamed merge publishes its column file (this is how
    :func:`generate_trace` streams straight into the dataset-cache
    entry); default is ``<run_dir>/merged.cols``, or a scratch file when
    neither is given.
    """
    merge = resolve_merge(
        merge,
        default="stream" if (run_dir is not None or merge_path is not None) else "memory",
    )
    stream = merge == "stream"
    transport = resolve_transport(transport)
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
    results: dict[int, list[BroadcastColumns]] = {}
    shard_files: dict[int, Path] = {}

    # Scratch space and the mmap transport dir are stack-managed so that
    # in stream mode the shard files survive until the merge has read
    # them; on POSIX the merged dataset's mappings survive the cleanup
    # unlink, so the returned dataset outlives the stack.
    with ExitStack() as stack:
        scratch: Optional[Path] = None
        if stream:
            scratch = Path(
                stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-trace-merge-"))
            )

        if checkpoint is not None and checkpoint.done_shards:
            for shard_id in sorted(checkpoint.done_shards):
                if stream:
                    shard_files[shard_id] = checkpoint.shard_path(shard_id)
                else:
                    results[shard_id] = _read_shard_columns(
                        checkpoint.shard_path(shard_id), config.app_name
                    )
            registry.counter(
                "trace.shards_resumed", "checkpointed shards loaded instead of regenerated"
            ).inc(checkpoint.resumed)
        pending = [
            spec
            for spec in specs
            if spec.shard_id not in results and spec.shard_id not in shard_files
        ]

        def _persist_columns(
            spec: ShardSpec, attempt: int, day_columns: list[BroadcastColumns]
        ) -> None:
            """Persist parent-held columns (in-process and pickle paths).

            Journals to the checkpoint when there is one; in stream mode
            additionally guarantees a *clean* shard file for the merge to
            read — the checkpoint copy when no persist fault is about to
            damage it, a scratch copy otherwise.
            """
            path = None
            if checkpoint is not None:
                path = checkpoint.write_shard(
                    spec.shard_id,
                    _columns_to_arrays(day_columns),
                    meta={"n_days": len(day_columns)},
                )
            if stream:
                will_fault = path is not None and _persist_fault_pending(
                    fault_plan, spec.shard_id, attempt
                )
                if path is None or will_fault:
                    clean = scratch / shard_filename(spec.shard_id)
                    write_arrays(
                        clean,
                        _columns_to_arrays(day_columns),
                        meta={"n_days": len(day_columns)},
                    )
                    shard_files[spec.shard_id] = clean
                else:
                    shard_files[spec.shard_id] = path
            if path is not None:
                inject_persist_fault(fault_plan, spec.shard_id, attempt, path)

        def _finish_inline(spec: ShardSpec, attempt: int = 0) -> None:
            """Generate one shard in-process (fallback and degraded modes)."""
            shard_id, day_columns, seconds = _run_shard(spec, context)
            _persist_columns(spec, attempt, day_columns)
            if not stream:
                results[shard_id] = day_columns
            shard_seconds.observe(seconds)

        if workers <= 1:
            # In-process fallback: same shard walk, no executor.
            for spec in pending:
                _finish_inline(spec)
        elif not pending:
            pass  # fully resumed: nothing left to schedule
        elif transport == "pickle":

            def _handle_pickle(spec: ShardSpec, attempt: int, result: tuple) -> None:
                shard_id, day_columns, seconds = result
                _persist_columns(spec, attempt, day_columns)
                if not stream:
                    results[shard_id] = day_columns
                shard_seconds.observe(seconds)

            _run_shards_resilient(
                pending,
                make_pool=lambda: ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker, initargs=(context,)
                ),
                submit_shard=lambda pool, spec, attempt: pool.submit(
                    _run_shard, spec, None, attempt
                ),
                handle_result=_handle_pickle,
                run_inline=_finish_inline,
                registry=registry,
            )
        else:
            # Zero-copy transport: context goes out as one mapped file, day
            # columns come back as per-shard files.  With a checkpoint the
            # shard files live (and stay) in the run dir; otherwise they sit
            # in a stack-scoped temp dir — on POSIX the mappings (and thus
            # the merged dataset) survive the cleanup unlink.
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-trace-"))
            context_path = Path(tmp) / "context.arrays"
            write_arrays(
                context_path,
                {name: getattr(context, name) for name in _CONTEXT_ARRAY_FIELDS},
            )
            out_dir = str(checkpoint.root) if checkpoint is not None else tmp

            def _handle_mapped(spec: ShardSpec, attempt: int, result: tuple) -> None:
                shard_id, temp_path, _n_days, seconds = result
                if checkpoint is not None:
                    path = checkpoint.publish_shard(shard_id, temp_path)
                else:
                    path = Path(tmp) / shard_filename(shard_id)
                    os.replace(temp_path, path)
                # A persist fault about to damage this file means a mapped
                # view would SIGBUS (memory merge) and the merge input would
                # be corrupt (streamed) — take a private clean copy first.
                will_fault = checkpoint is not None and _persist_fault_pending(
                    fault_plan, shard_id, attempt
                )
                if stream:
                    if will_fault:
                        clean = scratch / shard_filename(shard_id)
                        shutil.copyfile(path, clean)
                        shard_files[shard_id] = clean
                    else:
                        shard_files[shard_id] = path
                else:
                    results[shard_id] = _read_shard_columns(
                        path, config.app_name, copy=will_fault
                    )
                if checkpoint is not None:
                    inject_persist_fault(fault_plan, shard_id, attempt, path)
                shard_seconds.observe(seconds)

            _run_shards_resilient(
                pending,
                make_pool=lambda: ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker_mapped,
                    initargs=(config, context.audience_cap, str(context_path)),
                ),
                submit_shard=lambda pool, spec, attempt: pool.submit(
                    _run_shard_mapped, spec, out_dir, attempt
                ),
                handle_result=_handle_mapped,
                run_inline=_finish_inline,
                registry=registry,
            )
        registry.gauge(
            "trace.generate_seconds", "wall seconds in per-day generation (all shards)"
        ).set(time.perf_counter() - generate_started)

        merge_started = time.perf_counter()
        if stream:
            if merge_path is not None:
                out_path = Path(merge_path)
            elif checkpoint is not None:
                out_path = checkpoint.root / "merged.cols"
            else:
                out_path = scratch / "merged.cols"
            dataset = stream_merge_shards(
                config,
                [shard_files[shard_id] for shard_id in sorted(shard_files)],
                out_path,
            )
        else:
            ordered_days = [
                day_columns
                for shard_id in sorted(results)
                for day_columns in results[shard_id]
            ]
            dataset = assemble_dataset_columns(config, ordered_days)
    registry.gauge(
        "trace.merge_seconds", "wall seconds merging and re-keying shard output"
    ).set(time.perf_counter() - merge_started)
    registry.gauge(
        "trace.merge_streamed",
        "1 when the out-of-core streaming merge produced the dataset, 0 in-memory",
    ).set(1.0 if stream else 0.0)
    rss = peak_rss_mb()
    if rss is not None:
        registry.gauge(
            "trace.peak_rss_mb", "process peak RSS high-water mark (MiB, ru_maxrss)"
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
    merge: Optional[str] = None,
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

    ``merge`` picks the shard-merge strategy (:data:`MERGES`, env
    override ``REPRO_TRACE_MERGE``); ``None`` defaults to the streaming
    out-of-core merge whenever a ``cache_dir`` or ``run_dir`` is given.
    When the merge streams into a cache, the merged file is published
    directly as the cache entry (atomically, under the same temp-name
    discipline the cache sweeps) — there is no post-merge ``cache.put``
    copy, so the dataset is serialized exactly once.  Only the in-memory
    merge stores its result with ``put``.
    """
    validate_environment()

    cache = None
    dataset: Optional[BroadcastDataset] = None
    if cache_dir is not None:
        # Imported here: storage has no dependency on this module.
        from repro.crawler.storage import DatasetCache

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
    graph_seconds = time.perf_counter() - graph_started
    registry.gauge(
        "trace.graph_seconds", "wall seconds building the follow graph"
    ).set(graph_seconds)

    context_started = time.perf_counter()
    context, graph = build_trace_context(config, graph=graph)
    registry.gauge(
        "trace.context_seconds", "wall seconds in precompute (graph + pools)"
    ).set(graph_seconds + (time.perf_counter() - context_started))

    merge = resolve_merge(
        merge,
        default="stream" if (cache_dir is not None or run_dir is not None) else "memory",
    )
    merge_path = None
    if merge == "stream" and cache is not None:
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
        merge=merge,
        merge_path=merge_path,
    )
    if cache is not None and merge_path is None:
        cache.put(config.cache_key(), dataset)

    return WorkloadTrace(
        config=config,
        dataset=dataset,
        graph=graph,
        broadcaster_ids=context.broadcaster_ids,
        viewer_ids=context.viewer_ids,
    )

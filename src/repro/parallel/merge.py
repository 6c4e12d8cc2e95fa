"""Out-of-core streaming merge: shard files flow straight into the
dataset-cache column file.

The in-memory merge (:func:`repro.workload.trace.assemble_dataset_columns`)
is the one phase where every shard's columns coexist in RAM — at the
paper's full scale (~19.6M broadcasts / 705M views) the viewer CSR alone
is ~5.6 GB of int64, and ``DatasetCache.put`` then serializes a second
full copy.  This module replaces that with a sequential file-to-file
copy whose peak heap is one bounded window (:data:`STREAM_CHUNK_BYTES`),
regardless of dataset size.

Why a *sequential* merge is the *sorted* merge: shards are contiguous
day ranges, rows within a day are sorted by ``start_time`` (ties broken
by day-local ID, which equals storage order), and day offsets never
cross a day boundary — so concatenating shards in shard order **is** the
global ``(start_time, id)`` order the in-memory path produces with its
lexsort.  Only two per-shard fixups remain, both computable from a
running scalar:

* ``broadcast_id`` — globally re-keyed ``1..N``, so the column is simply
  *generated* as ranges (never even read from the shards);
* ``viewer_indptr`` — each day's CSR offsets shifted by the running
  viewer count (one leading ``0``, then every day's ``indptr[1:]``).

Everything else is a raw block copy.  The output is written with
:class:`~repro.crawler.arrayfile.ArrayFileWriter` — checksums accumulate
incrementally and the file publishes atomically — and is **byte-identical**
to ``save_dataset_mapped`` of the in-memory merge (test-enforced for
every shards/workers/transport choice), which is what lets
:func:`repro.parallel.generate.generate_trace` publish the merge output
directly *as* the dataset-cache entry and skip ``put`` entirely.

Reads go through bounded ``file.read`` windows rather than ``np.memmap``
on purpose: resident file-backed mappings count toward RSS, so a mapped
merge would look exactly like the in-memory one to the
``trace.peak_rss_mb`` gate in ``scripts/check.sh bench``.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import BinaryIO, Sequence, Union

import numpy as np

from repro.crawler.arrayfile import ArrayEntry, ArrayFileWriter, read_array_index
from repro.crawler.dataset import BroadcastDataset
from repro.crawler.storage import (
    COLUMN_LAYOUT,
    load_dataset_mapped,
    mapped_dataset_meta,
)
from repro.workload.trace import TraceConfig

__all__ = ["STREAM_CHUNK_BYTES", "stream_merge_shards"]

PathLike = Union[str, Path]

#: Upper bound on one copy window's bytes — the merge's working set is a
#: small multiple of this (source buffer + dtype-converted view), never
#: a function of dataset size.  32 MiB keeps syscall overhead negligible
#: while staying far below a single paper-scale shard.
STREAM_CHUNK_BYTES = 32 << 20


def _shard_day_entries(
    path: Path, field: str, index: dict[str, ArrayEntry], n_days: int
) -> list[ArrayEntry]:
    """``field``'s per-day entries of one shard file, in day order."""
    entries = []
    for position in range(n_days):
        name = f"{position:03d}/{field}"
        entry = index.get(name)
        if entry is None:
            raise ValueError(f"{path}: shard file is missing array {name!r}")
        entries.append(entry)
    return entries


def _copy_window(
    writer: ArrayFileWriter,
    field: str,
    handle: BinaryIO,
    entry: ArrayEntry,
    start: int = 0,
) -> None:
    """Copy ``entry``'s elements from ``start`` on, in bounded windows."""
    itemsize = entry.dtype.itemsize
    window = max(itemsize, STREAM_CHUNK_BYTES // itemsize * itemsize)
    offset = entry.offset + start * itemsize
    remaining = entry.nbytes - start * itemsize
    handle.seek(offset)
    while remaining > 0:
        take = min(window, remaining)
        buffer = handle.read(take)
        if len(buffer) != take:
            raise ValueError(f"shard array {entry.name!r} truncated mid-copy")
        writer.append(field, np.frombuffer(buffer, dtype=entry.dtype))
        remaining -= take


def _append_ranges(writer: ArrayFileWriter, field: str, start: int, count: int) -> None:
    """Append ``start .. start+count-1`` as int64, in bounded windows."""
    window = max(1, STREAM_CHUNK_BYTES // 8)
    position = start
    end = start + count
    while position < end:
        take = min(window, end - position)
        writer.append(field, np.arange(position, position + take, dtype=np.int64))
        position += take


def stream_merge_shards(
    config: TraceConfig,
    shard_paths: Sequence[PathLike],
    out_path: PathLike,
    verify_order: bool = True,
) -> BroadcastDataset:
    """Merge shard files into one dataset column file, out of core.

    ``shard_paths`` must be the run's shard files in shard (= day) order —
    checkpointed ``shard-NNNNN.arrays`` files or their transport
    equivalents.  The merged file is staged and published atomically at
    ``out_path``; the returned dataset attaches it as read-only
    ``np.memmap`` views (valid even if ``out_path`` is later unlinked, so
    scratch-directory merges work).

    ``verify_order`` cross-checks the sortedness invariant the sequential
    merge rests on (non-decreasing ``start_time`` across every window
    boundary) while the bytes stream past — it costs nothing extra to
    read and turns a violated generator invariant into a hard error
    instead of a silently mis-sorted dataset.
    """
    paths = [Path(path) for path in shard_paths]
    if not paths:
        raise ValueError("no shard files to merge")

    # Pass 1 — headers only: learn every day's row/viewer counts, so the
    # complete output schema (and thus the header) is known up front.
    shards: list[tuple[Path, dict[str, ArrayEntry], int]] = []
    total_days = 0
    total_rows = 0
    total_viewers = 0
    for path in paths:
        index, meta = read_array_index(path)
        n_days = int(meta["n_days"])
        for entry in _shard_day_entries(path, "broadcast_id", index, n_days):
            total_rows += entry.shape[0]
        for entry in _shard_day_entries(path, "viewer_ids", index, n_days):
            total_viewers += entry.shape[0]
        shards.append((path, index, n_days))
        total_days += n_days
    if total_days != config.growth.days:
        raise ValueError(
            f"shard files cover {total_days} days, config expects "
            f"{config.growth.days}; pass every shard of the run in order"
        )

    def column_length(field: str) -> int:
        if field == "viewer_indptr":
            return total_rows + 1
        if field == "viewer_ids":
            return total_viewers
        return total_rows

    writer = ArrayFileWriter(
        out_path,
        [(field, dtype, (column_length(field),)) for field, dtype in COLUMN_LAYOUT],
        meta=mapped_dataset_meta(
            config.app_name, config.growth.days, total_rows, total_viewers
        ),
    )

    # Pass 2 — one sequential sweep per column (the output file is laid
    # out column-major), every shard held open once.
    try:
        with ExitStack() as stack:
            handles = [stack.enter_context(path.open("rb")) for path, _, _ in shards]
            last_start_time = -np.inf
            for field, _dtype in COLUMN_LAYOUT:
                if field == "broadcast_id":
                    # Generated, not copied: the global re-key is just 1..N.
                    _append_ranges(writer, field, 1, total_rows)
                    continue
                if field == "viewer_indptr":
                    writer.append(field, np.zeros(1, dtype=np.int64))
                viewer_base = 0
                for handle, (path, index, n_days) in zip(handles, shards):
                    for entry in _shard_day_entries(path, field, index, n_days):
                        if field == "viewer_indptr":
                            # Day-local CSR offsets, shifted by the viewers
                            # already merged; the day's own leading 0 is
                            # dropped (the global column has exactly one).
                            day_indptr = np.frombuffer(
                                _read_entry(handle, entry), dtype=entry.dtype
                            )
                            writer.append(field, day_indptr[1:] + np.int64(viewer_base))
                            viewer_base += int(day_indptr[-1])
                        elif field == "start_time" and verify_order:
                            last_start_time = _copy_verifying_order(
                                writer, field, handle, entry, last_start_time
                            )
                        else:
                            _copy_window(writer, field, handle, entry)
        merged_path = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    return load_dataset_mapped(merged_path)


def _read_entry(handle: BinaryIO, entry: ArrayEntry) -> bytes:
    """Read one whole array block (used for per-day ``viewer_indptr``,
    whose size is bounded by a single day's row count)."""
    handle.seek(entry.offset)
    buffer = handle.read(entry.nbytes)
    if len(buffer) != entry.nbytes:
        raise ValueError(f"shard array {entry.name!r} truncated mid-copy")
    return buffer


def _copy_verifying_order(
    writer: ArrayFileWriter,
    field: str,
    handle: BinaryIO,
    entry: ArrayEntry,
    last_value: float,
) -> float:
    """Copy a float64 block in windows, checking it never decreases."""
    itemsize = entry.dtype.itemsize
    window = max(itemsize, STREAM_CHUNK_BYTES // itemsize * itemsize)
    handle.seek(entry.offset)
    remaining = entry.nbytes
    while remaining > 0:
        take = min(window, remaining)
        buffer = handle.read(take)
        if len(buffer) != take:
            raise ValueError(f"shard array {entry.name!r} truncated mid-copy")
        values = np.frombuffer(buffer, dtype=entry.dtype)
        if len(values) and (
            values[0] < last_value or np.any(values[1:] < values[:-1])
        ):
            raise ValueError(
                f"{entry.name!r} is not sorted across shard day ranges; "
                "the sequential streaming merge requires sorted day shards "
                "(generator invariant violated)"
            )
        writer.append(field, values)
        if len(values):
            last_value = float(values[-1])
        remaining -= take
    return last_value

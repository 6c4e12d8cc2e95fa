"""Dataset and trace persistence.

The paper released parts of its measurement datasets; this module gives
the reproduction the same capability.  Broadcast datasets have two
on-disk forms:

* the release format (v1): gzip-compressed JSONL, one record per line
  with metadata on the first line — :func:`save_dataset` /
  :func:`load_dataset`;
* the cache format: uncompressed, page-aligned ``repro-arrays`` column
  files (``.cols``, :data:`COLUMN_LAYOUT` behind a JSON header, CRC-32
  footer) — :func:`save_dataset_mapped` / :func:`load_dataset_mapped`.
  The streaming merge (:mod:`repro.parallel.merge`) writes this layout
  directly, so a generated dataset is serialized exactly once, and
  :class:`DatasetCache` stores nothing else.

Fine-grained delay traces round-trip through ``.npz`` bundles.

Serialization is byte-deterministic in both dataset formats (the gzip
header's mtime is pinned to zero and the column file holds fixed-dtype
little-endian buffers): the same dataset always produces the same bytes,
which is what the sharded-generation determinism tests and the on-disk
:class:`DatasetCache` rely on.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.pipeline import BroadcastTrace
from repro.crawler.arrayfile import atomic_output, read_arrays, write_arrays
from repro.crawler.dataset import BroadcastColumns, BroadcastDataset, BroadcastRecord

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

#: Column-file layout version, recorded in every entry's metadata.
_COLUMNS_FORMAT_VERSION = 2

#: Column serialization order and on-disk dtypes of the column file
#: (shared with the streaming merge, which writes the layout shard by
#: shard).  Little-endian is forced so the bytes are
#: platform-independent.
COLUMN_LAYOUT: tuple[tuple[str, str], ...] = (
    ("broadcast_id", "<i8"),
    ("broadcaster_id", "<i8"),
    ("start_time", "<f8"),
    ("duration_s", "<f8"),
    ("web_views", "<i8"),
    ("heart_count", "<i8"),
    ("comment_count", "<i8"),
    ("commenter_count", "<i8"),
    ("is_private", "|b1"),
    ("broadcaster_followers", "<i8"),
    ("viewer_indptr", "<i8"),
    ("viewer_ids", "<i8"),
)


def _record_to_json(record: BroadcastRecord) -> dict:
    return {
        "broadcast_id": record.broadcast_id,
        "broadcaster_id": record.broadcaster_id,
        "app_name": record.app_name,
        "start_time": record.start_time,
        "duration_s": record.duration_s,
        "viewer_ids": record.viewer_ids.tolist(),
        "web_views": record.web_views,
        "heart_count": record.heart_count,
        "comment_count": record.comment_count,
        "commenter_count": record.commenter_count,
        "is_private": record.is_private,
        "broadcaster_followers": record.broadcaster_followers,
    }


def _record_from_json(payload: dict) -> BroadcastRecord:
    return BroadcastRecord(
        broadcast_id=payload["broadcast_id"],
        broadcaster_id=payload["broadcaster_id"],
        app_name=payload["app_name"],
        start_time=payload["start_time"],
        duration_s=payload["duration_s"],
        viewer_ids=np.array(payload["viewer_ids"], dtype=np.int64),
        web_views=payload["web_views"],
        heart_count=payload["heart_count"],
        comment_count=payload["comment_count"],
        commenter_count=payload["commenter_count"],
        is_private=payload["is_private"],
        broadcaster_followers=payload["broadcaster_followers"],
    )


def dataset_to_bytes(dataset: BroadcastDataset) -> bytes:
    """Serialize a dataset to deterministic gzip-JSONL bytes.

    The gzip mtime is pinned to 0, so equal datasets always serialize to
    equal bytes — the byte-identity guarantee the parallel-generation
    tests assert.
    """
    header = {
        "format_version": _FORMAT_VERSION,
        "app_name": dataset.app_name,
        "days": dataset.days,
        "record_count": len(dataset),
    }
    raw = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as binary:
        binary.write((json.dumps(header) + "\n").encode("utf-8"))
        for record in dataset:
            binary.write((json.dumps(_record_to_json(record)) + "\n").encode("utf-8"))
    return raw.getvalue()


def dataset_from_bytes(data: bytes, source: str = "<bytes>") -> BroadcastDataset:
    """Inverse of :func:`dataset_to_bytes`."""
    with gzip.open(io.BytesIO(data), "rt", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{source}: empty dataset file")
        header = json.loads(header_line)
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"{source}: unsupported format version {version}")
        dataset = BroadcastDataset(app_name=header["app_name"], days=header["days"])
        for line in handle:
            if line.strip():
                dataset.add(_record_from_json(json.loads(line)))
    expected = header.get("record_count")
    if expected is not None and expected != len(dataset):
        raise ValueError(
            f"{source}: truncated dataset ({len(dataset)} of {expected} records)"
        )
    return dataset


def save_dataset(dataset: BroadcastDataset, path: PathLike) -> None:
    """Write a dataset as gzip JSONL: header line, then one record/line."""
    Path(path).write_bytes(dataset_to_bytes(dataset))


def load_dataset(path: PathLike) -> BroadcastDataset:
    """Read a dataset written by :func:`save_dataset`."""
    return dataset_from_bytes(Path(path).read_bytes(), source=str(path))


_CACHE_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,100}$")

_MAPPED_FORMAT = "broadcast-dataset"


def mapped_dataset_meta(
    app_name: str, days: int, record_count: int, viewer_count: int
) -> dict:
    """The column-file header metadata for a dataset of these counts.

    Shared between :func:`save_dataset_mapped` and the streaming merge
    (:mod:`repro.parallel.merge`) so a streamed file carries exactly the
    metadata a monolithic save would — a requirement for the two paths'
    byte-identity.
    """
    return {
        "format": _MAPPED_FORMAT,
        "format_version": _COLUMNS_FORMAT_VERSION,
        "app_name": app_name,
        "days": days,
        "record_count": record_count,
        "viewer_count": viewer_count,
    }


def save_dataset_mapped(dataset: BroadcastDataset, path: PathLike) -> None:
    """Write a dataset as an uncompressed, memory-mappable column file.

    Raw page-aligned little-endian columns (:data:`COLUMN_LAYOUT`)
    behind a JSON header line — :func:`load_dataset_mapped` opens it
    zero-copy with ``np.memmap``, so a paper-scale dataset streams from
    the page cache instead of being inflated into RAM.  Deterministic
    bytes, like the release format.
    """
    columns = dataset.columns
    if columns is None:
        columns = BroadcastColumns.from_records(dataset.app_name, dataset.records)
    write_arrays(
        path,
        {field: np.ascontiguousarray(getattr(columns, field), dtype=dtype)
         for field, dtype in COLUMN_LAYOUT},
        meta=mapped_dataset_meta(
            dataset.app_name, dataset.days, len(columns), len(columns.viewer_ids)
        ),
    )


def load_dataset_mapped(path: PathLike) -> BroadcastDataset:
    """Open a :func:`save_dataset_mapped` file as a mapped-column dataset.

    The returned dataset's columns are read-only ``np.memmap`` views; on
    POSIX they stay valid even if the file is unlinked afterwards.  Every
    column's CRC-32 is checked against the file's footer first, so a
    bit-flipped file raises ``ValueError`` instead of being served.
    """
    arrays, meta = read_arrays(path, verify=True)
    if meta.get("format") != _MAPPED_FORMAT:
        raise ValueError(f"{path}: not a mapped broadcast dataset")
    version = meta.get("format_version")
    if version != _COLUMNS_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    expected = {field for field, _ in COLUMN_LAYOUT}
    if set(arrays) != expected:
        raise ValueError(f"{path}: column set mismatch")
    columns = BroadcastColumns(app_name=meta["app_name"], **arrays)
    if len(columns) != int(meta["record_count"]):
        raise ValueError(f"{path}: truncated dataset (record count mismatch)")
    if len(columns.viewer_ids) != int(meta["viewer_count"]):
        raise ValueError(f"{path}: truncated dataset (viewer count mismatch)")
    return BroadcastDataset.from_columns(
        app_name=meta["app_name"], days=meta["days"], columns=columns
    )


#: Stale atomic-write temp files: ``<entry name>.tmp<pid>``.
_TEMP_RE = re.compile(r"\.tmp(\d+)$")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def sweep_stale_temps(root: PathLike, pattern: str = "*.tmp*") -> int:
    """Remove ``<name>.tmp<pid>`` atomic-write leftovers under ``root``.

    Every atomic writer in the repo (dataset cache entries, checkpointed
    shard files, run manifests) stages into ``<target>.tmp<pid>`` before
    ``os.replace``; a writer killed between the two leaves the temp
    behind.  A temp is swept only when its recorded pid is no longer
    alive (``os.kill(pid, 0)`` probe), so concurrent writers are never
    disturbed.  Returns the number of files removed.
    """
    removed = 0
    for path in Path(root).glob(pattern):
        match = _TEMP_RE.search(path.name)
        if match and not _pid_alive(int(match.group(1))):
            path.unlink(missing_ok=True)
            removed += 1
    return removed


class DatasetCache:
    """A content-addressed on-disk cache of generated broadcast datasets.

    Keys come from :meth:`repro.workload.trace.TraceConfig.cache_key` — a
    hash of everything that determines the generated data (and nothing
    that does not, like worker counts) — so figure experiments across
    processes reuse one generation.  An entry is one
    :func:`save_dataset_mapped` column file, ``trace-<key>.cols``, opened
    zero-copy on a hit.  Writes are atomic (temp file + ``os.replace``)
    so a crashed run never leaves a truncated entry that a later run
    would trip over; temp files orphaned by a killed writer are swept on
    cache construction (only when their recorded pid is no longer alive,
    so concurrent writers are never disturbed).

    Entries left by retired cache formats (gzipped columns or gzipped
    JSONL under the same ``trace-<key>`` stem) are neither read nor
    removed: their key misses, and the dataset is regenerated into a
    ``.cols`` entry.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> None:
        """Remove atomic-write leftovers whose writer process is gone."""
        sweep_stale_temps(self.root, "trace-*.tmp*")

    def path_for(self, key: str) -> Path:
        if not _CACHE_KEY_RE.match(key):
            raise ValueError(f"invalid cache key {key!r}")
        return self.root / f"trace-{key}.cols"

    def get(self, key: str) -> Optional[BroadcastDataset]:
        """The cached dataset for ``key``, or ``None`` on a miss.

        A corrupt entry is treated as a miss and removed.  Corruption
        covers truncation or trailing bytes, a column whose CRC-32 does
        not match the footer, a malformed header, footer or metadata,
        and a format version the reader does not understand.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return load_dataset_mapped(path)
        except (ValueError, OSError, KeyError):
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, dataset: BroadcastDataset) -> Path:
        """Store ``dataset`` under ``key``; returns the entry's path.

        The write is atomic, and the temp file is removed even when
        serialization fails mid-write.
        """
        path = self.path_for(key)
        with atomic_output(path) as temp:
            save_dataset_mapped(dataset, temp)
        return path

    def __contains__(self, key: str) -> bool:
        """True only for keys :meth:`get` would actually return.

        Aligned with ``get`` semantics — the entry is fully verified (and
        a corrupt file removed) rather than merely stat'ed, so callers can
        never skip regeneration on a poisoned key.  Use
        :meth:`path_for(...).exists() <path_for>` for a cheap
        existence-only probe.
        """
        return self.get(key) is not None


def save_traces(traces: list[BroadcastTrace], path: PathLike) -> None:
    """Write delay-crawl traces to a compressed ``.npz`` bundle.

    Broadcast IDs are integers and go into their own int64 array —
    packing them into the float64 ``meta`` block would silently corrupt
    IDs above 2**53.  The ``meta`` block keeps a float copy of the ID in
    column 0 so bundles stay readable by the previous loader.
    """
    if not traces:
        raise ValueError("no traces to save")
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(
            [
                (t.broadcast_id, t.duration_s, t.chunk_duration_s, t.frame_interval_s)
                for t in traces
            ],
            dtype=np.float64,
        ),
        "broadcast_ids": np.array([t.broadcast_id for t in traces], dtype=np.int64),
    }
    for index, trace in enumerate(traces):
        arrays[f"frames_{index}"] = trace.frame_arrivals
        arrays[f"ready_{index}"] = trace.chunk_ready
        arrays[f"avail_{index}"] = trace.chunk_availability
    np.savez_compressed(Path(path), **arrays)


def load_traces(path: PathLike) -> list[BroadcastTrace]:
    """Read traces written by :func:`save_traces`.

    Bundles written before the dedicated ``broadcast_ids`` array existed
    fall back to the (float64) ID column in ``meta``.
    """
    with np.load(Path(path)) as bundle:
        meta = bundle["meta"]
        if "broadcast_ids" in bundle:
            broadcast_ids = bundle["broadcast_ids"].astype(np.int64)
        else:
            broadcast_ids = meta[:, 0].astype(np.int64)
        traces = []
        for index in range(len(meta)):
            _legacy_id, duration_s, chunk_duration_s, frame_interval_s = meta[index]
            traces.append(
                BroadcastTrace(
                    broadcast_id=int(broadcast_ids[index]),
                    duration_s=float(duration_s),
                    frame_arrivals=bundle[f"frames_{index}"],
                    chunk_ready=bundle[f"ready_{index}"],
                    chunk_availability=bundle[f"avail_{index}"],
                    chunk_duration_s=float(chunk_duration_s),
                    frame_interval_s=float(frame_interval_s),
                )
            )
    return traces

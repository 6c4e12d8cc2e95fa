#!/usr/bin/env python3
"""Chaos smoke for the trace-generation pipeline (scripts/check.sh chaos-pipeline).

End-to-end proof that fault recovery never changes the output:

1. a clean run establishes the reference dataset;
2. a faulted run — a worker killed mid-shard (``kill-worker@shard=1``)
   and a shard file truncated after persist (``truncate-shard@shard=3``)
   — must produce identical output (every stored column) through
   retry and re-verify;
3. a resume of the faulted run dir must regenerate only the damaged
   shard, skip the healthy ones, and again match column for column;
4. the same truncation and resume with ``workers=1``, where every shard
   is generated in-process and published through the same handler as
   pooled ones.

Runs at a toy scale with the serial fallback disabled so a real process
pool (and therefore real worker crashes) is exercised even on a
single-core runner.  Exit 0 on success, non-zero with a message on any
divergence.

Run:  PYTHONPATH=src python scripts/chaos_pipeline.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

SCALE = 0.0003
SEED = 17
WORKERS = 2
SHARDS = 4
# The worker kill breaks the whole pool, so shard 3 may not persist
# until a later attempt — fire the truncation on every attempt so the
# resume leg always finds a damaged shard file to demote.
FAULTS = "kill-worker@shard=1,truncate-shard@shard=3&attempt=*"
# The in-process leg: no worker to kill, only the persisted shard to damage.
INPROCESS_FAULTS = "truncate-shard@shard=3&attempt=*"


def _identical(a, b) -> bool:
    """Dataset identity on the stored schema: app, days, every column.

    Exactly as strict as comparing serialized bytes (every format is a
    pure function of these fields), without serializing anything.
    """
    import numpy as np

    from repro.crawler.storage import COLUMN_LAYOUT

    return (a.app_name, a.days) == (b.app_name, b.days) and all(
        np.array_equal(getattr(a.columns, field), getattr(b.columns, field))
        for field, _dtype in COLUMN_LAYOUT
    )


def _generate(run_dir=None, resume=False, faults="", workers=WORKERS):
    """One trace generation pass; returns (dataset, metrics snapshot)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import generate_trace
    from repro.workload.trace import TraceConfig

    os.environ["REPRO_TRACE_FAULTS"] = faults
    registry = MetricsRegistry()
    config = TraceConfig.periscope(
        scale=SCALE, seed=SEED, workers=workers, shards=SHARDS
    )
    trace = generate_trace(
        config, registry=registry, run_dir=run_dir, resume=resume
    )
    counters = registry.snapshot()["counters"]
    return trace.dataset, {
        name: metric["value"] for name, metric in counters.items()
    }


def main() -> int:
    # The pool must actually run: without this the toy scale would take
    # the in-process fallback and no worker could be killed.
    os.environ["REPRO_TRACE_MIN_PER_WORKER"] = "0"

    print(f"chaos-pipeline: scale {SCALE:g}, seed {SEED}, "
          f"{WORKERS} workers / {SHARDS} shards")

    reference, _ = _generate()
    print(f"  clean run: {len(reference)} broadcasts")

    with tempfile.TemporaryDirectory(prefix="chaos-trace-run-") as tmp:
        run_dir = Path(tmp) / "run"

        faulted, counters = _generate(run_dir=run_dir, faults=FAULTS)
        retries = counters.get("trace.shard_retries", 0)
        failures = counters.get("trace.worker_failures", 0)
        if not _identical(faulted, reference):
            print("FAIL: faulted run diverged from clean run", file=sys.stderr)
            return 1
        if not failures:
            print("FAIL: kill-worker fault never fired "
                  "(worker_failures == 0)", file=sys.stderr)
            return 1
        print(f"  faulted run ({FAULTS}): identical "
              f"({failures:g} worker failures, {retries:g} retries)")

        if not _check_resume(run_dir, reference, WORKERS):
            return 1

    with tempfile.TemporaryDirectory(prefix="chaos-trace-inprocess-") as tmp:
        run_dir = Path(tmp) / "run"
        faulted, _ = _generate(run_dir=run_dir, faults=INPROCESS_FAULTS, workers=1)
        if not _identical(faulted, reference):
            print("FAIL: in-process faulted run diverged from clean run",
                  file=sys.stderr)
            return 1
        print(f"  in-process faulted run ({INPROCESS_FAULTS}): identical")
        if not _check_resume(run_dir, reference, 1):
            return 1

    print("chaos-pipeline ok: recovery and resume are identical")
    return 0


def _check_resume(run_dir: Path, reference, workers: int) -> bool:
    """Resume a faulted run dir; it must match and skip every healthy shard."""
    resumed, counters = _generate(run_dir=run_dir, resume=True, workers=workers)
    resumed_shards = counters.get("trace.shards_resumed", 0)
    if not _identical(resumed, reference):
        print(f"FAIL: resumed run (workers={workers}) diverged from clean run",
              file=sys.stderr)
        return False
    # The truncated shard must have been demoted on open; every other
    # shard must have been adopted instead of regenerated.
    if resumed_shards != SHARDS - 1:
        print(f"FAIL: expected {SHARDS - 1} shards resumed (workers={workers}, "
              f"one demoted as truncated), got {resumed_shards:g}",
              file=sys.stderr)
        return False
    print(f"  resumed run (workers={workers}): identical, "
          f"{resumed_shards:g}/{SHARDS} shards skipped")
    return True


if __name__ == "__main__":
    sys.exit(main())

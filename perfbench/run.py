"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace --seed 2016 --seconds 36 --trace 0

``--trace 0`` runs as many untraced passes of the workload as fit in
``--seconds`` at the workload's nominal pass time (at least one) and
reports the end-to-end metrics as medians over the passes.  ``--trace 1``
runs one untraced pass, then one pass with every layer boundary wrapped,
and reports the per-layer metrics and the tracing overhead; its spans are
written to ``perfbench/out/``.  The last line of standard output is the
JSON result.

The benchmark imports the program from ``src/`` beside it and writes only
under ``perfbench/out/``.  It exits 2 when ``src/repro`` is missing.
"""

import time

STARTED = time.perf_counter()  # repro: allow[wall-clock] set-up time runs from process start, before any import

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Set-up runs in fresh interpreters after the timed passes; with the
#: run's own set-up they give the median ``setup_s``.
SETUP_PROBES = 8


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trace", "scorecard", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--toy"] if args.toy else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def _untraced(args, workload, setup_s: float):
    from perfbench.harness import Check, now, peak_rss_mb

    # The pass count follows from --seconds and the workload's nominal
    # pass time, not from how fast this host happens to be, so that every
    # run of a workload reports a median over the same number of passes.
    count = max(1, int(args.seconds // workload.pass_seconds))
    passes = []
    started = now()
    while len(passes) < count and (not passes or now() - started < 2 * args.seconds):
        passes.append(workload.run_pass())
    peak = peak_rss_mb()
    setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_PROBES)]

    checks = [check for p in passes for check in p.checks]
    checks.append(Check("same outputs on every pass", len({p.digest for p in passes}) == 1))
    for index, p in enumerate(passes):
        steps = "  ".join(f"{k} {v:.4f}" for k, v in p.seconds.items())
        print(f"pass {index}: {steps}  digest {p.digest[:16]}  {json.dumps(p.notes)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "run_s": (statistics.median(p.run_s for p in passes), "s"),
        "throughput_per_s": (statistics.median(p.items for p in passes), "1/s"),
        "checks_passed": (statistics.median(p.checks_passed for p in passes), "count"),
    }
    return checks, metrics


def _traced(args, workload):
    from perfbench.boundaries import install
    from perfbench.harness import Check
    from perfbench.layers import layer_metrics
    from perfbench.spans import SpanRecorder, render_tree, summarize

    plain = workload.run_pass()
    recorder = SpanRecorder()
    recorder.run_id = 1
    patches = install(recorder)
    try:
        traced = workload.run_pass(recorder)
    finally:
        patches.restore()
    stats = summarize(recorder)
    metrics = layer_metrics(stats, workload.layer_values(traced), plain, traced)

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.json"
    spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **recorder.to_json()}))
    print("\n".join(render_tree(stats)))
    print(f"tracing overhead: {metrics['tracing.overhead_s'][0]:+.4f} s "
          f"({metrics['tracing.overhead_ratio'][0]:+.2%}) over an untraced pass of {plain.run_s:.4f} s")
    print(f"{len(recorder)} spans written to {spans_path.relative_to(ROOT)}")
    same = Check("traced pass matches the untraced one", plain.digest == traced.digest)
    return plain.checks + traced.checks + [same], metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found beside the benchmark; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # The program sees only the configs built from the seed.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        from perfbench.harness import now, result_line
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, scratch, toy=args.toy)
        setup_s = now() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checks, metrics = (_traced(args, workload) if args.trace
                           else _untraced(args, workload, setup_s))
        for check in checks:
            if not check.passed:
                print(f"check failed: {check.name}")
        failed = sum(not c.passed for c in checks)
        print(result_line(len(checks), failed, metrics))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

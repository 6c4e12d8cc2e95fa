#!/usr/bin/env bash
# Repo health check: byte-compile everything, run the determinism linter,
# run the tier-1 suite (tier2 chaos sweeps excluded — run them with
# `pytest -m tier2`), then smoke the observability overhead budget.
# Usage:
#   scripts/check.sh [extra pytest args...]   # tier-1 gate
#   scripts/check.sh lint                     # determinism linter only —
#                                             # per-file rules + whole-program
#                                             # passes (import graph, layering,
#                                             # RNG dataflow, export drift);
#                                             # extra args pass through, e.g.
#                                             # `lint --json`, `lint --changed`
#                                             # (rule catalog: LINTING.md)
#   scripts/check.sh bench                    # smoke the trace-scale
#                                             # benchmark and validate the
#                                             # emitted BENCH_trace.json
#   scripts/check.sh chaos-pipeline           # fault-injected trace runs:
#                                             # kill a worker + truncate a
#                                             # shard (pooled), truncate a
#                                             # shard (in-process); require
#                                             # byte-identical recovery and
#                                             # resume
#   scripts/check.sh cache                    # dataset-cache smoke: a cold
#                                             # `repro trace --cache-dir`
#                                             # stores one .cols entry, a
#                                             # second run hits it with the
#                                             # same totals (also run by
#                                             # the default gate)
#   scripts/check.sh serve                    # closed-loop serving smoke:
#                                             # toy serve-bench must shed
#                                             # nothing and error nothing at
#                                             # baseline, shed under a flash
#                                             # crowd, and be seed-stable
#   scripts/check.sh scorecard                # `repro --validate` must print
#                                             # exactly the committed
#                                             # scorecard.txt (every claim
#                                             # and measured value)
#   scripts/check.sh engine                   # the fig12 delay campaign on
#                                             # the event engine (the oracle
#                                             # in tests/delay_oracles.py;
#                                             # 60 broadcasts, seed 2016)
#                                             # must process exactly 490,883
#                                             # events in under 300,000 heap
#                                             # pushes (exact counts, not
#                                             # timings), and the library's
#                                             # campaign must equal its
#                                             # traces byte for byte
set -euo pipefail

cd "$(dirname "$0")/.."

# Cold then warm `repro trace` on one cache dir: the first run must store
# the entry, the second must hit it with the same totals, and the dir
# must hold exactly one `trace-*.cols` entry and no gzip file.
cache_smoke() {
    local tmp first second
    tmp="$(mktemp -d /tmp/repro-cache-smoke.XXXXXX)"
    first="$(PYTHONPATH=src python -m repro trace --scale 0.002 --cache-dir "$tmp")"
    second="$(PYTHONPATH=src python -m repro trace --scale 0.002 --cache-dir "$tmp")"
    local entries=("$tmp"/trace-*.cols) gz=("$tmp"/*.gz)
    local problem=""
    if ! grep -q "^dataset cache   miss -> stored" <<<"$first"; then
        problem="first run did not store a cache entry"
    elif ! grep -q "^dataset cache   hit" <<<"$second"; then
        problem="second run did not hit the cache"
    elif [[ "$(grep -E '^(broadcasts|total views) ' <<<"$first")" != \
            "$(grep -E '^(broadcasts|total views) ' <<<"$second")" ]]; then
        problem="cache hit changed the broadcast or view totals"
    elif [[ ${#entries[@]} -ne 1 || ! -f "${entries[0]}" ]]; then
        problem="expected exactly one trace-*.cols entry, found: $(ls "$tmp")"
    elif [[ -e "${gz[0]}" ]]; then
        problem="gzip file left in the cache dir: $(ls "$tmp")"
    fi
    rm -rf "$tmp"
    if [[ -n "$problem" ]]; then
        printf 'cache smoke FAILED: %s\n--- first run\n%s\n--- second run\n%s\n' \
            "$problem" "$first" "$second" >&2
        return 1
    fi
    echo "cache ok: miss -> stored, then hit; one .cols entry, no gzip"
}

if [[ "${1:-}" == "cache" ]]; then
    cache_smoke
    exit 0
fi

if [[ "${1:-}" == "lint" ]]; then
    shift
    PYTHONPATH=src python -m repro lint src benchmarks "$@"
    exit 0
fi

if [[ "${1:-}" == "bench" ]]; then
    out="$(mktemp /tmp/bench_trace.XXXXXX.json)"
    trap 'rm -f "$out"' EXIT
    BENCH_TRACE_SMOKE=1 BENCH_TRACE_OUT="$out" PYTHONPATH=src \
        python -m pytest -x -q benchmarks/test_trace_scale.py
    PYTHONPATH=src python - "$out" BENCH_trace.json <<'EOF'
import json, os, sys
from benchmarks.test_trace_scale import validate_bench_payload

def check(path, payload):
    validate_bench_payload(payload)
    # Parallel generation must be >= serial at EVERY scale on a
    # multi-core runner: at toy scales the serial fallback keeps the
    # "parallel" mode in-process (parity by construction), above it the
    # pool must genuinely win.  A 10% + 0.1s band absorbs timer noise on
    # the sub-second rows.  On a single core "parallel" measures pure
    # scheduling overhead, so the gate logs a skip.
    for row in payload["results"]:
        if payload["cpu_count"] < 2:
            print(f"{path}: speed gate skipped at scale {row['scale']:g} (single core)")
            continue
        budget = row["serial_seconds"] * 1.10 + 0.1
        if row["parallel_seconds"] > budget:
            raise SystemExit(
                f"{path}: parallel slower than serial at scale {row['scale']:g}: "
                f"{row['parallel_seconds']}s > {row['serial_seconds']}s "
                f"(workers used: {row['parallel_workers_used']}) "
                f"on {payload['cpu_count']} cores"
            )
    # The streamed merge's reason to exist: its child-process peak RSS
    # must stay within the largest shard's footprint (x1.5 working
    # headroom) plus a fixed slack for the interpreter + numpy baseline.
    # Rows measured where peak RSS is unreadable (no VmHWM, no
    # resource module) log a skip.
    for row in payload["results"]:
        rss = row["peak_rss_mb"]
        if rss is None:
            print(f"{path}: RSS gate skipped at scale {row['scale']:g} "
                  "(resource unavailable)")
            continue
        budget = row["largest_shard_mb"] * 1.5 + 256.0
        if rss > budget:
            raise SystemExit(
                f"{path}: streamed merge peak RSS {rss} MB exceeds "
                f"{budget:.1f} MB (largest shard {row['largest_shard_mb']} MB "
                f"x1.5 + 256 MB slack) at scale {row['scale']:g}"
            )
    row = payload["results"][0]
    print(f"{path} ok: scale {row['scale']:g}, "
          f"serial {row['serial_broadcasts_per_sec']}/s, "
          f"parallel {row['parallel_broadcasts_per_sec']}/s "
          f"({payload['cpu_count']} core(s)); streamed merge "
          f"{row['merge_seconds']}s, peak RSS {row['peak_rss_mb']} MB")

check("smoke run", json.load(open(sys.argv[1])))
# Also hold the committed baseline to the same schema + speed gate.
if os.path.exists(sys.argv[2]):
    check(sys.argv[2], json.load(open(sys.argv[2])))
EOF
    exit 0
fi

if [[ "${1:-}" == "chaos-pipeline" ]]; then
    PYTHONPATH=src python scripts/chaos_pipeline.py
    exit 0
fi

if [[ "${1:-}" == "scorecard" ]]; then
    # A failing claim exits 1 but still prints the scorecard; the diff
    # below reports it, so the exit status is not fatal here.
    actual="$(PYTHONPATH=src python -m repro --validate)" || true
    if ! diff -u scorecard.txt <(printf '%s\n' "$actual"); then
        echo "scorecard FAILED: repro --validate differs from scorecard.txt" >&2
        exit 1
    fi
    echo "scorecard ok: repro --validate matches scorecard.txt"
    exit 0
fi

if [[ "${1:-}" == "engine" ]]; then
    # The library computes the campaign without the engine; the engine
    # campaign it replaced is the test oracle, so this gate runs that.
    PYTHONPATH=src:tests python - <<'EOF'
import delay_oracles
from repro.core.pipeline import DelayMeasurementCampaign
from repro.experiments.context import DEFAULT_CAMPAIGN_BROADCASTS, DEFAULT_SEED
from repro.obs.metrics import MetricsRegistry
from repro.simulation.engine import Simulator

registries = []


def observed_simulator(*args, **kwargs):
    # One registry per simulator: the engine's collector publishes the
    # totals of the simulator it is bound to.
    registry = MetricsRegistry()
    registries.append(registry)
    return Simulator(*args, metrics=registry, **kwargs)


delay_oracles.Simulator = observed_simulator
config = dict(n_broadcasts=DEFAULT_CAMPAIGN_BROADCASTS, seed=DEFAULT_SEED)
oracle = delay_oracles.EngineDelayCampaign(**config).run()
snapshots = [registry.snapshot()["counters"] for registry in registries]
events = int(sum(s["engine.events_processed"]["value"] for s in snapshots))
pushes = int(sum(s["engine.heap_pushes"]["value"] for s in snapshots))
assert events == 490_883, f"campaign processed {events} events, expected 490,883"
assert pushes < 300_000, f"campaign made {pushes} heap pushes, expected < 300,000"
library = DelayMeasurementCampaign(**config).run()
assert delay_oracles.trace_bytes(library) == delay_oracles.trace_bytes(oracle), \
    "library campaign traces differ from the engine campaign's"
print(
    f"engine ok: {len(registries)} simulators, {events} events, "
    f"{pushes} heap pushes; library traces equal the engine's"
)
EOF
    exit 0
fi

if [[ "${1:-}" == "serve" ]]; then
    PYTHONPATH=src python - <<'EOF'
from repro.service.loadgen import FlashCrowdConfig, LoadGenConfig, run_serve_bench

toy = LoadGenConfig(n_clients=8, duration_s=20.0)
baseline = run_serve_bench(seed=2016, config=toy)
assert baseline.requests > 0, "baseline drove no requests"
assert baseline.shed == 0, f"baseline shed {baseline.shed} requests"
assert baseline.unavailable == 0, f"baseline saw {baseline.unavailable} 503s"
assert baseline.errors == 0, f"baseline saw {baseline.errors} unshed errors"
assert run_serve_bench(seed=2016, config=toy).to_dict() == baseline.to_dict(), \
    "serve-bench not seed-stable"

flash = LoadGenConfig(
    n_clients=8, duration_s=25.0,
    flash_crowd=FlashCrowdConfig(
        start_s=8.0, duration_s=10.0, extra_clients=100, think_time_s=0.2
    ),
)
crowd = run_serve_bench(seed=2016, config=flash)
assert crowd.shed > 0, "flash crowd did not engage admission control"
assert crowd.errors == 0, f"flash crowd saw {crowd.errors} unshed errors"
print(
    f"serve ok: baseline {baseline.requests} requests clean "
    f"(p99 {baseline.latency_p99_s * 1e3:.0f} ms), "
    f"flash crowd shed {crowd.shed}/{crowd.requests}"
)
EOF
    exit 0
fi

python -m compileall -q src
PYTHONPATH=src python -m repro lint src benchmarks
PYTHONPATH=src python -m pytest -x -q -m "not tier2" "$@"
cache_smoke
OBS_OVERHEAD_SMOKE=1 PYTHONPATH=src python -m pytest -x -q \
    benchmarks/test_obs_overhead.py::test_null_registry_overhead_within_budget

"""Service-mode benchmark: sustained mixed load against the daemon.

Reuses the :mod:`repro.serve.loadtest` driver: concurrent clients firing
thousands of mixed cold/warm requests (plus a sprinkle of injected
worker deaths) at an embedded daemon with a crash-isolated pool.  The
assertions are the health invariants — every healthy request succeeds,
the daemon survives — and the latency percentiles (cold vs warm p50 /
p99), per-kernel percentiles, cache hit rates, and error counts
land in ``BENCH_serve.json`` when ``REPRO_BENCH_REPORTS`` is set.

That JSON doubles as the perf-drift baseline: the same run refreshes
``benchmarks/baselines/BENCH_serve.json`` (see ``baselines/README.md``),
which ``python -m repro.telemetry check`` resolves per-kernel against a
live daemon's ``metrics`` snapshot.

Scale with ``REPRO_SERVE_BENCH_REQUESTS`` (default 400; CI uses a
smaller count on one-core runners, nightly runs can go to thousands).
"""

import json
import os

from repro.serve.loadtest import run_loadtest

BASELINES_DIR = os.path.join(os.path.dirname(__file__), "baselines")


def _dump(report) -> None:
    target = os.environ.get("REPRO_BENCH_REPORTS", "")
    if not target:
        return
    payload = json.dumps(report, indent=1, sort_keys=True)
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, "BENCH_serve.json"), "w") as f:
        f.write(payload)
    # Refresh the committed drift baseline alongside the report — the
    # convention documented in benchmarks/baselines/README.md.
    os.makedirs(BASELINES_DIR, exist_ok=True)
    with open(os.path.join(BASELINES_DIR, "BENCH_serve.json"), "w") as f:
        f.write(payload)


def test_serve_mixed_load_bench():
    requests = int(os.environ.get("REPRO_SERVE_BENCH_REQUESTS", "400"))
    report = run_loadtest(
        requests=requests,
        threads=4,
        workers=2,
        cold_every=10,
        faults=2,
        deadline_faults=1,
    )
    _dump(report)

    assert report["passed"], report["failures"]
    healthy = report["healthy"]
    assert healthy["ok"] == healthy["total"], "every healthy request succeeds"
    assert healthy["total"] == requests

    warm = report["latency"].get("warm")
    cold = report["latency"].get("cold")
    assert warm and cold
    assert warm["count"] + cold["count"] == requests
    for series in (warm, cold):
        assert series["p50"] is not None and series["p50"] > 0
        assert series["p99"] is not None and series["p99"] >= series["p50"]
    # Warm requests skip compilation: the medians must reflect that.
    assert warm["p50"] <= cold["p50"], (warm, cold)

    # Telemetry baseline fields (ISSUE 7): per-kernel percentiles for
    # the drift detector, cache hit rates, and error tallies.
    kernels = report["kernels"]
    assert kernels, "warm kernels must yield per-kernel percentile series"
    for name, series in kernels.items():
        assert series["count"] >= 2, (name, series)
        assert 0 < series["p50"] <= series["p95"] <= series["p99"], (name, series)
    cache = report["cache"]
    assert cache["artifact_hits"] > 0, cache
    assert 0 < cache["artifact_hit_rate"] <= 1.0, cache
    assert healthy["errors"] == 0, healthy

    # The injected faults really happened and were contained.
    assert "E201" in report["faults"]["codes"]
    pool = report["pool"]
    assert pool is not None and pool["deaths"] >= 2
    assert pool["alive"] == 2, "the pool healed to full strength"

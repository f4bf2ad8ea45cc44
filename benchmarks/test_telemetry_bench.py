"""Telemetry overhead benchmark (ISSUE 7 acceptance criterion).

Drives the warm (artifact-LRU-hit) gemm serve path through an in-process
:class:`~repro.serve.worker.WorkerRuntime` — the exact code path a pool
worker runs per request — followed by the daemon's derivation of the
request's events from the response, with the telemetry sinks installed
and uninstalled, interleaved so thermal / scheduler drift hits both
modes equally.  A warm request with telemetry on performs one (empty)
ring drain in the worker and two ring publishes (``cache:artifacts`` +
``kernel``) in the daemon; the budget is **<3%** of the
request wall time.

The comparison uses the best (minimum) batch time per mode, the
standard microbenchmark estimator for "cost absent noise", and the
threshold leaves ~30x headroom over the measured overhead (~0.1%) so
the assertion is robust on loaded CI runners.

When ``REPRO_BENCH_REPORTS`` names a directory the measured overhead
lands in ``BENCH_telemetry.json`` there.
"""

import json
import os
import time

from repro.serve import protocol
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.worker import WorkerRuntime
from repro.telemetry.sink import TelemetrySink, install_sink, uninstall_sink
from repro.workloads.polybench.linalg_blas import _gemm_data, _gemm_sdfg

#: requests per timed batch / timed batches per mode
BATCH = int(os.environ.get("REPRO_TELEMETRY_BENCH_BATCH", "12"))
TRIALS = int(os.environ.get("REPRO_TELEMETRY_BENCH_TRIALS", "7"))
OVERHEAD_BUDGET = 0.03


def _gemm_job():
    sizes = {"NI": 24, "NJ": 24, "NK": 24}
    sdfg = _gemm_sdfg()
    return {
        "op": "execute",
        "sdfg": sdfg.to_json(),
        "tenant": "bench",
        "arrays": protocol.encode_arrays(_gemm_data(sizes)),
        "symbols": sizes,
    }


def _time_batch(runtime, server, job):
    start = time.perf_counter()
    for _ in range(BATCH):
        response = runtime.handle(dict(job))
        assert response.get("status") == "ok", response
        assert response.get("warm") is True, "batch must stay on the warm path"
        server._publish_job_events(response, job["tenant"])
    return time.perf_counter() - start


def test_telemetry_overhead_under_budget():
    job = _gemm_job()
    runtime = WorkerRuntime()
    server = SDFGServer(ServeConfig(workers=1, telemetry=False))  # never started

    # install_sink(None) pins telemetry *off* even when REPRO_TELEMETRY
    # is set in the environment; uninstall_sink() at the end restores
    # env-driven resolution for whatever runs next.
    previous = install_sink(None)
    sink = TelemetrySink(capacity=4096)
    try:
        # Warm the artifact LRU (and both code paths) before timing.
        assert runtime.handle(dict(job)).get("status") == "ok"
        install_sink(sink)
        assert runtime.handle(dict(job)).get("warm") is True

        off, on = [], []
        for _ in range(TRIALS):
            install_sink(None)
            server.sink = None
            off.append(_time_batch(runtime, server, job))
            install_sink(sink)
            server.sink = sink
            on.append(_time_batch(runtime, server, job))
    finally:
        install_sink(previous)
        if previous is None:
            uninstall_sink()

    best_off, best_on = min(off), min(on)
    overhead = best_on / best_off - 1.0
    report = {
        "batch": BATCH,
        "trials": TRIALS,
        "per_request_off": best_off / BATCH,
        "per_request_on": best_on / BATCH,
        "overhead_fraction": overhead,
        "events_published": sink.stats()["published"],
    }
    print(f"\ntelemetry overhead on warm gemm: {overhead * 100:.3f}% "
          f"({report['per_request_on'] * 1e3:.3f}ms vs "
          f"{report['per_request_off'] * 1e3:.3f}ms per request)")

    target = os.environ.get("REPRO_BENCH_REPORTS", "")
    if target:
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "BENCH_telemetry.json"), "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)

    assert sink.stats()["published"] >= TRIALS * BATCH, (
        "telemetry-on batches must actually publish into the sink"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"telemetry overhead {overhead * 100:.2f}% exceeds the "
        f"{OVERHEAD_BUDGET * 100:.0f}% budget: {report}"
    )

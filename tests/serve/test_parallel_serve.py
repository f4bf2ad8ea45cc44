"""Serve-layer integration of the parallel execution tier: request
passthrough, per-artifact pool ownership, LRU-eviction teardown, and —
the CI gate — no worker-pool leak across 50 requests."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.parallel import live_pool_count
from repro.serve import protocol
from repro.serve.pool import WorkerPool
from repro.serve.worker import WorkerRuntime
from repro.workloads import kernels


def _matmul_job(n=24, **extra):
    data = kernels.matmul_data(n)
    job = {
        "op": "execute",
        "sdfg": kernels.matmul_sdfg().to_json(),
        "arrays": protocol.encode_arrays(data),
        "symbols": {"M": n, "K": n, "N": n},
    }
    job.update(extra)
    return job, data


def _pool_threads():
    return {t for t in threading.enumerate() if t.name.startswith("pmap-")}


class TestParallelRequests:
    def test_parallel_request_is_correct_and_warm_cached(self):
        rt = WorkerRuntime()
        job, data = _matmul_job(parallel=3)
        ref = kernels.matmul_reference(data)
        r1 = rt.handle(dict(job))
        assert r1["status"] == "ok", r1
        out = protocol.decode_arrays(r1["arrays"])
        np.testing.assert_allclose(out["C"], ref, rtol=1e-8, atol=1e-10)
        r2 = rt.handle(dict(job))
        assert r2["warm"] is True

    def test_parallel_and_serial_artifacts_have_distinct_keys(self):
        rt = WorkerRuntime()
        job, _ = _matmul_job()
        rt.handle(dict(job))
        rt.handle(dict(job, parallel=2))
        assert len(rt._programs) == 2

    def test_ping_reports_pool_stats(self):
        rt = WorkerRuntime()
        job, _ = _matmul_job(parallel=2)
        rt.handle(dict(job))
        ping = rt.handle({"op": "ping"})
        assert ping["pools"] >= 1
        assert ping["rss_kb"] is None or ping["rss_kb"] > 0

    def test_fork_spec_is_a_request_error(self):
        """The removed fork tier is the caller's mistake (E202, naming
        cpp), and the worker goes on serving."""
        job, _ = _matmul_job(parallel="fork:2")
        with WorkerPool(size=1) as pool:
            resp = pool.submit(job)
            ping = pool.submit({"op": "ping"})
        assert resp["status"] == "error" and resp["code"] == "E202", resp
        assert "cpp" in resp["message"]
        assert ping["status"] == "ok" and ping["op"] == "pong"


@pytest.mark.usefixtures("no_work_floor")
class TestPoolLeakGate:
    def test_no_pool_leak_across_50_requests(self):
        """The CI gate: 50 warm parallel executes reuse ONE pool; the
        live-pool census must not grow with request count."""
        rt = WorkerRuntime()
        job, data = _matmul_job(parallel=3)
        ref = kernels.matmul_reference(data)
        rt.handle(dict(job))
        pools_after_first = live_pool_count()
        for _ in range(50):
            r = rt.handle(dict(job))
            assert r["status"] == "ok"
        assert live_pool_count() == pools_after_first
        out = protocol.decode_arrays(r["arrays"])
        np.testing.assert_allclose(out["C"], ref, rtol=1e-8, atol=1e-10)

    def test_lru_eviction_closes_pools(self):
        from repro.serve import worker as worker_mod

        rt = WorkerRuntime()
        job, _ = _matmul_job(parallel=2)
        before = live_pool_count()
        # Flood the LRU with per-tenant variants of the same program.
        for i in range(worker_mod.MAX_PROGRAMS + 8):
            rt.handle(dict(job, tenant=f"t{i}"))
        assert len(rt._programs) == worker_mod.MAX_PROGRAMS
        assert live_pool_count() - before <= worker_mod.MAX_PROGRAMS

    def test_no_pool_threads_leak(self):
        """Over 50 served requests (LRU evictions included) and a final
        close of every artifact, no pool thread outlives its pool."""
        before = _pool_threads()
        baseline = live_pool_count()
        rt = WorkerRuntime()
        job, _ = _matmul_job(parallel=2)
        for i in range(50):
            r = rt.handle(dict(job, tenant=f"t{i}"))
            assert r["status"] == "ok"
        assert _pool_threads() - before
        for compiled in rt._programs.values():
            compiled.close()
        assert live_pool_count() == baseline
        deadline = time.monotonic() + 5.0
        while _pool_threads() - before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _pool_threads() - before

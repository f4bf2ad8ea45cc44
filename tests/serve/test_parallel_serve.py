"""Serve-layer integration of the parallel execution tier: request
passthrough, per-artifact pool ownership, LRU-eviction teardown, and —
the CI gate — no worker-pool leak across 50 requests."""

import time

import numpy as np
import pytest

from repro.runtime.parallel import live_pool_count, live_worker_pids
from repro.runtime.watchdog import RetryPolicy
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


def _spmv_job(**extra):
    """A fork-tier request: spmv's loop body takes the fork tier."""
    data, csr = kernels.spmv_data(32, 4)
    job = {
        "op": "execute",
        "sdfg": kernels.spmv_sdfg().to_json(),
        "arrays": protocol.encode_arrays(data),
        "symbols": {"H": 32, "W": 32, "nnz": csr.nnz},
        "parallel": "fork:2",
    }
    job.update(extra)
    return job


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

    def test_explicit_off_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "4")
        rt = WorkerRuntime()
        job, _ = _matmul_job(parallel="off")
        r = rt.handle(dict(job))
        assert r["status"] == "ok"
        compiled = next(iter(rt._programs.values()))
        assert compiled._pool is None

    def test_ping_reports_pool_stats(self):
        rt = WorkerRuntime()
        job, _ = _matmul_job(parallel=2)
        rt.handle(dict(job))
        ping = rt.handle({"op": "ping"})
        assert ping["pools"] >= 1
        assert "pool_workers" in ping
        assert ping["rss_kb"] is None or ping["rss_kb"] > 0


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

    def test_no_fork_worker_processes_leak(self):
        """Fork-tier requests (spmv) must not leave orphan children
        after their artifacts are torn down."""
        rt = WorkerRuntime()
        job = _spmv_job()
        for _ in range(5):
            r = rt.handle(dict(job))
            assert r["status"] == "ok"
        pids_live = set(live_worker_pids())
        assert len(pids_live) == 2
        # Tear every artifact down the way recycling would.
        for compiled in rt._programs.values():
            compiled.close()
        assert live_worker_pids() == []
        import os

        for pid in pids_live:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_worker_crash_after_fork_request_is_a_prompt_death(
            self, monkeypatch, tmp_path):
        """A serve worker that dies while it owns fork workers is
        reported as a death at once, not as a timeout at the deadline:
        its fork workers exit with it and release its response pipe."""
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        with WorkerPool(size=1, fault_injection=True,
                        retry=RetryPolicy(retries=0)) as pool:
            ok = pool.submit(_spmv_job())
            assert ok["status"] == "ok", ok
            assert pool.submit({"op": "ping"})["pool_workers"] == 2
            t0 = time.monotonic()
            resp = pool.submit(_spmv_job(inject_fault="segv"), timeout=60.0)
            elapsed = time.monotonic() - t0
        assert resp["status"] == "error"
        assert resp["code"] == "E201", resp
        assert elapsed < 10.0

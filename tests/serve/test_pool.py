"""Worker-pool supervision: warm reuse, recycling, crash replay."""

import os

import numpy as np
import pytest

from repro.serve.pool import WorkerPool
from repro.serve import protocol


def scale_job(mult=2.0, n=8, tenant="t", name="pool_scale", **extra):
    from repro.serve.loadtest import scale_sdfg

    job = {
        "op": "execute",
        "tenant": tenant,
        "backend": "python",
        "sdfg": scale_sdfg(mult, name=name).to_json(),
        "arrays": protocol.encode_arrays(
            {"A": np.arange(n, dtype=np.float64)}
        ),
        "symbols": {"N": n},
    }
    job.update(extra)
    return job


@pytest.fixture
def crash_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    return tmp_path / "crashes"


def test_pool_serves_and_reuses_warm_workers():
    with WorkerPool(size=1) as pool:
        first = pool.submit(scale_job())
        assert first["status"] == "ok", first
        assert first["warm"] is False
        out = protocol.decode_arrays(first["arrays"])
        np.testing.assert_allclose(out["A"], np.arange(8) * 2.0)

        second = pool.submit(scale_job())
        assert second["status"] == "ok"
        assert second["warm"] is True, "same program on the same worker is warm"
        assert second["served"] == 2


def test_large_response_header_is_parsed_once(monkeypatch):
    """A 1 MB response arrives over many pipe reads; the supervisor
    parses its header once and reads the trailer into one buffer."""
    n = 1 << 17
    parsed = []
    read_header = protocol._read_header

    def counting(line, limit):
        parsed.append(len(line))
        return read_header(line, limit)

    with WorkerPool(size=1) as pool:
        monkeypatch.setattr(protocol, "_read_header", counting)
        resp = pool.submit(scale_job(n=n))
    assert resp["status"] == "ok", resp
    assert len(parsed) == 1
    np.testing.assert_allclose(protocol.decode_arrays(resp["arrays"])["A"],
                               np.arange(n) * 2.0)


def test_recycle_after_request_count():
    with WorkerPool(size=1, recycle_after=3) as pool:
        for _ in range(3):
            assert pool.submit(scale_job())["status"] == "ok"
        assert pool.stats()["recycled"] == 1, "worker retired after 3 requests"
        # The replacement is cold but must serve correctly.
        resp = pool.submit(scale_job())
        assert resp["status"] == "ok"
        assert resp["warm"] is False
        assert resp["served"] == 1, "a fresh worker took over"


def test_worker_death_is_replayed_then_surfaced(crash_env):
    with WorkerPool(size=1, fault_injection=True) as pool:
        resp = pool.submit(scale_job(inject_fault="segv", deadline=10.0))
        assert resp["status"] == "error"
        assert resp["code"] == "E201"
        assert resp["attempts"] == 2, "one replay before giving up"
        assert resp["retryable"] is True
        assert resp["returncode"] is not None and resp["returncode"] < 0
        stats = pool.stats()
        assert stats["deaths"] == 2 and stats["replays"] == 1
        assert stats["alive"] == 1, "the pool replaced the dead worker"

        # The pool still serves healthy requests afterwards.
        assert pool.submit(scale_job())["status"] == "ok"


def test_worker_death_writes_repro_bundle(crash_env):
    with WorkerPool(size=1, fault_injection=True) as pool:
        resp = pool.submit(scale_job(tenant="mallory", inject_fault="segv",
                                     deadline=10.0))
    bundle = resp["bundle"]
    assert bundle and os.path.isdir(bundle)
    assert os.path.realpath(bundle).startswith(os.path.realpath(str(crash_env)))
    assert "serve_mallory" in os.path.basename(bundle)
    import json

    with open(os.path.join(bundle, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["tenant"] == "mallory"
    assert manifest["arrays"]["A"]["shape"] == [8]
    assert "data" not in str(manifest), "bundles carry no array payloads"
    assert os.path.exists(os.path.join(bundle, "sdfg.json"))


def test_hang_hits_backstop_and_worker_is_killed(crash_env):
    with WorkerPool(size=1, fault_injection=True) as pool:
        resp = pool.submit(
            scale_job(inject_fault="hang", hang_seconds=60.0),
            timeout=1.0,
        )
        assert resp["status"] == "error"
        assert resp["code"] == "R805"
        stats = pool.stats()
        assert stats["timeouts"] == 1
        assert stats["alive"] == 1, "hung worker replaced"
        assert pool.submit(scale_job())["status"] == "ok"


def test_fault_injection_refused_unless_enabled(crash_env):
    with WorkerPool(size=1, fault_injection=False) as pool:
        resp = pool.submit(scale_job(inject_fault="segv"))
        assert resp["status"] == "error"
        assert resp["code"] == "E202", "injection must be explicitly armed"
        assert pool.stats()["deaths"] == 0


def test_execute_by_unknown_key_yields_e203():
    with WorkerPool(size=1) as pool:
        job = scale_job()
        del job["sdfg"]
        job["program"] = "0" * 64
        resp = pool.submit(job)
        assert resp["status"] == "error"
        assert resp["code"] == "E203"
        assert resp["program"] == "0" * 64


def test_malformed_sdfg_is_a_request_error_not_a_death():
    with WorkerPool(size=1) as pool:
        job = scale_job()
        job["sdfg"] = {"garbage": True}
        resp = pool.submit(job)
        assert resp["status"] == "error"
        assert resp["code"] in ("E202", "E204")
        assert pool.stats()["deaths"] == 0, "bad input must not kill the worker"
        assert pool.submit(scale_job())["status"] == "ok"


def test_unexpected_dispatch_error_does_not_leak_the_worker(monkeypatch):
    """Regression: submit() only caught WorkerDeath/WorkerTimeout, so any
    other exception mid-request (e.g. a NaN deadline reaching select())
    left the checked-out worker handle neither retired nor checked in —
    each such request permanently drained one worker from the pool."""
    from repro.serve.pool import WorkerHandle

    with WorkerPool(size=1) as pool:
        original = WorkerHandle.request

        def boom(self, job, timeout):
            raise RuntimeError("unexpected dispatch bug")

        monkeypatch.setattr(WorkerHandle, "request", boom)
        with pytest.raises(RuntimeError):
            pool.submit(scale_job())
        monkeypatch.setattr(WorkerHandle, "request", original)

        # The handle was retired and replaced — not leaked: the pool
        # still owns a live worker and serves the next request.
        assert pool.stats()["in_flight"] == 0
        assert pool.submit(scale_job())["status"] == "ok"


def test_oversized_response_yields_error_not_worker_death(monkeypatch):
    """Regression: a response exceeding MAX_MESSAGE_BYTES raised out of
    the worker main loop, killing the worker; the supervisor then
    replayed the identical request into an identical death and the
    client saw a misleading retryable E201."""
    import io
    import json

    from repro.serve import worker as worker_mod

    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 2048)
    out = io.BytesIO()
    job = {"op": "execute", "id": 7}
    worker_mod.send_response(out, job, protocol.ok_response(payload="x" * 8192))
    lines = [line for line in out.getvalue().decode().splitlines() if line]
    assert len(lines) == 1, "exactly one (fallback) response on the stream"
    resp = json.loads(lines[0])
    assert resp["status"] == "error"
    assert resp["code"] == "E204"
    assert resp["id"] == 7, "the reply must still correlate to its request"
    assert "frame limit" in resp["message"]

    # Small responses pass through untouched.
    out = io.BytesIO()
    worker_mod.send_response(out, job, protocol.ok_response(op="execute"))
    assert json.loads(out.getvalue().decode())["status"] == "ok"


def test_close_releases_every_worker_pipe(monkeypatch):
    """Regression: close() left each worker's stdout pipe to the garbage
    collector, one ``ResourceWarning: unclosed file`` per worker."""
    import gc
    import sys
    import warnings

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        pool = WorkerPool(size=2).start()
        assert pool.submit({"op": "ping"})["status"] == "ok"
        pool.close()
        del pool
        gc.collect()
    assert not unraisable, [str(u.exc_value) for u in unraisable]


def test_health_check_replaces_dead_idle_workers():
    with WorkerPool(size=2) as pool:
        victim = pool._workers[0]
        victim.proc.kill()
        victim.proc.wait(timeout=5)
        replaced = pool.health_check()
        assert replaced == 1
        assert pool.stats()["alive"] == 2
        assert pool.submit(scale_job())["status"] == "ok"


def test_two_simultaneous_worker_crashes_get_distinct_bundles(crash_env):
    """Satellite regression: both pool workers die at the same moment;
    each crash gets its own intact repro bundle (pid+seq naming)."""
    import threading

    with WorkerPool(size=2, fault_injection=True) as pool:
        bundles = []
        lock = threading.Lock()
        barrier = threading.Barrier(2)

        def crash(tenant):
            barrier.wait()
            resp = pool.submit(scale_job(tenant=tenant, inject_fault="segv",
                                         deadline=10.0))
            with lock:
                bundles.append((tenant, resp.get("code"), resp.get("bundle")))

        threads = [threading.Thread(target=crash, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)

        assert len(bundles) == 2
        for tenant, code, bundle in bundles:
            assert code == "E201"
            assert bundle and os.path.isdir(bundle), (tenant, bundle)
            assert f"serve_{tenant}" in os.path.basename(bundle)
        paths = {b for _, _, b in bundles}
        assert len(paths) == 2, "simultaneous crashes shared a bundle dir"
        assert pool.stats()["alive"] == 2

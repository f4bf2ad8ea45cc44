"""Graceful drain and the startup integrity sweep, end to end:
in-flight requests finish, new jobs get R809, SIGTERM exits 0, and the
fsck CLI quarantines debris then reports clean."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve.client import ServeClient
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.loadtest import scale_sdfg


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ------------------------------------------------------ embedded drain
def test_drain_finishes_inflight_and_rejects_new_jobs(tmp_path, monkeypatch):
    # Every worker-side request sleeps, so we can reliably catch the
    # daemon with a request in flight.
    monkeypatch.setenv("REPRO_FAULTS", "worker.request:delay@p=1,ms=700")
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    server = SDFGServer(ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        workers=1,
        cache_root=str(tmp_path / "cache"),
        health_interval=600.0,
        drain_grace=10.0,
    )).start()
    sdfg = scale_sdfg(2.0, name="drain_kernel")
    result = {}

    def slow_request():
        with ServeClient(socket_path=server.config.socket_path,
                         tenant="alice") as c:
            a = np.arange(8, dtype=np.float64)
            result["resp"] = c.execute(
                sdfg, arrays={"A": a}, symbols={"N": 8}, strict=False)

    try:
        worker = threading.Thread(target=slow_request, daemon=True)
        worker.start()
        assert _wait_for(lambda: server._inflight_jobs > 0), \
            "the slow request never became in-flight"

        # Connect *before* the drain closes the listener: an existing
        # connection's next job must get a structured R809.
        late = ServeClient(socket_path=server.config.socket_path,
                           tenant="bob")
        # A round trip proves the daemon accepted the connection; one
        # still in the listen backlog is dropped when the listener closes.
        assert late.stats()["draining"] is False
        server.request_shutdown()
        assert _wait_for(server._draining.is_set, timeout=5.0)
        resp = late.execute(sdfg, arrays={"A": np.zeros(8)},
                            symbols={"N": 8}, strict=False)
        late.close()
        assert resp["status"] == "rejected"
        assert resp["code"] == "R809"

        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert result["resp"]["status"] == "ok", \
            f"in-flight request was dropped by the drain: {result['resp']}"

        assert _wait_for(lambda: server.drained_clean is not None,
                         timeout=15.0)
        assert server.drained_clean is True
    finally:
        server.stop()


def test_stats_reports_draining_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    server = SDFGServer(ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        workers=1, health_interval=600.0,
    )).start()
    try:
        with ServeClient(socket_path=server.config.socket_path) as c:
            stats = c.stats()
            assert stats["draining"] is False
            assert stats["chaos"] is None, "no plan installed"
    finally:
        server.stop()


# -------------------------------------------------- SIGTERM, full stack
def test_sigterm_drains_inflight_and_exits_zero(tmp_path):
    sock = str(tmp_path / "serve.sock")
    env = dict(os.environ)
    env["REPRO_FAULTS"] = "worker.request:delay@p=1,ms=700"
    env["REPRO_CRASH_DIR"] = str(tmp_path / "crashes")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--socket", sock,
         "--workers", "1", "--cache-root", str(tmp_path / "cache")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert _wait_for(lambda: os.path.exists(sock), timeout=30.0), \
            "daemon never bound its socket"
        # Make sure it answers before we start timing.
        with ServeClient(socket_path=sock) as probe:
            assert probe.ping()["status"] == "ok"

        sdfg = scale_sdfg(2.0, name="sigterm_kernel")
        result = {}

        def drive():
            with ServeClient(socket_path=sock, tenant="alice") as c:
                a = np.arange(8, dtype=np.float64)
                result["resp"] = c.execute(
                    sdfg, arrays={"A": a}, symbols={"N": 8}, strict=False)

        t = threading.Thread(target=drive, daemon=True)
        t.start()
        time.sleep(0.3)  # the request is now inside its 700ms delay
        proc.send_signal(signal.SIGTERM)

        t.join(timeout=20.0)
        assert not t.is_alive(), "in-flight request never got a response"
        assert result["resp"]["status"] == "ok", \
            f"SIGTERM drain dropped the in-flight request: {result['resp']}"
        rc = proc.wait(timeout=20.0)
        stderr = proc.stderr.read().decode()
        assert rc == 0, f"drain exit was {rc}; stderr:\n{stderr}"
        assert "draining" in stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


# ------------------------------------------------------------ fsck CLI
def test_fsck_cli_quarantines_debris_then_reports_clean(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "good.json").write_text(json.dumps({"key": "good"}))
    (cache / "torn.json").write_text('{"key": "torn", "source": ')
    (cache / "stale.json.tmp.12345").write_text("partial write")
    crashes = tmp_path / "crashes"
    (crashes / "prog_999_000001").mkdir(parents=True)  # no manifest.json

    env = dict(os.environ)
    env["REPRO_CRASH_DIR"] = str(crashes)
    cmd = [sys.executable, "-m", "repro.serve", "--fsck",
           "--cache-root", str(cache)]

    first = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert first.returncode == 3, first.stderr
    report = json.loads(first.stdout)
    assert report["clean"] is False
    assert report["cache"]["quarantined"] == 1
    assert report["cache"]["tmp_removed"] == 1
    assert report["crash"]["quarantined"] == 1

    # The evidence moved, not vanished.
    assert (cache / ".quarantine" / "torn.json").exists()
    assert (crashes / ".quarantine" / "prog_999_000001").exists()
    assert (cache / "good.json").exists(), "sound entries are untouched"
    assert not (cache / "stale.json.tmp.12345").exists()

    second = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert second.returncode == 0, second.stdout
    assert json.loads(second.stdout)["clean"] is True

"""The ``metrics`` endpoint end-to-end: worker telemetry propagated to
the daemon's sink, aggregated, and served over the socket."""

import numpy as np
import pytest

from repro.runtime.watchdog import RetryPolicy
from repro.serve.admission import TenantPolicy
from repro.serve.client import ServeClient
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.loadtest import scale_sdfg
from repro.telemetry.__main__ import fetch_snapshot, render_dashboard
from repro.telemetry.aggregate import merge_cache_counters, merge_tenant_counters


def make_config(tmp_path, **overrides):
    defaults = dict(
        socket_path=str(tmp_path / "serve.sock"),
        workers=1,
        cache_root=str(tmp_path / "cache"),
        default_policy=TenantPolicy(breaker_threshold=2,
                                    breaker_cooldown=0.5),
        retry=RetryPolicy(retries=1, backoff=0.01, jitter=0.0),
        health_interval=600.0,
        telemetry_window=3600.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def server(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    with SDFGServer(make_config(tmp_path)) as srv:
        yield srv


def drive_traffic(server, tenant="alice", n=6):
    sdfg = scale_sdfg(2.0, name="metrics_kernel")
    a = np.arange(8, dtype=np.float64)
    with ServeClient(socket_path=server.config.socket_path,
                     tenant=tenant) as c:
        for _ in range(n):
            out = c.execute(sdfg, arrays={"A": a.copy()}, symbols={"N": 8})
            assert out["status"] == "ok"


def test_metrics_reports_worker_kernels_and_tenants(server):
    drive_traffic(server, tenant="alice", n=6)
    with ServeClient(socket_path=server.config.socket_path) as c:
        response = c.metrics()
    assert response["status"] == "ok" and response["op"] == "metrics"
    snap = response["metrics"]

    # Kernel timings crossed the worker→supervisor boundary: the worker
    # measured them in its own process, the daemon aggregated them.
    kernel = snap["kernels"]["metrics_kernel"]
    assert kernel["count"] == 6
    assert kernel["warm"] == 5 and kernel["cold"] == 1
    assert 0 < kernel["p50"] <= kernel["p95"] <= kernel["p99"]

    tenants = merge_tenant_counters(snap)
    assert tenants["alice"]["requests"] == 6
    assert tenants["alice"]["ok"] == 6
    assert tenants["alice"]["errors"] == 0

    # The worker's artifact LRU hits are visible fleet-wide.
    caches = merge_cache_counters(snap)
    assert caches["artifacts"]["hit"] == 5
    assert caches["artifacts"]["miss"] == 1
    assert caches["artifacts"]["hit_rate"] == pytest.approx(5 / 6)

    assert isinstance(snap["breaker_states"], dict)
    assert snap["totals"]["events"] > 0

    # The daemon's stats() surfaces the sink's health too.
    with ServeClient(socket_path=server.config.socket_path) as c:
        stats = c.stats()
    assert stats["telemetry"]["published"] > 0


def test_unprofiled_requests_ship_no_exemplar(tmp_path, monkeypatch):
    """Every served call runs under a deadline, so it records the
    watchdog's counters; only a profiled artifact's report is an
    exemplar trace."""
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    with SDFGServer(make_config(tmp_path)) as server:
        drive_traffic(server, n=3)
        with ServeClient(socket_path=server.config.socket_path) as c:
            snap = c.metrics()["metrics"]
    assert snap["kernels"]["metrics_kernel"]["count"] == 3
    assert snap["exemplar"] is None


def test_metrics_snapshot_renders_and_fetches(server):
    drive_traffic(server, n=3)
    snap = fetch_snapshot(server.config.socket_path)
    text = render_dashboard(snap)
    assert "metrics_kernel" in text and "alice" in text


def test_breaker_state_appears_in_metrics(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    cfg = make_config(tmp_path, fault_injection=True,
                      retry=RetryPolicy(retries=0, backoff=0.01, jitter=0.0))
    with SDFGServer(cfg) as server:
        sdfg = scale_sdfg(2.0, name="killer")
        a = np.arange(4, dtype=np.float64)
        with ServeClient(socket_path=server.config.socket_path,
                         tenant="mallory") as c:
            for _ in range(2):  # breaker_threshold=2 worker kills
                resp = c.execute(sdfg, arrays={"A": a.copy()},
                                 symbols={"N": 4}, strict=False,
                                 inject_fault="segv")
                assert resp["status"] == "error"
            snap = c.metrics()["metrics"]
        assert snap["breaker_states"].get("mallory") == "open"
        transitions = [
            t for w in snap["windows"] for t in w["breaker_transitions"]
        ]
        assert any(t[1] == "mallory" and t[3] == "open" for t in transitions)
        # Rejected requests while open are charged to the tenant.
        with ServeClient(socket_path=server.config.socket_path,
                         tenant="mallory") as c:
            resp = c.execute(sdfg, arrays={"A": a.copy()}, symbols={"N": 4},
                             strict=False)
            assert resp.get("code") == "R807"
            snap = c.metrics()["metrics"]
        assert merge_tenant_counters(snap)["mallory"]["rejected"] >= 1


def test_metrics_disabled_returns_structured_error(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    with SDFGServer(make_config(tmp_path, telemetry=False)) as server:
        with ServeClient(socket_path=server.config.socket_path) as c:
            response = c.metrics()
            assert response["status"] == "error"
            assert response["code"] == "E202"
            assert "telemetry" in response["message"]
            # The connection survives and other ops still work.
            assert c.ping()["status"] == "ok"
        with ServeClient(socket_path=server.config.socket_path) as c:
            assert c.stats()["telemetry"] is None
        with pytest.raises(RuntimeError, match="telemetry is disabled"):
            fetch_snapshot(server.config.socket_path)

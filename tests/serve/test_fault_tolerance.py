"""The acceptance scenario from the issue: three tenants share one
daemon (pool of 2) — one segfaults every request, one blows deadlines,
one is healthy.  The healthy tenant must see zero failed requests, the
crashing tenant's breaker must open and later close via a half-open
probe, and the daemon must never exit."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.sanitizer import SEEDED_FAULTS
from repro.runtime.watchdog import RetryPolicy
from repro.serve import protocol
from repro.serve.admission import TenantPolicy
from repro.serve.client import ServeClient
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.loadtest import runaway_sdfg, scale_sdfg

BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 1.5


@pytest.fixture
def server(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    cfg = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        workers=2,
        fault_injection=True,
        default_policy=TenantPolicy(
            breaker_threshold=BREAKER_THRESHOLD,
            breaker_cooldown=BREAKER_COOLDOWN,
            deadline_cap=20.0,
        ),
        retry=RetryPolicy(retries=1, backoff=0.01, jitter=0.5),
        health_interval=600.0,
    )
    with SDFGServer(cfg) as srv:
        yield srv


def test_noisy_tenants_cannot_hurt_a_healthy_one(server):
    sock = server.config.socket_path
    healthy_results = []
    noisy_results = {"mallory": [], "slowpoke": []}
    failures = []

    def healthy(n_requests=12):
        sdfg = scale_sdfg(2.0, name="healthy_kernel")
        try:
            with ServeClient(socket_path=sock, tenant="alice") as c:
                for _ in range(n_requests):
                    a = np.arange(16, dtype=np.float64)
                    out = c.execute(sdfg, arrays={"A": a}, symbols={"N": 16},
                                    strict=False, deadline=15.0)
                    healthy_results.append(
                        (out.get("status"), out.get("code"))
                    )
                    if out.get("status") != "ok":
                        failures.append(f"healthy request failed: {out}")
                    elif not np.allclose(out["arrays"]["A"],
                                         np.arange(16) * 2.0):
                        failures.append("healthy request returned wrong data")
        except Exception as err:  # noqa: BLE001
            failures.append(f"healthy client died: {err}")

    def crasher(n_requests=5):
        sdfg = scale_sdfg(3.0, name="crash_kernel")
        try:
            with ServeClient(socket_path=sock, tenant="mallory") as c:
                for _ in range(n_requests):
                    out = c.execute(sdfg, arrays={}, symbols={"N": 4},
                                    inject_fault="segv", strict=False,
                                    deadline=10.0)
                    noisy_results["mallory"].append(
                        (out.get("status"), out.get("code"))
                    )
                    if out.get("status") == "ok":
                        failures.append("injected segfault reported ok")
        except Exception as err:  # noqa: BLE001
            failures.append(f"crashing client died: {err}")

    def slow(n_requests=2):
        sdfg = runaway_sdfg()
        try:
            with ServeClient(socket_path=sock, tenant="slowpoke") as c:
                for _ in range(n_requests):
                    out = c.execute(sdfg, arrays={"A": np.zeros(4)},
                                    symbols={"N": 4}, deadline=0.5,
                                    strict=False)
                    noisy_results["slowpoke"].append(
                        (out.get("status"), out.get("code"))
                    )
                    if out.get("status") == "ok":
                        failures.append("runaway loop reported ok")
        except Exception as err:  # noqa: BLE001
            failures.append(f"slow client died: {err}")

    threads = [
        threading.Thread(target=healthy),
        threading.Thread(target=crasher),
        threading.Thread(target=slow),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive(), "a driver thread hung"

    assert not failures, failures

    # Every healthy request succeeded — that is the whole point.
    assert len(healthy_results) == 12
    assert all(status == "ok" for status, _ in healthy_results)

    # The noisy tenants got structured errors, then fast rejections.
    mallory_codes = [code for _, code in noisy_results["mallory"]]
    assert "E201" in mallory_codes, "contained worker death surfaced"
    slow_codes = [code for _, code in noisy_results["slowpoke"]]
    assert all(c in ("R805", "R807") for c in slow_codes), slow_codes

    # Mallory's breaker opened (E201 strikes >= threshold, or rejections
    # prove it opened mid-run).
    state = server.admission.breakers.state("mallory")
    assert state in ("open", "half_open") or "R807" in mallory_codes

    # The daemon never exited: pool is intact and serving.
    stats = server.pool.stats()
    assert stats["alive"] == 2
    assert stats["deaths"] >= 2, "the crashes really did kill workers"
    with ServeClient(socket_path=sock, tenant="alice") as c:
        assert c.ping()["status"] == "ok"


def test_breaker_recovers_via_half_open_probe(server):
    """After the cooldown the first request is admitted as the single
    half-open probe; a healthy probe closes the breaker for good."""
    sock = server.config.socket_path
    crash = scale_sdfg(3.0, name="crash_kernel")
    good = scale_sdfg(2.0, name="recovery_kernel")

    with ServeClient(socket_path=sock, tenant="mallory") as c:
        for _ in range(BREAKER_THRESHOLD):
            out = c.execute(crash, arrays={}, symbols={"N": 4},
                            inject_fault="segv", strict=False, deadline=10.0)
            assert out["code"] == "E201", out
        assert server.admission.breakers.state("mallory") == "open"

        # While open: fast rejection, no worker consumed.
        deaths_before = server.pool.stats()["deaths"]
        out = c.execute(crash, arrays={}, symbols={"N": 4},
                        inject_fault="segv", strict=False, deadline=10.0)
        assert out["status"] == "rejected" and out["code"] == "R807"
        assert out["retry_after"] > 0
        assert server.pool.stats()["deaths"] == deaths_before

        time.sleep(BREAKER_COOLDOWN + 0.2)

        # The probe: a now-healthy request closes the breaker.
        a = np.arange(8, dtype=np.float64)
        out = c.execute(good, arrays={"A": a}, symbols={"N": 8},
                        strict=False, deadline=15.0)
        assert out["status"] == "ok", out
        assert server.admission.breakers.state("mallory") == "closed"

        # Fully recovered: subsequent requests flow normally.
        out = c.execute(good, arrays={"A": a}, symbols={"N": 8},
                        strict=False, deadline=15.0)
        assert out["status"] == "ok"

    # Breaker transitions were mirrored onto the instrumentation bus.
    transitions = [tuple(t) for t in server.admission.breakers.transitions]
    assert ("mallory", "closed", "open") in transitions
    assert ("mallory", "open", "half_open") in transitions
    assert ("mallory", "half_open", "closed") in transitions


def test_one_tenants_deadline_kills_leave_another_tenant_on_python():
    """Failures are charged to their owner: tenant A's R805 kills in a
    worker do not move tenant B's next program off its backend."""
    from repro.serve.worker import WorkerRuntime

    rt = WorkerRuntime()
    runaway = runaway_sdfg().to_json()
    for _ in range(3):
        out = rt.handle({"op": "execute", "tenant": "a", "sdfg": runaway,
                         "arrays": protocol.encode_arrays({"A": np.zeros(4)}),
                         "symbols": {"N": 4}, "deadline": 0.05})
        assert out["code"] == "R805", out
    a = np.arange(8, dtype=np.float64)
    out = rt.handle({"op": "execute", "tenant": "b",
                     "sdfg": scale_sdfg(2.0, name="tenant_b_kernel").to_json(),
                     "arrays": protocol.encode_arrays({"A": a}),
                     "symbols": {"N": 8}})
    assert out["status"] == "ok", out
    assert out["backend"] == "python"
    assert out["degradation"] == []


@pytest.fixture
def one_worker_server(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    cfg = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        workers=1,
        fault_injection=True,
        health_interval=600.0,
    )
    with SDFGServer(cfg) as srv:
        yield srv


def test_requests_behind_a_busy_worker_run_as_asked(one_worker_server):
    """A hang holds the only worker while three tenants execute, by key,
    a program they compiled sanitized: each waits for the worker and runs
    the artifact it compiled, findings included, options untouched."""
    server = one_worker_server
    sock = server.config.socket_path
    sdfg, data, _ = SEEDED_FAULTS["R802"]()
    tenants = ("t1", "t2", "t3")
    keys = {}
    for tenant in tenants:
        with ServeClient(socket_path=sock, tenant=tenant) as c:
            keys[tenant] = c.compile(sdfg, sanitize="collect")["program"]

    def hold():
        with ServeClient(socket_path=sock, tenant="holder") as c:
            c.execute(scale_sdfg(2.0), arrays={"A": np.zeros(4)},
                      symbols={"N": 4}, inject_fault="hang",
                      hang_seconds=0.5, strict=False)

    holder = threading.Thread(target=hold)
    holder.start()
    give_up = time.monotonic() + 30.0
    while server.pool.stats()["in_flight"] < 1:
        assert time.monotonic() < give_up, "the hang never reached the worker"
        time.sleep(0.005)

    responses = {}

    def run(tenant):
        with ServeClient(socket_path=sock, tenant=tenant) as c:
            responses[tenant] = c.execute(
                program=keys[tenant],
                arrays={"A": data["A"].copy(), "B": data["B"].copy()},
                symbols={"N": data["N"]}, sanitize="collect", strict=False,
            )

    threads = [threading.Thread(target=run, args=(t,)) for t in tenants]
    for t in threads:
        t.start()
    for t in threads + [holder]:
        t.join(timeout=120)
        assert not t.is_alive(), "a driver thread hung"

    for tenant in tenants:
        resp = responses[tenant]
        assert resp["status"] == "ok", resp
        assert resp["backend"] == "python"
        assert [f["code"] for f in resp["findings"]] == ["R802"], resp
        assert "shed" not in resp and "warnings" not in resp, resp

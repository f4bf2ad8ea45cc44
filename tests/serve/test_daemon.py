"""End-to-end daemon tests over a real Unix socket."""

import json
import os
import socket

import numpy as np
import pytest

from repro.runtime.watchdog import RetryPolicy
from repro.serve.admission import TenantPolicy
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.loadtest import scale_sdfg


@pytest.fixture
def server(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    cfg = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        workers=2,
        cache_root=str(tmp_path / "cache"),
        fault_injection=True,
        default_policy=TenantPolicy(breaker_threshold=3, breaker_cooldown=0.5,
                                    deadline_cap=20.0),
        retry=RetryPolicy(retries=1, backoff=0.01, jitter=0.5),
        health_interval=600.0,
    )
    with SDFGServer(cfg) as srv:
        yield srv


def client(server, tenant="default"):
    return ServeClient(socket_path=server.config.socket_path, tenant=tenant)


def test_ping_and_stats(server):
    with client(server) as c:
        pong = c.ping()
        assert pong["status"] == "ok" and pong["op"] == "pong"
        stats = c.stats()
        assert stats["status"] == "ok"
        assert stats["pool"]["size"] == 2
        assert stats["requests"]["total"] >= 1


def test_compile_then_execute_round_trip(server):
    sdfg = scale_sdfg(2.0)
    with client(server, tenant="alice") as c:
        compiled = c.compile(sdfg)
        assert compiled["status"] == "ok"
        assert len(compiled["program"]) == 64, "content hash is the key"

        a = np.arange(16, dtype=np.float64)
        out = c.execute(sdfg, arrays={"A": a}, symbols={"N": 16})
        assert out["status"] == "ok"
        np.testing.assert_allclose(out["arrays"]["A"], a * 2.0)
        assert out["tenant"] == "alice"


def test_execute_by_key_resends_on_e203(server):
    """A key-only execute that misses (worker respawned, or landed on
    the other worker) is transparently resent with the SDFG body."""
    sdfg = scale_sdfg(2.0)
    with client(server, tenant="alice") as c:
        program = c.compile(sdfg)["program"]
        a = np.arange(8, dtype=np.float64)
        # Drive enough key-based executes to hit both pool workers.
        for _ in range(4):
            out = c.execute(sdfg=sdfg, program=program, arrays={"A": a.copy()},
                            symbols={"N": 8})
            assert out["status"] == "ok"


def test_malformed_requests_get_e202_connection_survives(server):
    with client(server) as c:
        resp = c.request({"op": "frobnicate"})
        assert resp["status"] == "error" and resp["code"] == "E202"
        resp = c.request({"op": "execute"})  # no sdfg/program
        assert resp["code"] == "E202"
        # Raw junk on the wire: the daemon answers and keeps the line open.
        c._stream.write(b"this is not json\n")
        c._stream.flush()
        import repro.serve.protocol as protocol

        resp = protocol.recv_message(c._stream)
        assert resp["code"] == "E202"
        assert c.ping()["status"] == "ok", "connection still usable"


@pytest.mark.parametrize("spec,trailer", [
    # An int64 product of this shape wraps to 0; an uncaught ValueError
    # in the reader would drop the connection without an answer.
    ({"dtype": "float64", "shape": [2**32, 2**32], "nbytes": 0}, b""),
    ({"dtype": "object", "shape": [1], "nbytes": 8}, bytes(8)),
])
def test_bad_array_spec_gets_e202_then_the_connection_closes(server, spec, trailer):
    header = {"op": "execute", "v": 2, "program": "0" * 64, "arrays": {"A": spec}}
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(server.config.socket_path)
        sock.sendall(json.dumps(header).encode() + b"\n" + trailer)
        with sock.makefile("rb") as stream:
            resp = json.loads(stream.readline())
            assert resp["status"] == "error" and resp["code"] == "E202"
            assert "bad spec" in resp["message"]
            assert stream.read() == b"", "the daemon closed the connection"
    with client(server) as c:
        assert c.ping()["status"] == "ok", "the daemon itself is fine"


def test_v1_base64_request_gets_version_mismatch_connection_survives(server):
    import base64

    request = {"op": "execute", "v": 1, "tenant": "old", "program": "0" * 64,
               "symbols": {"N": 8},
               "arrays": {"A": {"dtype": "float64", "shape": [8],
                                "data": base64.b64encode(bytes(64)).decode()}}}
    with client(server) as c:
        c._stream.write(json.dumps(request).encode() + b"\n")
        c._stream.flush()
        import repro.serve.protocol as protocol

        resp = protocol.recv_message(c._stream)
        assert resp["code"] == "E202" and "version mismatch" in resp["message"]
        assert c.ping()["status"] == "ok", "connection still usable"


def test_eight_megabyte_array_round_trips_bit_identically(server):
    """Larger than a pipe buffer both ways: client -> daemon -> worker
    and back, through the pool's incremental frame splitter."""
    a = np.random.default_rng(8).standard_normal(1 << 20)
    with client(server, tenant="big") as c:
        out = c.execute(scale_sdfg(2.0), arrays={"A": a}, symbols={"N": a.size})
    result = out["arrays"]["A"]
    assert result.dtype == a.dtype and result.shape == a.shape
    assert result.tobytes() == (a * 2.0).tobytes()
    assert not np.shares_memory(result, a)


def test_strict_client_raises_serve_error(server):
    with client(server) as c:
        with pytest.raises(ServeError) as exc:
            c.execute(scale_sdfg(2.0), arrays={}, symbols={"N": 4},
                      inject_fault="segv", deadline=10.0)
        assert exc.value.code == "E201"


def test_tenant_caches_are_isolated_on_disk(server):
    sdfg = scale_sdfg(5.0, name="tenant_iso")
    a = np.arange(4, dtype=np.float64)
    with client(server, tenant="alice") as c:
        c.execute(sdfg, arrays={"A": a.copy()}, symbols={"N": 4})
    with client(server, tenant="bob") as c:
        c.execute(sdfg, arrays={"A": a.copy()}, symbols={"N": 4})
    from repro.codegen.progcache import safe_namespace

    root = server.config.cache_root
    alice_dir = os.path.join(root, safe_namespace("alice"))
    bob_dir = os.path.join(root, safe_namespace("bob"))
    assert os.path.isdir(alice_dir)
    assert os.path.isdir(bob_dir)
    # Same program, one directory per tenant: no entry file is shared.
    alice = {f for f in os.listdir(alice_dir) if f.endswith(".json")}
    bob = {f for f in os.listdir(bob_dir) if f.endswith(".json")}
    assert alice and bob


def test_daemon_survives_worker_segfault_and_stays_warm(server):
    sdfg = scale_sdfg(2.0)
    a = np.arange(8, dtype=np.float64)
    with client(server, tenant="alice") as c:
        assert c.execute(sdfg, arrays={"A": a.copy()}, symbols={"N": 8})["status"] == "ok"
    with client(server, tenant="mallory") as c:
        resp = c.execute(scale_sdfg(3.0), arrays={}, symbols={"N": 4},
                         inject_fault="segv", deadline=10.0, strict=False)
        assert resp["status"] == "error" and resp["code"] == "E201"
    with client(server, tenant="alice") as c:
        out = c.execute(sdfg, arrays={"A": a.copy()}, symbols={"N": 8})
        assert out["status"] == "ok"
        np.testing.assert_allclose(out["arrays"]["A"], a * 2.0)
    assert server.pool.stats()["alive"] == 2


def test_concurrent_clients_multiplex_one_daemon(server):
    import threading

    sdfg = scale_sdfg(2.0)
    errors = []

    def hammer(tenant):
        try:
            with client(server, tenant=tenant) as c:
                for _ in range(5):
                    a = np.arange(8, dtype=np.float64)
                    out = c.execute(sdfg, arrays={"A": a}, symbols={"N": 8})
                    assert out["status"] == "ok", out
                    np.testing.assert_allclose(out["arrays"]["A"],
                                               np.arange(8) * 2.0)
        except Exception as err:  # noqa: BLE001
            errors.append(f"{tenant}: {err}")

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in ("alice", "bob", "carol")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors


def test_shutdown_op_stops_the_daemon(tmp_path):
    cfg = ServeConfig(socket_path=str(tmp_path / "s.sock"), workers=1)
    srv = SDFGServer(cfg).start()
    try:
        with ServeClient(socket_path=cfg.socket_path) as c:
            assert c.shutdown()["status"] == "ok"
        srv._stop.wait(timeout=10)
        assert srv._stop.is_set()
    finally:
        srv.stop()


def test_shutdown_op_can_be_disabled(tmp_path):
    cfg = ServeConfig(socket_path=str(tmp_path / "s.sock"), workers=1,
                      allow_shutdown=False)
    with SDFGServer(cfg) as srv:
        with ServeClient(socket_path=cfg.socket_path) as c:
            resp = c.shutdown()
            assert resp["status"] == "error" and resp["code"] == "E202"
            assert c.ping()["status"] == "ok"
        assert not srv._stop.is_set()


def test_tcp_transport(tmp_path):
    cfg = ServeConfig(tcp=("127.0.0.1", 0), workers=1)
    with SDFGServer(cfg) as srv:
        host, port = srv.address[0], srv.address[1]
        with ServeClient(tcp=(host, port)) as c:
            assert c.ping()["status"] == "ok"
            a = np.arange(4, dtype=np.float64)
            out = c.execute(scale_sdfg(2.0), arrays={"A": a}, symbols={"N": 4})
            np.testing.assert_allclose(out["arrays"]["A"], a * 2.0)


def test_stop_removes_the_socket_directory_it_made(tmp_path, monkeypatch):
    """With no socket path given, the daemon makes a private directory
    for its socket, in the temp dir when the socket path fits there;
    stopping removes both."""
    import tempfile

    from repro.serve import daemon

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    srv = SDFGServer(ServeConfig(workers=1, health_interval=600.0)).start()
    try:
        with ServeClient(socket_path=srv.config.socket_path) as c:
            assert c.ping()["status"] == "ok"
        socket_dir = os.path.dirname(srv.config.socket_path)
        in_tmp_path = os.path.join(str(tmp_path), os.path.basename(socket_dir), "serve.sock")
        fits = len(os.fsencode(in_tmp_path)) <= daemon._UNIX_PATH_MAX
        assert os.path.dirname(socket_dir) == (str(tmp_path) if fits else "/tmp")
    finally:
        srv.stop()
    assert not os.path.exists(socket_dir)
    assert not any(p.name.startswith("repro_") for p in tmp_path.iterdir())


def test_private_socket_under_a_deep_temp_dir_still_binds(tmp_path, monkeypatch):
    """A temp dir too deep for an ``AF_UNIX`` path puts the private
    socket directory under ``/tmp``; stopping still removes it."""
    import tempfile

    deep = tmp_path / ("d" * (120 - len(str(tmp_path)) - 1))
    deep.mkdir()
    assert len(str(deep)) == 120
    monkeypatch.setattr(tempfile, "tempdir", str(deep))
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    srv = SDFGServer(ServeConfig(workers=1, health_interval=600.0)).start()
    try:
        with ServeClient(socket_path=srv.config.socket_path) as c:
            assert c.ping()["status"] == "ok"
        socket_dir = os.path.dirname(srv.config.socket_path)
        assert os.path.dirname(socket_dir) == "/tmp"
    finally:
        srv.stop()
    assert not os.path.exists(socket_dir)


def _live_worker_children():
    """Pids of this process's live ``repro.serve.worker`` children (from
    ``/proc``; empty where there is none).  Other tests may leave one
    running on purpose (the isolation harness keeps its worker for the
    process), so callers compare before and after."""
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        state, ppid = fields[0], int(fields[1])
        if ppid == os.getpid() and state != "Z" and b"repro.serve.worker" in cmdline:
            pids.append(int(entry))
    return pids


def test_start_that_cannot_bind_leaves_no_worker_and_no_socket_directory(
    tmp_path, monkeypatch
):
    """A private socket path longer than AF_UNIX allows fails the bind:
    start() raises, and no worker, listener or socket directory is left.
    The limit is lifted so the daemon does not move the path to /tmp."""
    import tempfile

    from repro.serve import daemon

    long_dir = tmp_path / ("d" * 120)
    long_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(long_dir))
    monkeypatch.setattr(daemon, "_UNIX_PATH_MAX", 1 << 20)
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    srv = SDFGServer(ServeConfig(workers=1, health_interval=600.0))
    before = set(_live_worker_children())
    with pytest.raises(OSError):
        srv.start()
    assert srv.pool.stats()["alive"] == 0
    assert set(_live_worker_children()) <= before
    assert not any(p.name.startswith("repro_serve_") for p in long_dir.iterdir())


def test_start_failing_after_the_pool_started_stops_its_workers(tmp_path, monkeypatch):
    """A failure once the workers run (here: the pool's own start raising
    after it spawned them) stops the workers and removes the socket and
    its private directory before the error propagates."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    srv = SDFGServer(ServeConfig(workers=1, health_interval=600.0))
    real_start = srv.pool.start

    def start_then_fail():
        real_start()
        assert srv.pool.stats()["alive"] == 1
        raise RuntimeError("boot step after the pool failed")

    monkeypatch.setattr(srv.pool, "start", start_then_fail)
    before = set(_live_worker_children())
    with pytest.raises(RuntimeError, match="after the pool"):
        srv.start()
    assert srv.pool.stats()["alive"] == 0
    assert set(_live_worker_children()) <= before
    assert not any(p.name.startswith("repro_serve_") for p in tmp_path.iterdir())

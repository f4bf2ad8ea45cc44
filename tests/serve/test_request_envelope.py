"""What a served request costs besides its kernel: the response carries
only the arrays the SDFG writes, a cold body is hashed once and stored
once, and the daemon derives the per-request cache and kernel events
from the response, with the same fleet telemetry as when the worker
shipped them."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.codegen.compiler import compile_sdfg
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.loadtest import runaway_sdfg, scale_sdfg
from repro.serve.worker import WorkerRuntime
from repro.workloads import polybench

#: The programs the ``serve_mixed`` benchmark workload serves.
SERVE_PROGRAMS = ("gemm", "atax", "jacobi-2d", "mvt", "2mm", "bicg", "syrk", "doitgen")


def _config(tmp_path, **overrides):
    return ServeConfig(**{
        "socket_path": str(tmp_path / "serve.sock"),
        "workers": 1,
        "cache_root": str(tmp_path / "cache"),
        "health_interval": 600.0,
        "telemetry_window": 3600.0,
        **overrides,
    })


def _registry_call(name):
    """A registry program's arguments, split into arrays and symbols."""
    kernel = polybench.get(name)
    arrays = kernel.data()
    symbols = dict(kernel.sizes)
    return kernel, arrays, symbols


def _in_process(kernel, arrays, symbols):
    got = {k: v.copy() for k, v in arrays.items()}
    compile_sdfg(kernel.make_sdfg(), backend="python", cache="off")(**got, **symbols)
    return got


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("envelope")
    with SDFGServer(_config(tmp)) as srv:
        yield srv


@pytest.mark.parametrize("name", SERVE_PROGRAMS)
def test_response_carries_exactly_the_write_set(server, name):
    kernel, arrays, symbols = _registry_call(name)
    with ServeClient(socket_path=server.config.socket_path, tenant="w") as c:
        key = c.compile(kernel.make_sdfg())["program"]
        out = c.execute(program=key, arrays=arrays, symbols=symbols)
    writes = kernel.make_sdfg().write_set()
    assert set(out["arrays"]) == writes
    assert writes <= set(arrays)
    want = _in_process(kernel, arrays, symbols)
    for name_ in writes:
        assert out["arrays"][name_].tobytes() == want[name_].tobytes(), name_


def test_recycled_worker_resend_returns_the_same_arrays(tmp_path):
    """Each request retires the worker, so an execute by key meets a
    fresh one, gets ``E203`` and is resent with the body."""
    kernel, arrays, symbols = _registry_call("atax")
    with SDFGServer(_config(tmp_path, recycle_after=1, telemetry=False)) as srv:
        with ServeClient(socket_path=srv.config.socket_path) as c:
            sdfg = kernel.make_sdfg()
            key = c.compile(sdfg)["program"]
            out = c.execute(sdfg, program=key, arrays=arrays, symbols=symbols)
    assert out["resent"] is True
    assert set(out["arrays"]) == {"y"}
    assert out["arrays"]["y"].tobytes() == _in_process(kernel, arrays, symbols)["y"].tobytes()


def test_cold_body_is_hashed_once_and_stored_once(tmp_path, monkeypatch):
    """A hand-built body, whose propagation changes it: one
    ``content_hash`` keys both the artifact table and the program cache,
    which gets one entry."""
    from repro.sdfg import serialize
    from repro.store import Store

    body = scale_sdfg(3.0, name="hand_built")
    propagated = scale_sdfg(3.0, name="hand_built")
    propagated.propagate()
    assert serialize.content_hash(body) != serialize.content_hash(propagated)

    calls = Counter()
    for owner, attr in ((serialize, "content_hash"), (Store, "put")):
        original = getattr(owner, attr)

        def counted(*args, _original=original, _attr=attr, **kw):
            calls[_attr] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(owner, attr, counted)

    digest = serialize.content_hash(propagated)
    calls.clear()
    runtime = WorkerRuntime(cache_root=str(tmp_path / "cache"))
    response = runtime.handle({
        "op": "execute", "tenant": "t", "sdfg": body.to_json(),
        "arrays": protocol.encode_arrays({"A": np.arange(8.0)}),
        "symbols": {"N": 8},
    })
    assert response["status"] == "ok" and response["warm"] is False
    assert calls == {"content_hash": 1, "put": 1}
    assert response["program"] == digest, "the key hashes the propagated form"


def test_warm_responses_carry_no_event_list_and_no_rss():
    from repro.telemetry.sink import TelemetrySink, install_sink

    previous = install_sink(TelemetrySink())
    try:
        runtime = WorkerRuntime()
        job = {"op": "execute", "tenant": "t", "sdfg": scale_sdfg().to_json(),
               "arrays": protocol.encode_arrays({"A": np.arange(8.0)}),
               "symbols": {"N": 8}}
        cold = runtime.handle(dict(job))
        del job["sdfg"]
        warm = runtime.handle(dict(job, program=cold["program"]))
    finally:
        install_sink(previous)
    assert "telemetry" in cold, "a cold compile still ships its own events"
    assert warm["warm"] is True and warm["kernel"] == "serve_scale"
    assert "telemetry" not in warm and "rss_kb" not in warm


def _propagated(sdfg):
    sdfg.propagate()
    return sdfg


#: The fleet events of ``_telemetry_script`` at the parent of this change,
#: where the worker published the artifact-table and kernel events and
#: the pool republished them.  The bodies are in propagated form, so the
#: parent, too, wrote one program-cache entry per cold body.
PARENT_EVENTS = Counter({
    ("admission", "alice", '{"code": null, "event": "admit"}'): 9,
    ("cache", "artifacts", '{"event": "hit", "n": 1}'): 5,
    ("cache", "artifacts", '{"event": "miss", "n": 1}'): 4,
    ("cache", "progcache", '{"event": "miss", "n": 1}'): 3,
    ("cache", "progcache", '{"event": "store", "n": 1}'): 3,
    ("compile", "cold", "null"): 1,
    ("compile", "k", "null"): 1,
    ("compile", "serve_runaway", "null"): 1,
    ("kernel", "cold", '{"backend": "python", "tenant": "alice", "warm": false}'): 1,
    ("kernel", "cold", '{"backend": "python", "tenant": "alice", "warm": true}'): 1,
    ("kernel", "k", '{"backend": "python", "tenant": "alice", "warm": true}'): 3,
    ("phase", "codegen[python]", "null"): 3,
    ("phase", "progcache[lookup]", "null"): 3,
    ("phase", "progcache[store]", "null"): 3,
    ("phase", "propagate", "null"): 3,
    ("phase", "validate", "null"): 3,
    ("request", "compile", '{"code": null, "status": "ok", "tenant": "alice"}'): 1,
    ("request", "execute", '{"code": "E202", "status": "error", "tenant": "alice"}'): 1,
    ("request", "execute", '{"code": "E203", "status": "error", "tenant": "alice"}'): 1,
    ("request", "execute", '{"code": "R805", "status": "error", "tenant": "alice"}'): 1,
    ("request", "execute", '{"code": null, "status": "ok", "tenant": "alice"}'): 5,
    ("watchdog", "serve_runaway", '{"code": "R805", "event": "deadline"}'): 1,
    ("worker", "worker-*", '{"event": "spawn"}'): 1,
})


def _telemetry_script(client):
    """Warm, cold and failed executes."""
    a = np.arange(8.0)
    key = client.compile(_propagated(scale_sdfg(2.0, name="k")))["program"]
    for _ in range(3):
        client.execute(program=key, arrays={"A": a}, symbols={"N": 8})
    for _ in range(2):  # cold, then warm by body
        client.execute(_propagated(scale_sdfg(3.0, name="cold")), arrays={"A": a},
                       symbols={"N": 8})
    assert client.execute(program="0" * 64, arrays={"A": a}, symbols={"N": 8},
                          strict=False)["code"] == "E203"
    assert client.execute(program=key, arrays={"B": a}, symbols={"N": 8},
                          strict=False)["code"] == "E202"
    assert client.execute(_propagated(runaway_sdfg()), arrays={"A": a},
                          symbols={"N": 8}, deadline=0.2, strict=False)["code"] == "R805"


def test_fleet_telemetry_matches_the_worker_published_events(tmp_path, monkeypatch):
    """The symbolic memo's per-compile ``symcache:*`` counts are left
    out: the compile window now holds the body's one hash, whose
    lookups the parent made before its window opened."""
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    with SDFGServer(_config(tmp_path)) as srv:
        with ServeClient(socket_path=srv.config.socket_path, tenant="alice") as c:
            _telemetry_script(c)
        events, _, dropped = srv.sink.drain(0)
    assert dropped == 0
    got = Counter(
        (e.kind, "worker-*" if e.kind == "worker" else e.label,
         json.dumps(e.fields, sort_keys=True))
        for e in events if not e.label.startswith("symcache:")
    )
    assert got == PARENT_EVENTS


def test_the_supervisor_reads_rss_only_under_a_memory_budget(monkeypatch):
    from repro.serve import pool as pool_mod

    reads = []
    rss = pool_mod.rss_kb
    monkeypatch.setattr(pool_mod, "rss_kb", lambda pid: reads.append(pid) or rss(pid))
    job = {"op": "execute", "tenant": "t", "sdfg": scale_sdfg().to_json(),
           "arrays": protocol.encode_arrays({"A": np.arange(8.0)}),
           "symbols": {"N": 8}}
    with pool_mod.WorkerPool(size=1) as pool:
        assert pool.submit(dict(job))["status"] == "ok"
        assert reads == []
        pool.memory_budget_kb = 1 << 30
        assert pool.submit(dict(job))["status"] == "ok"
        pid = pool._workers[0].pid
        assert reads == [pid] and rss(pid) > 0

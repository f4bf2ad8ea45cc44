"""An embedded daemon with telemetry on is the process sink while it
runs, so daemon-side producers that publish through ``active_sink()``
(chaos faults, crash-bundle rotation) reach the fleet sink."""

import numpy as np

from repro.chaos.engine import FaultPlan, install_plan, uninstall_engine
from repro.serve.client import ServeClient
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.loadtest import scale_sdfg
from repro.telemetry.sink import (
    TelemetrySink,
    active_sink,
    install_sink,
    uninstall_sink,
)


def make_config(tmp_path, **overrides):
    return ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        workers=1,
        cache_root=str(tmp_path / "cache"),
        health_interval=600.0,
        **overrides,
    )


def test_server_sink_is_the_process_sink_while_it_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    earlier = TelemetrySink()
    outer = install_sink(earlier)
    try:
        srv = SDFGServer(make_config(tmp_path)).start()
        try:
            assert active_sink() is srv.sink
            install_plan(FaultPlan.parse("admission.admit:raise@hit=1"))
            with ServeClient(socket_path=srv.config.socket_path) as c:
                out = c.execute(
                    scale_sdfg(2.0, name="sink_kernel"),
                    arrays={"A": np.arange(8, dtype=np.float64)},
                    symbols={"N": 8},
                    strict=False,
                )
            assert out["code"] == "E204"
            events, _, _ = srv.sink.drain(0)
            faults = [e for e in events if e.kind == "fault"]
            assert [(e.label, e.fields["action"]) for e in faults] == [
                ("admission.admit", "raise")
            ]
            assert not any(e.kind == "fault" for e in earlier.drain(0)[0])
        finally:
            uninstall_engine()
            srv.stop()
        assert active_sink() is earlier
        srv.stop()  # a second stop restores nothing more
        assert active_sink() is earlier
    finally:
        install_sink(outer)


def test_server_without_telemetry_leaves_the_process_sink(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    earlier = TelemetrySink()
    outer = install_sink(earlier)
    try:
        with SDFGServer(make_config(tmp_path, telemetry=False)) as srv:
            assert srv.sink is None
            assert active_sink() is earlier
        assert active_sink() is earlier
    finally:
        install_sink(outer)


def test_stop_restores_an_environment_sink_not_yet_resolved(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    outer = install_sink(None)
    uninstall_sink()
    try:
        with SDFGServer(make_config(tmp_path)) as srv:
            assert active_sink() is srv.sink
        restored = active_sink()
        assert restored is not None and restored is not srv.sink
    finally:
        install_sink(outer)

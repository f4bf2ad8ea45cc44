"""The ``python -m repro.telemetry`` CLI: dashboard rendering and the
offline ``check`` / ``snapshot`` paths (live-daemon paths are covered by
tests/serve/test_metrics.py)."""

import json

import pytest

from repro.telemetry.__main__ import main, render_dashboard


def sample_snapshot():
    return {
        "window_seconds": 10.0,
        "windows": [{
            "start": 100.0, "end": 110.0, "events": 9, "dropped": 0,
            "skewed": 0,
            "kernels": {"gemm": {"count": 5, "mean": 0.002, "max": 0.004,
                                 "p50": 0.002, "p95": 0.003, "p99": 0.004,
                                 "warm": 4, "cold": 1, "samples": 5}},
            "caches": {"progcache": {"hit": 3, "miss": 1, "store": 1,
                                     "hit_rate": 0.75}},
            "tenants": {"alice": {"requests": 5, "ok": 5, "rejected": 0,
                                  "errors": 0}},
            "breaker_transitions": [[101.0, "alice", "closed", "open"]],
            "hotspots": {
                "by_time": [{"element": "kernel:gemm", "seconds": 0.01}],
                "by_volume": [{"element": "map:mm", "bytes": 8192}],
            },
        }],
        "kernels": {"gemm": {"count": 5, "mean": 0.002, "max": 0.004,
                             "p50": 0.002, "p95": 0.003, "p99": 0.004,
                             "warm": 4, "cold": 1, "samples": 5}},
        "totals": {"events": 9, "dropped": 0, "skewed": 0, "windows": 1},
        "breaker_states": {"alice": "open"},
        "sink": {"capacity": 4096, "published": 9, "resident": 9},
    }


def test_render_dashboard_mentions_every_section():
    text = render_dashboard(sample_snapshot())
    for fragment in ("gemm", "alice", "progcache", "breakers: alice=open",
                     "hot spots", "9 events"):
        assert fragment in text, f"{fragment!r} missing from:\n{text}"


def test_snapshot_command_offline(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(sample_snapshot()))
    rc = main(["snapshot", "--snapshot", str(snap_file), "--assert-traffic"])
    assert rc == 0
    out = capsys.readouterr()
    assert "gemm" in out.out
    assert "assert-traffic OK" in out.err


def test_snapshot_assert_traffic_fails_on_idle_daemon(tmp_path, capsys):
    snap = sample_snapshot()
    snap["windows"] = []
    snap["kernels"] = {}
    snap_file = tmp_path / "idle.json"
    snap_file.write_text(json.dumps(snap))
    rc = main(["snapshot", "--snapshot", str(snap_file), "--assert-traffic"])
    assert rc == 1
    assert "assert-traffic FAILED" in capsys.readouterr().err


def test_snapshot_json_roundtrips(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(sample_snapshot()))
    rc = main(["snapshot", "--snapshot", str(snap_file), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == sample_snapshot()


@pytest.fixture
def baseline_dir(tmp_path):
    bdir = tmp_path / "baselines"
    bdir.mkdir()
    (bdir / "BENCH_serve.json").write_text(json.dumps({
        "kernels": {"gemm": {"p50": 0.002, "count": 50}},
    }))
    return bdir


def test_check_passes_on_faithful_snapshot(tmp_path, baseline_dir, capsys):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(sample_snapshot()))
    rc = main(["check", "--snapshot", str(snap_file),
               "--baselines", str(baseline_dir), "--fail-on-drift"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 drift(s)" in out and "W901" not in out


def test_check_fails_on_drifted_snapshot(tmp_path, baseline_dir, capsys):
    snap = sample_snapshot()
    snap["kernels"]["gemm"]["p50"] = 0.02  # 10x the stored baseline
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(snap))
    rc = main(["check", "--snapshot", str(snap_file),
               "--baselines", str(baseline_dir), "--fail-on-drift"])
    assert rc == 1
    assert "W901" in capsys.readouterr().out
    # Without --fail-on-drift the drift is reported but the exit is 0.
    rc = main(["check", "--snapshot", str(snap_file),
               "--baselines", str(baseline_dir)])
    assert rc == 0
    assert "1 drift(s)" in capsys.readouterr().out


def test_check_missing_baseline_is_reported_and_can_fail(
    tmp_path, baseline_dir, capsys
):
    snap = sample_snapshot()
    snap["kernels"] = {"unknown_kernel": snap["kernels"]["gemm"]}
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(snap))
    rc = main(["check", "--snapshot", str(snap_file),
               "--baselines", str(baseline_dir)])
    assert rc == 0  # reported...
    assert "W902" in capsys.readouterr().out
    rc = main(["check", "--snapshot", str(snap_file),
               "--baselines", str(baseline_dir), "--fail-on-missing"])
    assert rc == 1  # ...and fatal on request


def test_check_json_output(tmp_path, baseline_dir, capsys):
    snap = sample_snapshot()
    snap["kernels"]["gemm"]["p50"] = 0.02
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(snap))
    rc = main(["check", "--snapshot", str(snap_file),
               "--baselines", str(baseline_dir), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["drifts"][0]["kernel"] == "gemm"
    assert payload["drifts"][0]["ratio"] == 10.0

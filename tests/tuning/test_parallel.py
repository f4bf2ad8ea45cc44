"""The cutout-parallel tuner: dedup-aware fan-out, history stitching,
differential verification, cache behaviour, and the CLI surface."""

import copy
import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.telemetry.sink import TelemetrySink, install_sink, uninstall_sink
from repro.tune import main as tune_main
from repro.tuning import (
    CUTOUT_POOL_EXCLUDED,
    AnalyticCost,
    TuningConfig,
    cutout_pool,
    tune,
    tune_cutouts,
)
from repro.workloads import kernels
from tests.codegen.test_parallel_tier import _gone

LINKS = 3
SIZE = 8
SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _chain():
    return kernels.gemm_chain_sdfg(LINKS)


def _verify_inputs():
    data = kernels.gemm_chain_data(SIZE)
    return dict(data, N=SIZE)


def _run(sdfg, data):
    env = {k: np.array(v, copy=True) for k, v in data.items()}
    sdfg.invalidate_compiled()
    sdfg.compile()(**env, N=SIZE)
    return env["C"]


# ---------------------------------------------------------------- pools
def test_cutout_pool_excludes_interstate_and_hardware():
    pool = cutout_pool()
    assert not set(pool) & CUTOUT_POOL_EXCLUDED
    assert "MapTiling" in pool and "OnTheFlyMapFusion" in pool


# ------------------------------------------------------------ end to end
class TestTuneCutouts:
    def test_stitched_result_matches_at_1e8(self):
        sdfg = _chain()
        result = tune_cutouts(sdfg, cost="analytic")
        assert result.report.cutouts["verification"].startswith("ok")
        data = kernels.gemm_chain_data(SIZE)
        ref = kernels.gemm_chain_reference(data, LINKS)
        got = _run(result.sdfg, data)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) / scale <= 1e-8

    def test_dedup_counters(self):
        result = tune_cutouts(_chain(), cost="analytic")
        cuts = result.report.cutouts
        assert cuts["total"] == 2 * LINKS
        assert cuts["unique"] == LINKS + 1
        assert cuts["deduplicated"] == LINKS - 1
        assert cuts["stitched"] > 0

    def test_history_replays_per_member(self):
        """Each member of a deduplicated group gets the winning history
        applied at its own match indices (stitched > unique implies the
        init-group winner was replayed onto several states)."""
        result = tune_cutouts(_chain(), cost="analytic")
        assert result.history, "expected a non-empty stitched history"
        per = result.report.cutouts["per_cutout"]
        init_groups = [p for p in per if len(p["members"]) > 1]
        assert init_groups and len(init_groups[0]["members"]) == LINKS
        assert len(init_groups[0]["stitched"]) == LINKS

    def test_cache_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = tune_cutouts(_chain(), cost="analytic", cache_dir=cache_dir)
        assert not cold.cache_hit
        warm = tune_cutouts(_chain(), cost="analytic", cache_dir=cache_dir)
        assert warm.cache_hit  # every unique cutout served from cache
        assert warm.report.cache["hits"] >= LINKS + 1

    def test_worker_pool_jobs2(self):
        result = tune_cutouts(_chain(), cost="analytic", jobs=2)
        assert result.report.cutouts["jobs"] == 2
        assert result.report.cutouts["verification"].startswith("ok")
        data = kernels.gemm_chain_data(SIZE)
        ref = kernels.gemm_chain_reference(data, LINKS)
        got = _run(result.sdfg, data)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) / scale <= 1e-8

    def test_custom_provider_forces_in_process(self):
        calls = []

        class Counting(AnalyticCost):
            def score(self, sdfg):
                calls.append(sdfg.name)
                return super().score(sdfg)

        result = tune_cutouts(_chain(), cost=Counting(), jobs=4)
        # Unpicklable/stateful provider: must run in-process (calls
        # observed here), never silently dropped into workers.
        assert calls
        assert result.report.cutouts["verification"].startswith("ok")

    def test_via_tune_strategy_dispatch(self):
        result = tune(_chain(), cost="analytic", strategy="cutout", jobs=1)
        assert result.report.strategy == "cutout"
        assert result.report.cutouts["total"] == 2 * LINKS

    def test_telemetry_events_published(self):
        sink = TelemetrySink()
        install_sink(sink)
        try:
            tune_cutouts(_chain(), cost="analytic")
        finally:
            uninstall_sink()
        events, _, _ = sink.drain(0)
        labels = [ev.label for ev in events if ev.kind == "tuning"]
        assert "cutout:dedup" in labels
        assert "cutout:pool" in labels
        per_cutout = [
            label for label in labels
            if label.startswith("cutout:")
            and label not in ("cutout:dedup", "cutout:pool")
        ]
        assert len(per_cutout) == LINKS + 1  # one event per unique group


    def test_dead_worker_loses_its_cutout_not_the_call(self):
        """A worker SIGKILLed inside a cutout search: the call returns,
        the lost cutout is an error outcome, and its region stays
        untuned (the result still matches the reference)."""
        script = textwrap.dedent(f"""
            import json, os, signal
            import numpy as np
            from repro.tuning import parallel
            from repro.workloads import kernels

            parent, real = os.getpid(), parallel._tune_one_cutout

            def dies_on_mm1(payload, provider):
                if payload["label"] == "mm1" and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(payload, provider)

            parallel._tune_one_cutout = dies_on_mm1
            result = parallel.tune_cutouts(
                kernels.gemm_chain_sdfg({LINKS}), cost="analytic", jobs=2)
            data = kernels.gemm_chain_data({SIZE})
            ref = kernels.gemm_chain_reference(data, {LINKS})
            result.sdfg.compile()(**data, N={SIZE})
            print(json.dumps({{
                "per_cutout": result.report.cutouts["per_cutout"],
                "error": float(np.max(np.abs(data["C"] - ref))
                               / max(1.0, float(np.max(np.abs(ref))))),
            }}))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        records = {r["label"]: r for r in out["per_cutout"]}
        assert "BrokenProcessPool" in records["mm1"]["error"]
        for record in records.values():
            if "error" in record:
                assert record["stitched"] == []
        assert out["error"] <= 1e-8

    def test_cutout_workers_exit_with_their_parent(self, tmp_path):
        """A process SIGKILLed mid-fan-out leaves no cutout worker
        behind."""
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = textwrap.dedent(f"""
            import os, time
            from repro.tuning import parallel
            from repro.workloads import kernels

            def hangs(payload, provider):
                open(os.path.join({str(pid_dir)!r}, str(os.getpid())), "w").close()
                time.sleep(60)

            parallel._tune_one_cutout = hangs
            parallel.tune_cutouts(
                kernels.gemm_chain_sdfg({LINKS}), cost="analytic", jobs=2)
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=dict(os.environ, PYTHONPATH=SRC))
        try:
            deadline = time.monotonic() + 30.0
            while len(os.listdir(pid_dir)) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        pids = [int(name) for name in os.listdir(pid_dir)]
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.05)
        assert all(map(_gone, pids)), "cutout workers outlived their parent"


# ----------------------------------------------- per-transformation stats
def test_search_reports_per_transformation_stats():
    sink = TelemetrySink()
    install_sink(sink)
    try:
        result = tune(
            kernels.matmul_sdfg(),
            cost="analytic",
            depth=2,
            budget=12,
        )
    finally:
        uninstall_sink()
    stats = result.report.transformations
    assert stats, "expected per-transformation search statistics"
    accepted = {n for n, s in stats.items() if s["accepted"]}
    assert accepted  # the greedy search accepted at least one step
    for name, s in stats.items():
        assert s["candidates"] >= s["accepted"] + s["rejected"]
        assert s["apply_s"] >= 0.0 and s["evaluate_s"] >= 0.0
    events, _, _ = sink.drain(0)
    xform_labels = {
        ev.label for ev in events
        if ev.kind == "tuning" and ev.label.startswith("xform:")
    }
    assert xform_labels == {f"xform:{n}" for n in stats}


def test_report_roundtrips_new_sections(tmp_path):
    result = tune_cutouts(_chain(), cost="analytic")
    path = str(tmp_path / "r.json")
    result.report.save(path)
    from repro.tuning import TuningReport

    loaded = TuningReport.load(path)
    assert loaded.cutouts == json.loads(json.dumps(result.report.cutouts))
    assert "cutouts:" in loaded.render()


# ------------------------------------------------------------------- CLI
class TestCli:
    def _run(self, argv, capsys):
        code = tune_main(argv)
        out = capsys.readouterr()
        return code, out.out + out.err

    def test_cutout_flag_and_assert_dedup(self, tmp_path, capsys):
        code, text = self._run(
            ["run", "gemm_chain", "--cutout", "--cost", "analytic",
             "--jobs", "2", "--cache-dir", str(tmp_path / "c"),
             "--assert-dedup"],
            capsys,
        )
        assert code == 0
        assert "cutouts:" in text

    def test_second_cutout_run_hits_cache(self, tmp_path, capsys):
        common = ["run", "gemm_chain", "--cutout", "--cost", "analytic",
                  "--cache-dir", str(tmp_path / "c")]
        assert self._run(common, capsys)[0] == 0
        code, _ = self._run(common + ["--assert-cache-hit"], capsys)
        assert code == 0

    def test_assert_dedup_fails_on_single_kernel(self, tmp_path, capsys):
        # matmul has one non-trivial state: nothing to deduplicate.
        code, text = self._run(
            ["run", "matmul", "--cutout", "--cost", "analytic",
             "--assert-dedup"],
            capsys,
        )
        assert code == 1
        assert "dedup" in text


# ---------------------------------------------------------- drift retune
class TestDriftRetune:
    def _snapshot(self, tmp_path, observed_ms):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps({
            "kernels": {
                "gemm_chain": {"p50": observed_ms, "count": 10},
            }
        }))
        return str(path)

    def _baselines(self, tmp_path):
        base = tmp_path / "baselines"
        base.mkdir()
        (base / "BENCH_t.json").write_text(json.dumps({
            "kernels": {"gemm_chain": {"p50": 0.001}},
        }))
        return str(base)

    def test_no_drift_no_retune(self, tmp_path, capsys):
        code = tune_main([
            "--if-drifted", self._snapshot(tmp_path, 0.001),
            "--baselines", self._baselines(tmp_path),
            "--cost", "analytic",
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "no drifted kernels" in text

    def test_drift_invalidates_and_retunes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        # Populate the cache for gemm_chain first.
        assert tune_main([
            "run", "gemm_chain", "--cost", "analytic", "--depth", "1",
            "--budget", "4", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        code = tune_main([
            "--if-drifted", self._snapshot(tmp_path, 0.5),
            "--baselines", self._baselines(tmp_path),
            "--cost", "analytic", "--depth", "1", "--budget", "4",
            "--cache-dir", cache_dir,
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "drifted" in text
        assert "invalidated 1 cache entry" in text
        # The retune ran a fresh search (cache was invalidated).
        assert "cache: miss" in text

    def test_drift_invalidates_cutout_entries(self, tmp_path, capsys):
        """Per-cutout cache entries (named ``<kernel>_cut_<state>``)
        belong to the drifted kernel: ``--if-drifted --cutout`` must
        invalidate them too, not warm-hit the stale winners."""
        cache_dir = str(tmp_path / "cache")
        assert tune_main([
            "run", "gemm_chain", "--cost", "analytic", "--cutout",
            "--budget", "4", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        code = tune_main([
            "--if-drifted", self._snapshot(tmp_path, 0.5),
            "--baselines", self._baselines(tmp_path),
            "--cost", "analytic", "--cutout", "--budget", "4",
            "--cache-dir", cache_dir,
        ])
        text = capsys.readouterr().out
        assert code == 0
        # One entry per unique cutout group (LINKS + 1 for the default
        # 8-link CLI chain: 9), all gone.
        assert "invalidated 9 cache entries" in text
        assert "cache: miss" in text

    def test_missing_snapshot_is_error(self, tmp_path, capsys):
        code = tune_main([
            "--if-drifted", str(tmp_path / "nope.json"),
            "--baselines", self._baselines(tmp_path),
        ])
        assert code == 1

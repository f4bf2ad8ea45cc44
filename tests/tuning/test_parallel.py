"""The cutout tuner: dedup-aware search, history stitching,
differential verification, cache behaviour, and the CLI surface."""

import json
import os

import numpy as np
import pytest

from repro.codegen.progcache import ProgramCache
from repro.sdfg.serialize import sdfg_to_json
from repro.telemetry.sink import TelemetrySink, install_sink, uninstall_sink
from repro.tune import main as tune_main
from repro.tuning import (
    CUTOUT_POOL_EXCLUDED,
    AnalyticCost,
    MeasuredCost,
    cutout_pool,
    extract_state_cutout,
    parallel,
    tune,
    tune_cutouts,
)
from repro.workloads import kernels, polybench

LINKS = 3
SIZE = 8


def _chain():
    """Each link's product state wins MapReduceFusion on the analytic
    model, so the stitch path has a subject: one group of ``LINKS``
    identical product states and ``LINKS`` distinct scale states."""
    return kernels.matmul_chain_sdfg(LINKS)


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

    def test_custom_provider_forces_in_process(self):
        calls = []

        class Counting(AnalyticCost):
            def score(self, sdfg):
                calls.append(sdfg.name)
                return super().score(sdfg)

            def score_analysed(self, sdfg):
                calls.append(sdfg.name)
                return super().score_analysed(sdfg)

        result = tune_cutouts(_chain(), cost=Counting())
        # A custom provider scores the cutout searches as given.
        assert any("_cut_" in name for name in calls)
        assert result.report.cutouts["verification"].startswith("ok")

    def test_via_tune_strategy_dispatch(self):
        result = tune(_chain(), cost="analytic", strategy="cutout")
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
        per_cutout = [
            label for label in labels
            if label.startswith("cutout:") and label != "cutout:dedup"
        ]
        assert len(per_cutout) == LINKS + 1  # one event per unique group


    def test_failed_search_loses_its_cutout_not_the_call(self, monkeypatch):
        """A search that raises is an error outcome: the call returns,
        the region stays untuned, and the result still matches the
        reference."""
        real = parallel._tune_one_cutout

        def fails_on_mm0(cutout, *args):
            if cutout.label == "mm0":
                raise RuntimeError("search exploded")
            return real(cutout, *args)

        monkeypatch.setattr(parallel, "_tune_one_cutout", fails_on_mm0)
        result = tune_cutouts(_chain(), cost="analytic")
        records = {r["label"]: r for r in result.report.cutouts["per_cutout"]}
        assert records["mm0"]["error"] == "RuntimeError: search exploded"
        assert records["mm0"]["stitched"] == []
        assert [r for r in records.values() if "error" in r] == [records["mm0"]]
        data = kernels.gemm_chain_data(SIZE)
        ref = kernels.gemm_chain_reference(data, LINKS)
        got = _run(result.sdfg, data)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) / scale <= 1e-8

    def test_jobs_other_than_one_is_refused(self):
        with pytest.raises(ValueError, match="jobs=2"):
            tune(_chain(), cost="analytic", strategy="cutout", jobs=2)

    def test_measured_provider_drops_parent_inputs(self, tmp_path):
        measured = MeasuredCost(inputs={"A": np.ones(2)}, program_cache="off")
        cut = parallel._cutout_provider(measured, str(tmp_path))
        assert cut.inputs is None and measured.inputs is not None
        assert cut.key() == MeasuredCost().key()
        assert isinstance(cut.program_cache, ProgramCache)
        assert os.path.isdir(tmp_path / "programs")
        assert parallel._cutout_provider(measured, None).program_cache == "off"
        analytic = AnalyticCost()
        assert parallel._cutout_provider(analytic, str(tmp_path)) is analytic


# ------------------------------------------------------------- stitching
def test_a_member_failing_at_its_second_step_leaves_the_program():
    """A member's first step applies, its second has no counterpart:
    the member is rolled back to the copy taken before its first step,
    byte for byte, and the program can still be stitched."""
    tuned = _chain()
    tuned.validate()
    member = extract_state_cutout(tuned, tuned.nodes()[3])
    assert member.label == "mm1"
    first = {"transformation": "MapTiling", "match": 0}
    missing = {"transformation": "MapTiling", "match": 99}
    assert parallel._stitch_member(tuned.copy(), member, [first], False)[0]
    before = sdfg_to_json(tuned)
    applied, reason = parallel._stitch_member(tuned, member, [first, missing], False)
    assert applied is None
    assert reason.startswith("MapTiling[99] has no counterpart in state 'mm1'")
    assert sdfg_to_json(tuned) == before
    assert parallel._stitch_member(tuned, member, [first], False)[0]


class _MoreScopesWin(AnalyticCost):
    """Scores a variant lower the more scopes it has, so every cutout
    has a winner: what happens to a win that cannot be verified does not
    depend on which win it is, and on the analytic model no cholesky
    cutout improves."""

    def score(self, sdfg):
        return 1.0 / (1 + sum(len(st.entry_nodes()) for st in sdfg.nodes()))

    score_analysed = score


def test_an_unverified_stitch_is_not_a_result():
    """cholesky's baseline fails on synthesized inputs (a square root
    of a negative pivot), so its stitched program cannot be verified:
    the result reverts to the baseline with a W1002 that says why, and
    no stitch counts as kept."""
    sdfg = polybench.get("cholesky").make_sdfg()
    result = tune(sdfg, cost=_MoreScopesWin(), strategy="cutout", depth=2, budget=4)
    cuts = result.report.cutouts
    assert cuts["stitched"] == 0
    assert all(r["stitched"] for r in cuts["per_cutout"] if r["history"])
    assert any(r["stitched"] for r in cuts["per_cutout"])
    assert result.history == [] and result.report.winner == []
    assert cuts["verification"].startswith("skipped")
    assert "ValueError: math domain error" in cuts["verification"]
    assert result.best_score == result.baseline_score
    assert sdfg_to_json(result.sdfg) == sdfg_to_json(sdfg)
    (warning,) = [w for w in cuts["warnings"] if w["code"] == "W1002"]
    assert "baseline fails on the verification inputs" in warning["message"]
    assert "ValueError: math domain error" in warning["message"]


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
             "--cache-dir", str(tmp_path / "c"),
             "--assert-dedup"],
            capsys,
        )
        assert code == 0
        assert "cutouts:" in text

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            tune_main(["run", "gemm_chain", "--cutout", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

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

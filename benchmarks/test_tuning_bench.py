"""Auto-tuner benchmark: tuned-vs-naive measured runtime, the cost of
the search itself (cold search vs warm cache replay), and the
cutout-parallel strategy against the serial whole-SDFG search.

Not a paper figure — this validates the tuning subsystem at benchmark
scale: the winner found by :func:`repro.tuning.tune` must not be slower
than the naive SDFG on the measured backend, a warm cache must replace
the search with a single replay, and on the multi-state gemm chain the
cutout strategy must reach a cost no worse than the serial search while
evaluating fewer candidates (dedup: 16 states, 9 unique kernels).

With ``REPRO_BENCH_REPORTS`` set the module refreshes
``benchmarks/baselines/BENCH_tuning.json`` (tuned-kernel p50s the
perf-drift detector and ``repro.tune --if-drifted`` resolve against).
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import mean_seconds, run_once

from repro.tuning import MeasuredCost, cutout_pool, tune
from repro.workloads import kernels

SIZE = 48  # decisive margins on the python backend, still cheap

CHAIN_LINKS = 8   # 16 states: 8 identical inits + 8 distinct gemms
CHAIN_N = 48      # analytic problem size (symbols only, never executed)
CHAIN_EXEC_N = 16  # execution size for the stitched-correctness check

BASELINES_DIR = os.path.join(os.path.dirname(__file__), "baselines")


@pytest.fixture(scope="module")
def tuned(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("tuning-cache"))
    kwargs = dict(
        cost=MeasuredCost(symbol_default=SIZE),
        strategy="greedy",
        depth=3,
        budget=16,
        transformations=["MapReduceFusion", "MapFusion", "Vectorization"],
        cache_dir=cache_dir,
    )
    cold = tune(kernels.matmul_sdfg(), **kwargs)
    warm = tune(kernels.matmul_sdfg(), **kwargs)
    assert warm.cache_hit
    return cold


def test_tuned_matmul_vs_naive(benchmark, tuned, results_table):
    data = kernels.matmul_data(SIZE)
    ref = kernels.matmul_reference(data)

    compiled = tuned.sdfg.compile()
    run_once(benchmark, compiled, **data)
    np.testing.assert_allclose(data["C"], ref)

    naive = kernels.matmul_sdfg().compile()
    ndata = kernels.matmul_data(SIZE)
    import time

    t0 = time.perf_counter()
    naive(**ndata)
    naive_secs = time.perf_counter() - t0

    results_table.append(("tuning", "matmul", "tuned(search)", mean_seconds(benchmark)))
    results_table.append(("tuning", "matmul", "naive", naive_secs))
    # The tuner never returns a measured-slower winner.
    assert tuned.best_score <= tuned.baseline_score


def test_warm_cache_short_circuits(benchmark, tuned, tmp_path, results_table):
    """Replaying a cached winner is orders of magnitude cheaper than the
    search that produced it."""
    cache_dir = str(tmp_path / "cache")
    kwargs = dict(
        cost=MeasuredCost(symbol_default=SIZE),
        strategy="greedy",
        depth=3,
        budget=16,
        transformations=["MapReduceFusion", "MapFusion", "Vectorization"],
        cache_dir=cache_dir,
    )
    tune(kernels.matmul_sdfg(), **kwargs)  # populate

    result = run_once(benchmark, lambda: tune(kernels.matmul_sdfg(), **kwargs))
    assert result.cache_hit
    results_table.append(
        ("tuning", "matmul", "warm-cache-tune", mean_seconds(benchmark))
    )


# ================================================== cutout vs serial
@pytest.fixture(scope="module")
def chain_searches():
    """Serial whole-SDFG beam search vs cutout-parallel search over the
    same transformation pool and analytic cost model."""
    pool = cutout_pool()
    common = dict(cost="analytic", symbols={"N": CHAIN_N},
                  transformations=pool, depth=3)
    t0 = time.perf_counter()
    serial = tune(kernels.gemm_chain_sdfg(CHAIN_LINKS), strategy="beam",
                  beam_width=3, budget=96, **common)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    cutout = tune(kernels.gemm_chain_sdfg(CHAIN_LINKS), strategy="cutout",
                  budget=4, jobs=1, **common)
    cutout_wall = time.perf_counter() - t0
    return {"serial": serial, "serial_wall": serial_wall,
            "cutout": cutout, "cutout_wall": cutout_wall}


def test_cutout_cost_beats_serial_with_fewer_evals(chain_searches,
                                                   results_table):
    """The headline claim: tuning each unique kernel once and replaying
    the winner onto every occurrence reaches a cost no worse than the
    serial whole-SDFG search — from fewer cost evaluations."""
    serial, cutout = chain_searches["serial"], chain_searches["cutout"]
    assert cutout.best_score is not None and serial.best_score is not None
    assert cutout.best_score <= serial.best_score
    assert cutout.report.budget_used < serial.report.budget_used
    results_table.append(
        ("tuning", "gemm_chain", "serial-beam-search",
         chain_searches["serial_wall"]))
    results_table.append(
        ("tuning", "gemm_chain", "cutout-search",
         chain_searches["cutout_wall"]))


def test_cutout_dedup_and_stitching(chain_searches):
    cuts = chain_searches["cutout"].report.cutouts
    assert cuts["total"] == 2 * CHAIN_LINKS
    assert cuts["unique"] == CHAIN_LINKS + 1
    assert cuts["deduplicated"] == CHAIN_LINKS - 1
    assert cuts["stitched"] == 2 * CHAIN_LINKS
    assert cuts["verification"].startswith("ok")


def test_cutout_stitched_sdfg_correct_at_1e8(chain_searches):
    """Beyond the tuner's internal differential check: the stitched
    winner reproduces the numpy reference on fresh data."""
    data = kernels.gemm_chain_data(CHAIN_EXEC_N)
    ref = kernels.gemm_chain_reference(data, CHAIN_LINKS)
    env = {k: np.array(v, copy=True) for k, v in data.items()}
    sdfg = chain_searches["cutout"].sdfg
    sdfg.invalidate_compiled()
    sdfg.compile()(**env, N=CHAIN_EXEC_N)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(env["C"] - ref)) / scale <= 1e-8


def test_cutout_parallel_wall_clock(results_table):
    """Four workers vs one on the measured backend.  The ≥2x assertion
    needs real cores; on smaller runners the walls are still recorded."""
    def search(jobs):
        t0 = time.perf_counter()
        result = tune(
            kernels.gemm_chain_sdfg(CHAIN_LINKS),
            cost=MeasuredCost(symbol_default=CHAIN_EXEC_N),
            strategy="cutout", depth=2, budget=4, jobs=jobs,
            transformations=cutout_pool(),
        )
        wall = time.perf_counter() - t0
        assert result.report.cutouts["verification"].startswith("ok")
        return result, wall

    serial, serial_wall = search(1)
    parallel, parallel_wall = search(4)
    assert parallel.report.cutouts["jobs"] == 4
    results_table.append(("tuning", "gemm_chain", "cutout-jobs1", serial_wall))
    results_table.append(("tuning", "gemm_chain", "cutout-jobs4", parallel_wall))
    if (os.cpu_count() or 1) >= 4:
        assert serial_wall / parallel_wall >= 2.0, (
            f"expected >=2x at 4 workers, got "
            f"{serial_wall / parallel_wall:.2f}x "
            f"({serial_wall:.2f}s vs {parallel_wall:.2f}s)")


def test_refresh_tuning_baseline(tuned, chain_searches):
    """Measure the tuned kernels and (when ``REPRO_BENCH_REPORTS`` is
    set) refresh the committed perf-drift baseline."""
    def p50(sdfg, runs, **env):
        sdfg.invalidate_compiled()
        compiled = sdfg.compile()
        samples = []
        for _ in range(runs):
            t0 = time.perf_counter()
            compiled(**{k: np.array(v, copy=True)
                        if isinstance(v, np.ndarray) else v
                        for k, v in env.items()})
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples)), runs

    mm_p50, mm_n = p50(tuned.sdfg, 3, **kernels.matmul_data(SIZE))
    chain_p50, chain_n = p50(
        chain_searches["cutout"].sdfg, 3,
        **dict(kernels.gemm_chain_data(CHAIN_EXEC_N), N=CHAIN_EXEC_N))
    payload = json.dumps({
        "kernels": {
            "matmul": {"p50": mm_p50, "count": mm_n},
            "gemm_chain": {"p50": chain_p50, "count": chain_n},
        },
        "search": {
            "serial_evals": chain_searches["serial"].report.budget_used,
            "cutout_evals": chain_searches["cutout"].report.budget_used,
            "serial_score": chain_searches["serial"].best_score,
            "cutout_score": chain_searches["cutout"].best_score,
        },
    }, indent=1, sort_keys=True)
    target = os.environ.get("REPRO_BENCH_REPORTS", "")
    if not target:
        return
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, "BENCH_tuning.json"), "w") as f:
        f.write(payload)
    os.makedirs(BASELINES_DIR, exist_ok=True)
    with open(os.path.join(BASELINES_DIR, "BENCH_tuning.json"), "w") as f:
        f.write(payload)

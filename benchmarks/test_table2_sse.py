"""Table 2 — Scattering-Self-Energy runtime: OMEN vs Python(numpy) vs
DaCe (paper §6.4, scaled problem).

Paper rows (4,864-atom nanostructure):
    OMEN          965.45 s   (1.3% peak)   1x
    Python/numpy  30,560 s   (0.2% peak)   0.03x
    DaCe          29.93 s    (20.4% peak)  32.26x

Expected shape here: same strict ordering (naive interpreted loops <<
per-call small-GEMM OMEN style << batched data-centric), with the DaCe
restructuring winning by a wide margin.
"""

import numpy as np
import pytest

from repro.workloads.sse import (
    SSEProblem,
    make_sse_data,
    sse_dace,
    sse_numpy_naive,
    sse_omen,
)
from conftest import mean_seconds, run_once

PROBLEM = SSEProblem(nkz=4, ne=12, nqz=4, nw=4, nb=8)
SMALL = SSEProblem(nkz=2, ne=4, nqz=2, nw=2, nb=6)  # for the slow naive row

_TIMES = {}


@pytest.fixture(scope="module")
def data():
    return make_sse_data(PROBLEM)


def test_table2_omen_role(benchmark, results_table, data):
    run_once(benchmark, sse_omen, PROBLEM, data, rounds=2)
    _TIMES["omen"] = mean_seconds(benchmark)
    results_table.append(("table2", "SSE", "omen(small-gemms)", _TIMES["omen"]))


def test_table2_numpy_naive_role(benchmark, results_table):
    # Interpreted elementwise loops: measured on the smaller problem and
    # normalized per useful flop.
    d = make_sse_data(SMALL)
    run_once(benchmark, sse_numpy_naive, SMALL, d)
    secs = mean_seconds(benchmark)
    if secs is None:
        return
    _TIMES["numpy_naive_scaled"] = secs / SMALL.flops() * PROBLEM.flops()
    results_table.append(
        ("table2", "SSE", "python-naive(scaled)", _TIMES["numpy_naive_scaled"])
    )


def test_table2_dace_role(benchmark, results_table, data):
    ref = sse_omen(PROBLEM, data)
    result = run_once(benchmark, sse_dace, PROBLEM, data, rounds=3)
    np.testing.assert_allclose(result, ref)
    _TIMES["dace"] = mean_seconds(benchmark)
    results_table.append(("table2", "SSE", "dace(sbsmm)", _TIMES["dace"]))


def test_table2_ordering(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if mean_seconds(benchmark) is None:
        pytest.skip("timing is off (--benchmark-disable)")
    assert set(_TIMES) == {"omen", "numpy_naive_scaled", "dace"}
    omen, naive, dace = (
        _TIMES["omen"], _TIMES["numpy_naive_scaled"], _TIMES["dace"]
    )
    speedup_vs_omen = omen / dace
    speedup_vs_naive = naive / dace
    print(
        f"\ntable2 (scaled): omen={omen*1e3:.2f} ms, "
        f"python-naive={naive*1e3:.2f} ms, dace={dace*1e3:.2f} ms"
    )
    print(
        f"  dace vs omen: {speedup_vs_omen:.1f}x (paper: 32.26x); "
        f"dace vs python: {speedup_vs_naive:.0f}x (paper: ~1021x)"
    )
    # The Table 2 ordering and sizeable factors must hold.
    assert dace < omen < naive
    assert speedup_vs_omen > 2
    assert speedup_vs_naive > 20

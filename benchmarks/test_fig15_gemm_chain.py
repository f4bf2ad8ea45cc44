"""Fig. 15 — the matrix-multiplication transformation chain (§6.2).

Starting from the Fig. 9b map-reduce SDFG, each chain step applies one
data-centric transformation and re-measures, reproducing the figure's
progression: not every step yields an immediate speedup, but the chain
ends within striking distance of the tuned library (paper: ~536x over
the unoptimized SDFG after 7 steps, 98.6% of MKL after tuning).

Chain steps on this testbed (DESIGN.md §1 maps the paper's steps to the
effective ones here): Unoptimized (tmp tensor + Reduce) ->
MapReduceFusion -> MapExpansion+MapCollapse (the LoopReorder role) ->
MapTiling -> Vectorization (contraction lowering) -> tuned library call.
"""

import time

import numpy as np
import pytest

from repro.transformations import (
    MapCollapse,
    MapExpansion,
    MapReduceFusion,
    MapTiling,
    Vectorization,
    apply_transformations,
)
from repro.workloads.kernels import matmul_data, matmul_sdfg
from conftest import mean_seconds, run_once

N = 160

CHAIN = [
    ("0-unoptimized", None),
    ("1-MapReduceFusion", lambda s: apply_transformations(s, MapReduceFusion)),
    ("2-LoopReorder", lambda s: apply_transformations(s, [MapExpansion, MapCollapse])),
    ("3-MapTiling", lambda s: apply_transformations(
        s, MapTiling, options={"tile_sizes": (32, 32, 32)})),
    ("4-Vectorization", lambda s: apply_transformations(s, Vectorization)),
]

_TIMES = {}


def _chain_sdfg(upto: int):
    sdfg = matmul_sdfg()
    for label, step in CHAIN[1 : upto + 1]:
        assert step(sdfg) >= 1, label
    return sdfg


@pytest.mark.parametrize("step", range(len(CHAIN)))
def test_fig15_chain_step(benchmark, results_table, step):
    label = CHAIN[step][0]
    sdfg = _chain_sdfg(step)
    data = matmul_data(N)
    ref = data["A"] @ data["B"]
    comp = sdfg.compile()

    def run():
        data["C"][:] = 0
        comp(**data)

    run_once(benchmark, run, rounds=2)
    np.testing.assert_allclose(data["C"], ref, rtol=1e-9)
    secs = mean_seconds(benchmark)
    if secs is None:
        return
    gflops = 2 * N**3 / secs / 1e9
    benchmark.extra_info["gflops"] = gflops
    _TIMES[label] = secs
    results_table.append(("fig15", f"GEMM {label}", f"{gflops:.2f} Gflop/s", secs))


def test_fig15_tuned_step(benchmark, results_table):
    """The paper's final move: "tuning transformation parameters for a
    specific size" lifts 75% of MKL to 98.6%.  Here: re-derive the chain
    with the tile size tuned to the problem (one full-size tile), letting
    the contraction lowering see the whole operand."""
    sdfg = matmul_sdfg()
    apply_transformations(sdfg, MapReduceFusion)
    apply_transformations(sdfg, MapTiling, options={"tile_sizes": (N, N, N)})
    apply_transformations(sdfg, Vectorization)
    data = matmul_data(N)
    ref = data["A"] @ data["B"]
    comp = sdfg.compile()

    def run():
        data["C"][:] = 0
        comp(**data)

    run_once(benchmark, run, rounds=3)
    np.testing.assert_allclose(data["C"], ref, rtol=1e-9)
    secs = mean_seconds(benchmark)
    if secs is None:
        return
    _TIMES["5-TunedTileSize"] = secs
    results_table.append(
        ("fig15", "GEMM 5-TunedTileSize", f"{2 * N**3 / secs / 1e9:.2f} Gflop/s", secs)
    )


def test_fig15_library_bound(benchmark, results_table):
    data = matmul_data(N)
    run_once(benchmark, lambda: data["A"] @ data["B"], rounds=3)
    secs = mean_seconds(benchmark)
    if secs is None:
        return
    _TIMES["6-library(MKL role)"] = secs
    results_table.append(
        ("fig15", "GEMM 6-library", f"{2 * N**3 / secs / 1e9:.2f} Gflop/s", secs)
    )


def test_fig15_progression_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The figure's shape: a large total factor from unoptimized to the
    final vectorized step, ending in the library's performance class."""
    if mean_seconds(benchmark) is None:
        pytest.skip("timing is off (--benchmark-disable)")
    assert len(_TIMES) == len(CHAIN) + 2
    unopt = _TIMES["0-unoptimized"]
    final = _TIMES["5-TunedTileSize"]
    lib = _TIMES["6-library(MKL role)"]
    total_factor = unopt / final
    print("\nfig15 chain times:")
    for label in sorted(_TIMES):
        print(f"  {label:24s} {_TIMES[label] * 1e3:10.3f} ms")
    print(f"  total chain speedup: {total_factor:.1f}x (paper: ~536x over 7 steps)")
    assert total_factor > 20
    assert final < 10 * lib  # same performance class as the tuned library

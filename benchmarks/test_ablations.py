"""Ablation benchmarks for the design choices DESIGN.md §4 calls out:

* WCR lowering strategy — per-element conflict-resolved pushes vs the
  LocalStream bulk accumulation (the paper's §6.3 step ❷ rationale),
* memlet-propagation copy volume — exact propagated footprints vs
  whole-array transfers on the GPU model (the Fig. 13b mechanism),
* tile-size sweep for MapTiling on GEMM (DIODE's tuning loop, §4.2),
* strict-transformation pass effect on graph size (Appendix D's
  RedundantArray motivation).
"""

import numpy as np
import pytest

from repro.runtime.machine import TESLA_P100
from repro.runtime.perfmodel import simulate
from repro.sdfg import SDFG, Memlet, dtypes
from repro.transformations import (
    GPUTransform,
    MapReduceFusion,
    MapTiling,
    RedundantArray,
    Vectorization,
    apply_strict_transformations,
    apply_transformations,
)
from repro.library.graphs import road_network
from repro.workloads.bfs import build_bfs_sdfg
from repro.workloads.kernels import matmul_data, matmul_sdfg
from conftest import mean_seconds, run_once


@pytest.mark.parametrize("optimized", [False, True])
def test_ablation_wcr_localstream(benchmark, results_table, optimized):
    """BFS with and without LocalStream (bulk frontier updates)."""
    g = road_network(32, keep=0.7, seed=11)
    comp = build_bfs_sdfg(optimized=optimized).compile()
    depth = np.zeros(g.num_vertices, np.int32)

    def run():
        comp(G_row=g.indptr, G_col=g.indices, depth=depth, src=0,
             V=g.num_vertices, E=g.num_edges)

    run_once(benchmark, run)
    label = "localstream" if optimized else "per-element-push"
    results_table.append(("ablation-wcr", "BFS", label, mean_seconds(benchmark)))


def test_ablation_copy_volume(benchmark):
    """Exact propagated-footprint transfers vs whole-array transfers: the
    data-movement knowledge memlets encode is worth real PCIe time."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sdfg = SDFG("halfcopy")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("out", ("N",), dtypes.float64)
    st = sdfg.add_state()
    # Only the first half of A is ever read.
    st.add_mapped_tasklet(
        "t",
        {"i": "0:N//2"},
        inputs={"a": Memlet.simple("A", "i")},
        code="o = a * 2",
        outputs={"o": Memlet.simple("out", "i")},
    )
    apply_transformations(sdfg, GPUTransform, validate=False)
    syms = {"N": 1 << 24}
    rep = simulate(sdfg, "gpu", syms)
    # Propagated copy-in moves A's used half; whole-array doubles it.
    n_bytes = (1 << 24) * 8
    whole = rep.time - TESLA_P100.time_transfer(rep.transfer_bytes) + \
        TESLA_P100.time_transfer(2 * n_bytes)
    print(f"\nablation copy volume: propagated={rep.time*1e3:.2f} ms, "
          f"whole-array={whole*1e3:.2f} ms")
    assert rep.transfer_bytes < 2 * n_bytes
    assert rep.time < whole


@pytest.mark.parametrize("tile", [8, 32, 64, 160])
def test_ablation_tile_sweep(benchmark, results_table, tile):
    """MapTiling tile-size sweep on GEMM (the DIODE tuning workflow)."""
    n = 160
    sdfg = matmul_sdfg()
    apply_transformations(sdfg, MapReduceFusion)
    apply_transformations(sdfg, MapTiling, options={"tile_sizes": (tile,) * 3})
    apply_transformations(sdfg, Vectorization)
    data = matmul_data(n)
    ref = data["A"] @ data["B"]
    comp = sdfg.compile()

    def run():
        data["C"][:] = 0
        comp(**data)

    run_once(benchmark, run, rounds=2)
    np.testing.assert_allclose(data["C"], ref, rtol=1e-9)
    results_table.append(
        ("ablation-tile", "GEMM", f"tile={tile}", mean_seconds(benchmark))
    )


def test_ablation_strict_transformations(benchmark):
    """RedundantArray removes copy chains (Appendix D's motivation:
    'this situation often happens after transformations and due to the
    strict nature of some frontends')."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sdfg = SDFG("chainy")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state()
    prev = st.add_read("A")
    # A -> t0 -> t1 -> t2 -> B : transient relay chain.
    for i in range(3):
        name, _ = sdfg.add_transient(f"t{i}", ("N",), dtypes.float64,
                                     find_new_name=False)
        node = st.add_access(name)
        st.add_edge(prev, node, Memlet(data=prev.data, subset="0:N"), None, None)
        prev = node
    b = st.add_write("B")
    st.add_edge(prev, b, Memlet(data=prev.data, subset="0:N"), None, None)
    n_arrays = len(sdfg.arrays)
    applied = apply_strict_transformations(sdfg)
    assert applied >= 3
    assert len(sdfg.arrays) == n_arrays - 3  # all transients eliminated
    A = np.random.rand(16)
    B = np.zeros(16)
    sdfg.compile()(A=A, B=B)
    np.testing.assert_allclose(B, A)

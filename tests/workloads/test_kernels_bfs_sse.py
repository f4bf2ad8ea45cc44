"""Tests for the fundamental kernels (§6.1), BFS (§6.3), and SSE (§6.4)."""

import numpy as np
import pytest

from repro.library.graphs import (
    UNVISITED,
    bfs_direction_optimizing,
    bfs_level_sync,
    bfs_reference,
    kronecker_graph,
    road_network,
    social_network,
)
from repro.workloads import kernels
from repro.workloads.bfs import build_bfs_sdfg, run_bfs
from repro.workloads.sse import (
    SSEProblem,
    build_sse_sdfg,
    make_sse_data,
    sse_dace,
    sse_numpy_naive,
    sse_omen,
)


class TestFundamentalKernels:
    def test_matmul(self):
        data = kernels.matmul_data(24)
        ref = kernels.matmul_reference(data)
        sdfg = kernels.matmul_sdfg()
        sdfg.compile()(**data)
        np.testing.assert_allclose(data["C"], ref)

    def test_matmul_optimized_chain(self):
        data = kernels.matmul_data(24)
        ref = kernels.matmul_reference(data)
        sdfg = kernels.optimize_matmul(kernels.matmul_sdfg())
        assert "MapReduceFusion" in sdfg.transformation_history
        comp = sdfg.compile()
        assert "contraction" in {r["tier"] for r in comp.lowering}
        comp(**data)
        np.testing.assert_allclose(data["C"], ref)

    def test_jacobi2d(self):
        data = kernels.jacobi2d_data(20)
        steps = 6
        ref = kernels.jacobi2d_reference(data["A"], steps)
        sdfg = kernels.jacobi2d_sdfg()
        sdfg.compile()(A=data["A"], T=steps)
        np.testing.assert_allclose(data["A"], ref)

    def test_histogram(self):
        bins = 16
        data = kernels.histogram_data(24, 30, bins=bins)
        ref = kernels.histogram_reference(data["img"], bins)
        sdfg = kernels.histogram_sdfg()
        sdfg.compile()(**data)
        np.testing.assert_array_equal(data["hist"], ref)
        assert data["hist"].sum() == 24 * 30

    def test_query(self):
        data = kernels.query_data(200)
        expected = kernels.query_reference(data["col"], 0.5)
        sdfg = kernels.query_sdfg()
        sdfg.compile()(**data)
        count = int(data["size"][0])
        assert count == len(expected)
        np.testing.assert_allclose(np.sort(data["out"][:count]), np.sort(expected))

    def test_spmv(self):
        data, csr = kernels.spmv_data(40, 8)
        sdfg = kernels.spmv_sdfg()
        sdfg.compile()(**data)
        ref = csr.spmv(data["x"])
        np.testing.assert_allclose(data["b"], ref, rtol=1e-5)


class TestGraphGenerators:
    def test_road_network_characteristics(self):
        g = road_network(24, keep=0.65)
        assert 1.8 < g.avg_degree < 3.2  # USA road map regime (~2.4)
        assert g.max_degree <= 4

    def test_social_network_heavy_tail(self):
        g = social_network(600, edges_per_vertex=10)
        assert g.max_degree > 5 * g.avg_degree  # skewed degrees

    def test_kronecker(self):
        g = kronecker_graph(8, edge_factor=8)
        assert g.num_vertices == 256
        assert g.num_edges > 0

    @pytest.mark.parametrize("maker", [
        lambda: road_network(10),
        lambda: social_network(200, 6),
        lambda: kronecker_graph(6, 4),
    ])
    def test_baseline_bfs_agree(self, maker):
        g = maker()
        ref = bfs_reference(g, 0)
        np.testing.assert_array_equal(bfs_level_sync(g, 0), ref)
        np.testing.assert_array_equal(bfs_direction_optimizing(g, 0), ref)


class TestBFSWorkload:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_bfs_matches_reference(self, optimized):
        g = road_network(10, keep=0.8, seed=3)
        ref = bfs_reference(g, 0)
        sdfg = build_bfs_sdfg(optimized=optimized)
        depth = run_bfs(sdfg, g, 0)
        np.testing.assert_array_equal(depth, ref)

    def test_bfs_on_social_graph(self):
        g = social_network(250, 7)
        ref = bfs_reference(g, 5)
        depth = run_bfs(build_bfs_sdfg(), g, 5)
        np.testing.assert_array_equal(depth, ref)

    def test_bfs_structure_matches_fig16(self):
        """The optimized BFS state uses: data-dependent map ranges, an
        indirection through G_row, stream pushes, and Sum-WCR size."""
        from repro.sdfg.data import Stream
        from repro.sdfg.nodes import MapEntry

        sdfg = build_bfs_sdfg(optimized=True)
        body = [s for s in sdfg.states() if s.name == "body"][0]
        entries = [n for n in body.nodes() if isinstance(n, MapEntry)]
        assert len(entries) == 2  # frontier sweep + neighbor map
        dyn_conns = [
            c for e in entries for c in e.in_connectors if not c.startswith("IN_")
        ]
        assert dyn_conns  # data-dependent ranges
        assert any(
            isinstance(sdfg.arrays.get(e.data.data), Stream)
            for e in body.edges()
            if not e.data.is_empty()
        )
        assert any(e.data.wcr for e in body.edges() if not e.data.is_empty())
        assert "LocalStream" in sdfg.transformation_history

    def test_disconnected_vertices_stay_unvisited(self):
        g = road_network(6, keep=0.3, seed=9)  # likely disconnected
        ref = bfs_reference(g, 0)
        depth = run_bfs(build_bfs_sdfg(), g, 0)
        np.testing.assert_array_equal(depth, ref)
        if (ref == UNVISITED).any():
            assert (depth == UNVISITED).any()


class TestSSEWorkload:
    def setup_method(self):
        self.p = SSEProblem(nkz=2, ne=4, nqz=2, nw=2, nb=4)
        self.data = make_sse_data(self.p)
        self.ref = sse_omen(self.p, self.data)

    def test_numpy_naive_agrees(self):
        np.testing.assert_allclose(sse_numpy_naive(self.p, self.data), self.ref)

    def test_dace_agrees(self):
        np.testing.assert_allclose(sse_dace(self.p, self.data), self.ref)

    def test_sdfg_agrees(self):
        sdfg = build_sse_sdfg(self.p)
        out = {k: v.copy() for k, v in self.data.items()}
        sdfg.compile()(**out)
        np.testing.assert_allclose(out["Sigma"], self.ref)

    def test_flop_count_positive(self):
        assert self.p.flops() > 0

    def test_dace_faster_than_omen_at_scale(self):
        import time

        p = SSEProblem(nkz=4, ne=12, nqz=4, nw=4, nb=8)
        d = make_sse_data(p)
        t0 = time.perf_counter()
        sse_omen(p, d)
        t_omen = time.perf_counter() - t0
        t0 = time.perf_counter()
        sse_dace(p, d)
        t_dace = time.perf_counter() - t0
        assert t_dace < t_omen  # the Table 2 ordering

"""Tests for the Python/NumPy code generator, incl. differential tests
against the reference interpreter (the semantic ground truth)."""

import numpy as np
import pytest

from repro.codegen import compile_sdfg, generate_code
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes


def run_both(sdfg, **kwargs):
    """Run codegen and interpreter on separate copies of the outputs."""
    comp = compile_sdfg(sdfg)
    interp = SDFGInterpreter(sdfg, validate=False)
    cg = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in kwargs.items()}
    it = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in kwargs.items()}
    comp(**cg)
    interp(**it)
    return cg, it, comp


def assert_same(cg, it):
    for k in cg:
        if isinstance(cg[k], np.ndarray):
            np.testing.assert_allclose(cg[k], it[k], rtol=1e-12, err_msg=k)


class TestVectorizedLowering:
    def test_elementwise(self):
        sdfg = SDFG("ew")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "f",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = a * a + 1",
            outputs={"b": Memlet.simple("B", "i")},
        )
        comp = compile_sdfg(sdfg)
        assert "vectorized map" in comp.source
        A, B = np.random.rand(50), np.zeros(50)
        comp(A=A, B=B)
        assert np.allclose(B, A * A + 1)

    def test_2d_offdiagonal_affine(self):
        # B[i, j] = A[j, 2*i + 1] — transposed, strided, offset.
        sdfg = SDFG("aff")
        sdfg.add_array("A", ("N", "2*N + 1"), dtypes.float64)
        sdfg.add_array("B", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N", "j": "0:N"},
            inputs={"a": Memlet.simple("A", "j, 2*i + 1")},
            code="b = a",
            outputs={"b": Memlet.simple("B", "i, j")},
        )
        comp = compile_sdfg(sdfg)
        assert "vectorized map" in comp.source
        N = 6
        A = np.random.rand(N, 2 * N + 1)
        B = np.zeros((N, N))
        comp(A=A, B=B)
        expected = np.empty((N, N))
        for i in range(N):
            for j in range(N):
                expected[i, j] = A[j, 2 * i + 1]
        assert np.allclose(B, expected)

    def test_params_in_code(self):
        sdfg = SDFG("idx")
        sdfg.add_array("B", ("N", "M"), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N", "j": "0:M"},
            inputs={},
            code="b = i * 10 + j",
            outputs={"b": Memlet.simple("B", "i, j")},
        )
        comp = compile_sdfg(sdfg)
        B = np.zeros((3, 4))
        comp(B=B)
        expected = np.arange(3)[:, None] * 10 + np.arange(4)[None, :]
        assert np.allclose(B, expected)

    def test_wcr_reduction_missing_param(self):
        # Row sums: j is absent from output subset -> reduce over axis.
        sdfg = SDFG("rowsum")
        sdfg.add_array("A", ("N", "M"), dtypes.float64)
        sdfg.add_array("r", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N", "j": "0:M"},
            inputs={"a": Memlet.simple("A", "i, j")},
            code="o = a",
            outputs={"o": Memlet(data="r", subset="i", wcr="sum")},
        )
        comp = compile_sdfg(sdfg)
        A = np.random.rand(5, 7)
        r = np.zeros(5)
        comp(A=A, r=r)
        assert np.allclose(r, A.sum(axis=1))

    def test_conditional_expression_vectorizes(self):
        sdfg = SDFG("relu")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = a if a > 0 else 0.0",
            outputs={"b": Memlet.simple("B", "i")},
        )
        comp = compile_sdfg(sdfg)
        assert "np.where" in comp.source
        A = np.random.randn(40)
        B = np.zeros(40)
        comp(A=A, B=B)
        assert np.allclose(B, np.maximum(A, 0))

    def test_min_max_translate_to_ufuncs(self):
        sdfg = SDFG("clamp")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = min(max(a, 0.2), 0.8)",
            outputs={"b": Memlet.simple("B", "i")},
        )
        comp = compile_sdfg(sdfg)
        A = np.random.rand(30)
        B = np.zeros(30)
        comp(A=A, B=B)
        assert np.allclose(B, np.clip(A, 0.2, 0.8))


class TestEinsumLowering:
    def test_matmul_einsum_when_marked(self):
        sdfg = SDFG("mm")
        sdfg.add_array("A", ("M", "K"), dtypes.float64)
        sdfg.add_array("B", ("K", "N"), dtypes.float64)
        sdfg.add_array("C", ("M", "N"), dtypes.float64)
        st = sdfg.add_state()
        _, me, _ = st.add_mapped_tasklet(
            "mm",
            {"i": "0:M", "j": "0:N", "k": "0:K"},
            inputs={"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j")},
            code="o = a * b",
            outputs={"o": Memlet(data="C", subset="i, j", wcr="sum")},
        )
        me.map.vectorized = True
        comp = compile_sdfg(sdfg)
        assert [r["tier"] for r in comp.lowering] == ["contraction"]
        assert "(A[0:M, 0:K] @ B[0:K, 0:N])" in comp.source
        A, B = np.random.rand(5, 7), np.random.rand(7, 6)
        C = np.zeros((5, 6))
        comp(A=A, B=B, C=C)
        assert np.allclose(C, A @ B)

    def test_unmarked_map_avoids_einsum(self):
        sdfg = SDFG("mm2")
        sdfg.add_array("A", ("M", "K"), dtypes.float64)
        sdfg.add_array("B", ("K", "N"), dtypes.float64)
        sdfg.add_array("C", ("M", "N"), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "mm",
            {"i": "0:M", "j": "0:N", "k": "0:K"},
            inputs={"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j")},
            code="o = a * b",
            outputs={"o": Memlet(data="C", subset="i, j", wcr="sum")},
        )
        comp = compile_sdfg(sdfg)
        # The shape alone decides: an unmarked product contracts too.
        assert [r["tier"] for r in comp.lowering] == ["contraction"]
        assert "einsum" not in comp.source and " @ " in comp.source
        A, B = np.random.rand(4, 3), np.random.rand(3, 5)
        C = np.zeros((4, 5))
        comp(A=A, B=B, C=C)
        assert np.allclose(C, A @ B)


    @pytest.mark.parametrize("marked", [True, False])
    def test_scaled_gemm_chain_links(self, marked):
        """Fig. 15's program: every link is ``o = alpha_k * x * y``.  A
        constant factor still contracts (``alpha * (x @ y)``), whether or
        not the Vectorization step marked the map."""
        from repro.transformations import (
            Vectorization,
            apply_transformations_repeated,
        )
        from repro.workloads import kernels

        sdfg = kernels.gemm_chain_sdfg()
        if marked:
            assert apply_transformations_repeated(sdfg, Vectorization) == 16
        comp = compile_sdfg(sdfg)
        tiers = {r["map"]: r["tier"] for r in comp.lowering}
        assert "1.125 * (" in comp.source and "einsum" not in comp.source
        assert tiers == {"gemm": "contraction", "zero": "slice"}
        data = kernels.gemm_chain_data(12)
        comp(**data)
        np.testing.assert_allclose(
            data["C"], kernels.gemm_chain_reference(data), rtol=1e-9, atol=0
        )

    def test_pure_product_detection(self):
        from repro.codegen.pytranslate import detect_pure_product as detect

        assert detect("o = x * y", ["x", "y"], "o") == 1
        assert detect("o = 1.125 * x * y", ["x", "y"], "o") == 1.125
        assert detect("o = x * -2 * y * 0.5", ["x", "y"], "o") == -1.0
        assert detect("o = x * y + 1", ["x", "y"], "o") is None
        assert detect("o = x * x", ["x", "y"], "o") is None
        assert detect("o = True * x * y", ["x", "y"], "o") is None
        assert detect("p = x * y", ["x", "y"], "o") is None


class TestLoopFallback:
    def test_indirect_access(self):
        sdfg = SDFG("gather")
        sdfg.add_array("idx", ("N",), dtypes.int64)
        sdfg.add_array("v", ("M",), dtypes.float64)
        sdfg.add_array("out", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "g",
            {"i": "0:N"},
            inputs={
                "ii": Memlet.simple("idx", "i"),
                "vv": Memlet(data="v", subset="0:M", volume=1),
            },
            code="o = vv[ii]",
            outputs={"o": Memlet.simple("out", "i")},
        )
        comp = compile_sdfg(sdfg)
        assert "for i in range" in comp.source
        idx = np.array([3, 1, 4, 1, 5])
        v = np.arange(10.0)
        out = np.zeros(5)
        comp(idx=idx, v=v, out=out)
        assert np.allclose(out, v[idx])

    def test_dynamic_write_skipped_when_unassigned(self):
        sdfg = SDFG("filter")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("out", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "f",
            {"i": "0:N"},
            inputs={"a": Memlet(data="A", subset="i"), "prev": Memlet(data="out", subset="i", volume=1)},
            code="if a > 0.5:\n    o = a",
            outputs={"o": Memlet(data="out", subset="i", dynamic=True)},
        )
        comp = compile_sdfg(sdfg)
        A = np.random.rand(32)
        out = np.full(32, -1.0)
        comp(A=A, out=out)
        expected = np.where(A > 0.5, A, -1.0)
        assert np.allclose(out, expected)

    def test_connector_colliding_with_array_name(self):
        sdfg = SDFG("collide")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        # Connector named 'A' shadows the container name.
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={"A": Memlet(data="B", subset="0:N", volume=1)},
            code="o = A[i] * 2",
            outputs={"o": Memlet.simple("A", "i")},
        )
        comp = compile_sdfg(sdfg)
        A, B = np.zeros(8), np.random.rand(8)
        comp(A=A, B=B)
        assert np.allclose(A, B * 2)


class TestStateMachineCodegen:
    def test_loop(self):
        sdfg = SDFG("loop")
        sdfg.add_array("v", (1,), dtypes.float64)
        sdfg.add_symbol("T")
        body = sdfg.add_state("body")
        t = body.add_tasklet("inc", ["a"], ["b"], "b = a + 2")
        body.add_edge(body.add_read("v"), t, Memlet.simple("v", "0"), None, "a")
        body.add_edge(t, body.add_write("v"), Memlet.simple("v", "0"), "b", None)
        init = sdfg.add_state("init", is_start=True)
        sdfg.add_loop(init, body, None, "k", 0, "k < T", "k + 1")
        comp = compile_sdfg(sdfg)
        v = np.zeros(1)
        comp(v=v, T=9)
        assert v[0] == 18

    def test_data_dependent_branching(self):
        sdfg = SDFG("branch")
        sdfg.add_array("C", (1,), dtypes.float64)
        start = sdfg.add_state("start")
        yes = sdfg.add_state("yes")
        t = yes.add_tasklet("t", [], ["o"], "o = 1.0")
        yes.add_edge(t, yes.add_write("C"), Memlet.simple("C", "0"), "o", None)
        no = sdfg.add_state("no")
        t2 = no.add_tasklet("t", [], ["o"], "o = -1.0")
        no.add_edge(t2, no.add_write("C"), Memlet.simple("C", "0"), "o", None)
        sdfg.add_edge(start, yes, InterstateEdge(condition="C > 10"))
        sdfg.add_edge(start, no, InterstateEdge(condition="C <= 10"))
        comp = compile_sdfg(sdfg)
        c = np.array([50.0])
        comp(C=c)
        assert c[0] == 1.0
        c = np.array([3.0])
        comp(C=c)
        assert c[0] == -1.0


class TestDifferential:
    """Same SDFG through codegen and interpreter must agree exactly."""

    def test_jacobi_sweep(self):
        sdfg = SDFG("jac")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        sdfg.add_array("B", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "jac",
            {"i": "1:N-1", "j": "1:N-1"},
            inputs={
                "c": Memlet.simple("A", "i, j"),
                "n": Memlet.simple("A", "i-1, j"),
                "s": Memlet.simple("A", "i+1, j"),
                "w": Memlet.simple("A", "i, j-1"),
                "e": Memlet.simple("A", "i, j+1"),
            },
            code="o = 0.2 * (c + n + s + w + e)",
            outputs={"o": Memlet.simple("B", "i, j")},
        )
        A = np.random.rand(12, 12)
        B = np.zeros((12, 12))
        cg, it, comp = run_both(sdfg, A=A, B=B)
        assert_same(cg, it)
        assert "vectorized" in comp.source

    def test_histogram_wcr_indirect(self):
        sdfg = SDFG("hist")
        sdfg.add_array("img", ("N",), dtypes.float64)
        sdfg.add_array("hist", ("B_",), dtypes.int64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "h",
            {"i": "0:N"},
            inputs={
                "v": Memlet.simple("img", "i"),
                "hh": Memlet(data="hist", subset="0:B_", volume=1, dynamic=True),
            },
            code="hh[min(int(v * B_), B_ - 1)] += 1",
            outputs={"hh_out": Memlet(data="hist", subset="0:B_", volume=1, dynamic=True)},
        )
        # hh is an in/out pointer-style connector: read-modify-write.
        img = np.random.rand(100)
        hist = np.zeros(8, np.int64)
        cg, it, comp = run_both(sdfg, img=img, hist=hist)
        assert_same(cg, it)
        assert cg["hist"].sum() == 100

    def test_multistate_accumulation(self):
        sdfg = SDFG("acc")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("total", (1,), dtypes.float64)
        sdfg.add_symbol("T")
        body = sdfg.add_state("body")
        body.add_mapped_tasklet(
            "sum",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="o = a",
            outputs={"o": Memlet(data="total", subset="0", wcr="sum")},
        )
        init = sdfg.add_state("init", is_start=True)
        sdfg.add_loop(init, body, None, "t", 0, "t < T", "t + 1")
        A = np.random.rand(10)
        total = np.zeros(1)
        cg, it, _ = run_both(sdfg, A=A, total=total, T=3)
        assert_same(cg, it)
        assert np.allclose(cg["total"][0], 3 * A.sum())


class TestGeneratedSourceShape:
    def test_source_is_valid_python(self):
        sdfg = SDFG("src")
        sdfg.add_array("A", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = a + 1",
            outputs={"b": Memlet.simple("A", "i")},
        )
        src = generate_code(sdfg, "python")
        compile(src, "<gen>", "exec")  # must parse

    def test_transient_allocation_in_source(self):
        sdfg = SDFG("tr")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_transient("tmp", ("N", "N"), dtypes.float32, find_new_name=False)
        st = sdfg.add_state()
        st.add_nedge(st.add_read("A"), st.add_access("tmp"))
        src = generate_code(sdfg, "python")
        assert "np.zeros((N, N,), dtype=np.float32)" in src

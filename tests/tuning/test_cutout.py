"""Cutout extraction property tests (the cutout tuner's soundness
basis): executing a program state-by-state through extracted cutouts on
boundary-derived inputs must match the parent program at 1e-8, and
structurally identical cutouts must hash into one group."""

import copy

import numpy as np
import pytest

from repro.codegen import compile_sdfg
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes
from repro.tuning import (
    CutoutError,
    execute_cutouts,
    extract_state_cutout,
    extract_state_cutouts,
    group_cutouts,
    grouping_hash,
)
from repro.workloads import kernels

TOL = 1e-8


def _outputs(sdfg, env):
    return {
        name: env[name]
        for name, desc in sdfg.arrays.items()
        if not desc.transient and name in env
        and isinstance(env[name], np.ndarray)
    }


def _run_parent(sdfg, arrays, symbols=None):
    env = {
        k: np.array(v, copy=True) if isinstance(v, np.ndarray) else v
        for k, v in arrays.items()
    }
    compiled = compile_sdfg(copy.deepcopy(sdfg), backend="interpreter")
    compiled(**env, **(symbols or {}))
    return _outputs(sdfg, env)


def _assert_cutouts_match_parent(sdfg, arrays, symbols=None):
    cutouts, warnings = extract_state_cutouts(sdfg)
    assert not warnings, [str(w) for w in warnings]
    assert cutouts, "expected at least one non-trivial cutout"
    expected = _run_parent(sdfg, arrays, symbols)
    actual = execute_cutouts(sdfg, cutouts, dict(arrays), symbols=symbols)
    assert set(expected) <= set(actual)
    for name, ref in expected.items():
        err = np.max(np.abs(np.asarray(actual[name], dtype=float) - ref)) if ref.size else 0.0
        assert err <= TOL, f"{name}: max abs error {err}"


# ------------------------------------------- fundamental-kernel fidelity
class TestFundamentalKernelFidelity:
    def test_matmul(self):
        _assert_cutouts_match_parent(kernels.matmul_sdfg(), kernels.matmul_data(8))

    def test_jacobi2d(self):
        data = dict(kernels.jacobi2d_data(8), T=3)
        _assert_cutouts_match_parent(kernels.jacobi2d_sdfg(), data)

    def test_histogram(self):
        data = kernels.histogram_data(8, 8, bins=16)
        _assert_cutouts_match_parent(kernels.histogram_sdfg(), data)

    def test_query(self):
        _assert_cutouts_match_parent(kernels.query_sdfg(), kernels.query_data(16))

    def test_spmv(self):
        data, _ = kernels.spmv_data(12, 3)
        _assert_cutouts_match_parent(kernels.spmv_sdfg(), data)


# --------------------------------------------------- multi-state fidelity
def test_gemm_chain_multistate_fidelity():
    sdfg = kernels.gemm_chain_sdfg(4)
    data = kernels.gemm_chain_data(8)
    cutouts, warnings = extract_state_cutouts(sdfg)
    assert not warnings
    assert len(cutouts) == 8  # 4 links x (init + accumulate)
    out = execute_cutouts(sdfg, cutouts, dict(data), symbols={"N": 8})
    ref = kernels.gemm_chain_reference(data, 4)
    assert np.max(np.abs(out["C"] - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_polybench_multistate_fidelity():
    """A real multi-state PolyBench program (jacobi-1d: a time loop with
    interstate conditions) survives the state-by-state chain at 1e-8."""
    from repro.workloads.polybench import get

    kernel = get("jacobi-1d")
    sdfg = kernel.make_sdfg()
    assert len(sdfg.states()) > 1
    data = kernel.make_data({"N": 16, "TSTEPS": 3})
    symbols = {"N": 16, "TSTEPS": 3}
    cutouts, _ = extract_state_cutouts(sdfg)
    expected = _run_parent(sdfg, data, symbols)
    actual = execute_cutouts(sdfg, cutouts, dict(data), symbols=symbols)
    for name, ref in expected.items():
        assert np.max(np.abs(actual[name] - ref)) <= TOL, name


def test_data_dependent_loop_fidelity():
    """A loop guarded by ``s < 10`` on a transient Scalar that the body
    doubles: the chain takes the parent's transitions on the live value
    (s = 1, 2, 4, 8 run the body, so ``A[0]`` counts 4)."""
    sdfg = SDFG("doubling")
    sdfg.add_array("A", (1,), dtypes.float64)
    sdfg.add_scalar("s", dtypes.float64, transient=True)
    init = sdfg.add_state("init", is_start=True)
    t = init.add_tasklet("one", [], ["o"], "o = 1")
    init.add_edge(t, init.add_write("s"), Memlet.simple("s", "0"), "o", None)
    guard = sdfg.add_state("guard")
    body = sdfg.add_state("body")
    t = body.add_tasklet("step", ["si", "ai"], ["so", "ao"],
                         "so = 2 * si\nao = ai + 1")
    body.add_edge(body.add_read("s"), t, Memlet.simple("s", "0"), None, "si")
    body.add_edge(body.add_read("A"), t, Memlet.simple("A", "0"), None, "ai")
    body.add_edge(t, body.add_write("s"), Memlet.simple("s", "0"), "so", None)
    body.add_edge(t, body.add_write("A"), Memlet.simple("A", "0"), "ao", None)
    end = sdfg.add_state("end")
    sdfg.add_edge(init, guard, InterstateEdge())
    sdfg.add_edge(guard, body, InterstateEdge(condition="s < 10"))
    sdfg.add_edge(guard, end, InterstateEdge(condition="s >= 10"))
    sdfg.add_edge(body, guard, InterstateEdge())
    cutouts, warnings = extract_state_cutouts(sdfg)
    assert not warnings, [str(w) for w in warnings]
    actual = execute_cutouts(sdfg, cutouts, {"A": np.zeros(1)})
    assert _run_parent(sdfg, {"A": np.zeros(1)})["A"][0] == actual["A"][0] == 4


# ------------------------------------------------------------- grouping
class TestGrouping:
    def test_gemm_chain_dedup(self):
        sdfg = kernels.gemm_chain_sdfg(4)
        cutouts, _ = extract_state_cutouts(sdfg)
        groups = group_cutouts(cutouts)
        # 4 identical init states fold into one group; the 4 accumulate
        # states differ by their alpha constant.
        assert len(groups) == 5
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [1, 1, 1, 1, 4]

    def test_grouping_hash_ignores_names(self):
        def build(array_names, state_name, sdfg_name):
            a, b = array_names
            sdfg = SDFG(sdfg_name)
            sdfg.add_array(a, ("N",), dtypes.float64)
            sdfg.add_array(b, ("N",), dtypes.float64)
            st = sdfg.add_state(state_name)
            st.add_mapped_tasklet(
                "t",
                {"i": "0:N"},
                inputs={"x": Memlet.simple(a, "i")},
                code="y = x * 2",
                outputs={"y": Memlet.simple(b, "i")},
            )
            return sdfg

        one = build(("A", "B"), "s0", "p1")
        two = build(("inp", "out"), "other", "p2")
        assert grouping_hash(one) == grouping_hash(two)

    def test_grouping_hash_sees_code_difference(self):
        def build(code):
            sdfg = SDFG("p")
            sdfg.add_array("A", ("N",), dtypes.float64)
            sdfg.add_array("B", ("N",), dtypes.float64)
            st = sdfg.add_state("s")
            st.add_mapped_tasklet(
                "t",
                {"i": "0:N"},
                inputs={"x": Memlet.simple("A", "i")},
                code=code,
                outputs={"y": Memlet.simple("B", "i")},
            )
            return sdfg

        assert grouping_hash(build("y = x * 2")) != grouping_hash(build("y = x * 3"))


# ----------------------------------------------------------- extraction
class TestExtraction:
    def test_state_cutout_is_standalone_and_valid(self):
        sdfg = kernels.gemm_chain_sdfg(3)
        state = sdfg.states()[1]  # an accumulate state reading transients
        cut = extract_state_cutout(sdfg, state)
        cut.sdfg.validate()
        # Boundary transients were promoted to arguments.
        for name, desc in cut.sdfg.arrays.items():
            assert not desc.transient or name not in ("T0", "T1")
        assert cut.parent_name == "gemm_chain"
        assert cut.content_hash and cut.grouping_hash

    def test_transient_private_to_state_stays_transient(self):
        sdfg = SDFG("priv")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        sdfg.add_transient("tmp", ("N",), dtypes.float64, find_new_name=False)
        st = sdfg.add_state("s")
        st.add_mapped_tasklet(
            "p",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="t = a * 2",
            outputs={"t": Memlet.simple("tmp", "i")},
        )
        tmp_node = [n for n in st.data_nodes() if n.data == "tmp"][0]
        st.add_mapped_tasklet(
            "c",
            {"j": "0:N"},
            inputs={"t": Memlet.simple("tmp", "j")},
            code="b = t + 1",
            outputs={"b": Memlet.simple("B", "j")},
            input_nodes={"tmp": tmp_node},
        )
        cut = extract_state_cutout(sdfg, st)
        assert cut.sdfg.arrays["tmp"].transient

    def test_nested_sdfg_state_rejected_with_w1001(self):
        inner = SDFG("inner")
        inner.add_array("x", ("N",), dtypes.float64)
        ist = inner.add_state()
        ist.add_mapped_tasklet(
            "scale",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="b = a * 5",
            outputs={"b": Memlet.simple("x", "i")},
        )
        outer = SDFG("outer")
        outer.add_array("A", ("N",), dtypes.float64)
        st = outer.add_state()
        node = st.add_nested_sdfg(inner, ["x"], ["x"], symbol_mapping={"N": "N"})
        st.add_edge(st.add_read("A"), node, Memlet.simple("A", "0:N"), None, "x")
        st.add_edge(node, st.add_write("A"), Memlet.simple("A", "0:N"), "x", None)

        with pytest.raises(CutoutError) as exc:
            extract_state_cutout(outer, st)
        assert exc.value.diagnostic.code == "W1001"

        cutouts, warnings = extract_state_cutouts(outer)
        assert cutouts == []
        assert [w.code for w in warnings] == ["W1001"]

    def test_empty_states_skipped(self):
        from repro.sdfg import InterstateEdge

        sdfg = SDFG("sparse")
        sdfg.add_array("A", ("N",), dtypes.float64)
        empty = sdfg.add_state("empty", is_start=True)
        work = sdfg.add_state("work")
        work.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = a + 1",
            outputs={"b": Memlet.simple("A", "i")},
        )
        sdfg.add_edge(empty, work, InterstateEdge())
        cutouts, warnings = extract_state_cutouts(sdfg)
        assert len(cutouts) == 1 and not warnings
        assert cutouts[0].state_name == "work"

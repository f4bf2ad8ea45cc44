"""Destination passing on the python tier (DESIGN §9): a map's result is
written where it lands, with no domain-sized temporary in between.

* **Contraction into a fresh fill**: a sum contraction whose output a map
  of the same state just zeroed over the same slice becomes
  ``np.matmul(x, y, out=dst)`` (then ``np.multiply(coef, dst, out=dst)``),
  and the fill is dropped.
* **Slice-tier store**: a single plain output whose value is the last
  statement's ``+ - * /`` is computed by that ufunc into its view.
* **Contiguous ragged rows**: when row ``i + 1`` starts where row ``i``
  ends, the inner parameter is one range and its loads are slices.

Each rule's result is bitwise equal to the interpreter and to the same
program lowered without the rule; each refusal keeps the rule-free text.
"""

import contextlib

import numpy as np
import pytest

import repro as rp
from repro.codegen import compile_sdfg
from repro.codegen.python_gen import PythonGenerator
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes
from repro.workloads import kernels


def _copy(kwargs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}


@contextlib.contextmanager
def _rule_free():
    """A context in which the fill fold and the ufunc store never fire."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PythonGenerator, "_fill_target", lambda self, *a: None)
        patch.setattr(PythonGenerator, "_binop_store", lambda self, *a: None)
        yield


def _three_ways(make_sdfg, **kwargs):
    """(source with the rules, source without, outputs of each and of the
    interpreter), all outputs checked bitwise equal."""
    comp = compile_sdfg(make_sdfg(), backend="python", cache="off")
    with _rule_free():
        plain = compile_sdfg(make_sdfg(), backend="python", cache="off")
    runs = [_copy(kwargs) for _ in range(3)]
    comp(**runs[0])
    plain(**runs[1])
    SDFGInterpreter(make_sdfg())(**runs[2])
    for name, value in runs[0].items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, runs[1][name], err_msg=f"rule-free {name}")
            np.testing.assert_array_equal(value, runs[2][name], err_msg=f"interpreter {name}")
    return comp.source, plain.source


def _small_ints(*shape, seed=0):
    # Integer-valued floats: every order of summation gives the same sum,
    # so BLAS and the interpreter's loops agree bit for bit.
    return np.random.default_rng(seed).integers(-4, 5, shape).astype(np.float64)


# ======================================================= contraction folds
def test_optimized_matmul_multiplies_into_its_output():
    n = 24
    src, plain = _three_ways(
        lambda: kernels.optimize_matmul(kernels.matmul_sdfg()),
        A=_small_ints(n, n), B=_small_ints(n, n, seed=1), C=np.full((n, n), 7.0),
    )
    assert "np.matmul(A[0:M, 0:K], B[0:K, 0:N], out=C[0:M, 0:N])" in src
    assert "np.add(" not in src and "_reduce_init_" not in src
    assert "np.add(" in plain and "_reduce_init_" in plain


def test_gemm_chain_keeps_the_fills_of_its_init_states():
    # Each link's zero map is a state of its own: nothing is held back
    # across states, so the text is the rule-free one.
    n = 12
    d = kernels.gemm_chain_data(n)
    d.update(A=_small_ints(n, n), B=_small_ints(n, n, seed=1))
    src, plain = _three_ways(kernels.gemm_chain_sdfg, **d)
    assert src == plain and "np.matmul(" not in src


def _fill_then_contract(fill="0", out_dtype=dtypes.float64, operand="A", reader=False,
                        out="i, j", writer=False):
    """``C[out] = fill`` then ``C[out] += x[i, k] * B[k, j]`` in one state,
    joined by an empty ordering memlet; ``reader`` adds a copy of the
    filled ``C`` to ``D`` between the two, ``writer`` a tasklet storing
    ``C[0, 0]`` after the fill and before the contraction."""
    sdfg = SDFG("fill_contract")
    sdfg.add_array("A", (6, 5), dtypes.float64)
    sdfg.add_array("B", (5, 6), dtypes.float64)
    sdfg.add_array("C", (6, 12), out_dtype)
    sdfg.add_array("D", (6, 6), out_dtype)
    st = sdfg.add_state("main")
    _, _, fill_exit = st.add_mapped_tasklet(
        "fill", {"i": "0:6", "j": "0:6"}, inputs={}, code=f"z = {fill}",
        outputs={"z": Memlet.simple("C", out)},
    )
    filled = st.out_edges(fill_exit)[0].dst
    _, entry, _ = st.add_mapped_tasklet(
        "mm", {"i": "0:6", "j": "0:6", "k": "0:5"},
        inputs={"x": Memlet.simple(operand, "i, k"), "y": Memlet.simple("B", "k, j")},
        code="o = x * y", outputs={"o": Memlet(data="C", subset=out, wcr="sum")},
    )
    st.add_nedge(filled, entry, Memlet())
    if writer:
        t = st.add_tasklet("poke", {}, {"o"}, "o = 5")
        poked = st.add_access("C")
        st.add_edge(t, poked, Memlet.simple("C", "0, 0"), "o", None)
        st.add_nedge(poked, entry, Memlet())
    if reader:
        st.add_nedge(filled, st.add_access("D"), Memlet.simple("C", "0:6, 0:6"))
    return sdfg


def _fill_case(**kw):
    args = {"A": _small_ints(6, 5), "B": _small_ints(5, 6, seed=1),
            "C": np.full((6, 12), 3.0), "D": np.zeros((6, 6))}
    if kw.get("out_dtype") == dtypes.float32:
        args["C"], args["D"] = args["C"].astype(np.float32), args["D"].astype(np.float32)
    return _three_ways(lambda: _fill_then_contract(**kw), **args)


def test_fill_then_contract_in_one_state_folds():
    src, plain = _fill_case()
    assert "out=C[0:6, 0:6])" in src and "vectorized map fill" not in src
    assert "vectorized map fill" in plain


@pytest.mark.parametrize("kw", [
    pytest.param({"reader": True}, id="reader-between"),
    pytest.param({"writer": True}, id="writer-between"),
    pytest.param({"fill": "1.0"}, id="not-the-identity"),
    pytest.param({"out_dtype": dtypes.float32}, id="float32-output-of-float64-operands"),
    pytest.param({"operand": "C"}, id="operand-is-the-output"),
    # BLAS cannot write a stepped last axis; NumPy would sum in another order.
    pytest.param({"out": "i, 2 * j"}, id="strided-output"),
])
def test_fold_refusals_keep_the_rule_free_text(kw):
    src, plain = _fill_case(**kw)
    assert src == plain
    assert "np.matmul(" not in src


def _two_fills(same_state):
    """``S`` and ``Q`` zeroed, then one map accumulating into both: in the
    map's state, or in the state before it."""
    sdfg = SDFG("two_fills")
    for name, shape in (("A", (6, 5)), ("B", (5, 6)), ("S", (6, 6)), ("Q", (6, 6))):
        sdfg.add_array(name, shape, dtypes.float64)
    init = sdfg.add_state("init", is_start=True)
    st = init if same_state else sdfg.add_state_after(init, "acc")
    filled = []
    for name in ("S", "Q"):
        _, _, fill_exit = init.add_mapped_tasklet(
            f"fill_{name}", {"i": "0:6", "j": "0:6"}, inputs={}, code="z = 0.0",
            outputs={"z": Memlet.simple(name, "i, j")},
        )
        filled.append(init.out_edges(fill_exit)[0].dst)
    _, entry, _ = st.add_mapped_tasklet(
        "acc", {"i": "0:6", "j": "0:6", "k": "0:5"},
        inputs={"x": Memlet.simple("A", "i, k"), "y": Memlet.simple("B", "k, j")},
        code="s = x * y\nq = x + y",
        outputs={"s": Memlet(data="S", subset="i, j", wcr="sum"),
                 "q": Memlet(data="Q", subset="i, j", wcr="sum")},
    )
    if same_state:
        for node in filled:
            st.add_nedge(node, entry, Memlet())
    return sdfg


@pytest.mark.parametrize("same_state", [True, False], ids=["same-state", "next-state"])
def test_two_fills_into_one_map_both_run(same_state):
    src, plain = _three_ways(
        lambda: _two_fills(same_state), A=_small_ints(6, 5), B=_small_ints(5, 6, seed=1),
        S=np.full((6, 6), 3.0), Q=np.full((6, 6), 5.0),
    )
    assert "vectorized map fill_S" in src and "vectorized map fill_Q" in src
    assert "np.matmul(" not in src


def _dispatched_fill():
    """A fill state and its contraction state inside an irreducible cycle
    (``top`` enters it at ``fill`` or at ``other``), the contraction's
    state added to the graph first."""
    sdfg = SDFG("dispatched_fill")
    sdfg.add_array("A", (6, 5), dtypes.float64)
    sdfg.add_array("B", (5, 6), dtypes.float64)
    sdfg.add_array("C", (6, 6), dtypes.float64)
    sdfg.add_symbol("k", dtypes.int64)
    mm = sdfg.add_state("mm")
    top = sdfg.add_state("top", is_start=True)
    fill, other, done = (sdfg.add_state(n) for n in ("fill", "other", "done"))
    fill.add_mapped_tasklet(
        "zero", {"i": "0:6", "j": "0:6"}, inputs={}, code="z = 0.0",
        outputs={"z": Memlet.simple("C", "i, j")},
    )
    mm.add_mapped_tasklet(
        "gemm", {"i": "0:6", "j": "0:6", "kk": "0:5"},
        inputs={"x": Memlet.simple("A", "i, kk"), "y": Memlet.simple("B", "kk, j")},
        code="o = x * y", outputs={"o": Memlet(data="C", subset="i, j", wcr="sum")},
    )
    other.add_mapped_tasklet(
        "bump", {"i": "0:6"}, inputs={"v": Memlet.simple("C", "i, i")}, code="o = v + 1.0",
        outputs={"o": Memlet.simple("C", "i, i")},
    )
    sdfg.add_edge(top, fill, InterstateEdge(condition="k > 0"))
    sdfg.add_edge(top, other, InterstateEdge(condition="k <= 0"))
    sdfg.add_edge(fill, mm, InterstateEdge())
    sdfg.add_edge(mm, other, InterstateEdge())
    sdfg.add_edge(other, fill, InterstateEdge(condition="k > -2", assignments={"k": "k - 1"}))
    sdfg.add_edge(other, done, InterstateEdge(condition="k <= -2"))
    return sdfg


@pytest.mark.parametrize("k", [-3, 0, 2])
def test_fill_and_contraction_in_a_dispatched_cycle(k):
    src, plain = _three_ways(
        _dispatched_fill, A=_small_ints(6, 5), B=_small_ints(5, 6, seed=1),
        C=np.full((6, 6), 3.0), k=k,
    )
    assert "__next" in src and src == plain


# ======================================================= slice-tier stores
def test_jacobi2d_stores_through_the_ufunc():
    d = kernels.jacobi2d_data(20)
    src, plain = _three_ways(kernels.jacobi2d_sdfg, A=d["A"], T=5)
    assert "np.multiply(0.2, " in src and ", out=A[((1 + t) % 2), " in src
    assert "__out_out" not in src and "__out_out" in plain


def _mapped(code, outputs, arrays, inputs):
    sdfg = SDFG("store")
    for name, dtype in arrays.items():
        sdfg.add_array(name, (8,), dtype)
    sdfg.add_state().add_mapped_tasklet(
        "m", {"i": "0:7"}, inputs=inputs, code=code, outputs=outputs
    )
    return sdfg


def test_overlapping_input_keeps_the_snapshot():
    # ``A[0:7] = A[0:7] + A[1:8]``: each iteration reads the point the next
    # one stores, before it does, as NumPy's overlap check makes the ufunc.
    def make():
        return _mapped("o = a + b", {"o": Memlet.simple("A", "i")},
                       {"A": dtypes.float64},
                       {"a": Memlet.simple("A", "i"), "b": Memlet.simple("A", "i + 1")})
    src, _ = _three_ways(make, A=np.arange(8.0) ** 2)
    assert "np.add(__in_a, __in_b, out=A[0:7], casting='unsafe')" in src


@pytest.mark.parametrize("code, outputs, arrays", [
    pytest.param("o = a + b\np = a - b",
                 {"o": Memlet.simple("C", "i"), "p": Memlet.simple("D", "i")},
                 {"C": dtypes.float64, "D": dtypes.float64}, id="two-outputs"),
    pytest.param("o = a + b", {"o": Memlet.simple("C", "i")},
                 {"C": dtypes.float64}, id="int-operands-into-float"),
    # The store is typed without running the tasklet: a call is untyped.
    pytest.param("o = a * np.sqrt(2.0)", {"o": Memlet.simple("C", "i")},
                 {"C": dtypes.float64}, id="a-call-it-cannot-type"),
])
def test_store_refusals_keep_the_rule_free_text(code, outputs, arrays):
    def make():
        return _mapped(code, outputs, {"A": dtypes.int64, "B": dtypes.int64, **arrays},
                       {"a": Memlet.simple("A", "i"), "b": Memlet.simple("B", "i")})
    args = {"A": np.arange(8) - 3, "B": np.arange(8) * 7,
            **{name: np.zeros(8) for name in arrays}}
    src, plain = _three_ways(make, **args)
    assert src == plain and "out=" not in src


# =================================================== contiguous ragged rows
def _spans():
    H, nnz = rp.symbol("H"), rp.symbol("nnz")

    @rp.program
    def spans(lo: rp.int64[H], hi: rp.int64[H], val: rp.float32[nnz], out: rp.float32[H]):
        for i in rp.map[0:H]:
            for j in rp.map[lo[i] : hi[i]]:
                with rp.tasklet:
                    a << val[j]
                    o >> out(1, rp.sum)[i]
                    o = a * a

    spans._sdfg = None
    return spans.to_sdfg()


def test_spmv_reads_contiguous_rows_through_slices():
    data, _ = kernels.spmv_data(40, 5)
    comp = compile_sdfg(kernels.spmv_sdfg(), backend="python", cache="off")
    loop = compile_sdfg(kernels.spmv_sdfg(), backend="python", cache="off", vectorize=False)
    assert "__f_j = slice(int(__rlo[0]), int(__rhi[-1])) if " in comp.source
    assert "np.add.at(b, (__f_i,)" in comp.source
    runs = [_copy(data) for _ in range(3)]
    comp(**runs[0])
    loop(**runs[1])
    SDFGInterpreter(kernels.spmv_sdfg())(**runs[2])
    assert np.array_equal(runs[0]["b"], runs[1]["b"])
    assert np.array_equal(runs[0]["b"], runs[2]["b"])


@pytest.mark.parametrize("lo, hi", [
    pytest.param([0, 4, 4, 9], [4, 4, 9, 12], id="contiguous-with-an-empty-row"),
    pytest.param([0, 5, 9, 10], [3, 7, 10, 12], id="gapped"),
    pytest.param([6, 0, 3, 9], [9, 3, 6, 12], id="permuted"),
    pytest.param([0, 6, 3, 8], [6, 3, 8, 12], id="a-negative-row"),
    pytest.param([2, 2, 2, 2], [2, 2, 2, 2], id="all-empty"),
])
def test_ragged_rows_equal_the_interpreter_bitwise(lo, hi):
    args = {"lo": np.array(lo), "hi": np.array(hi),
            "val": np.random.default_rng(3).random(12).astype(np.float32),
            "out": np.zeros(4, np.float32)}
    comp = compile_sdfg(_spans(), backend="python", cache="off")
    assert "slice(int(__rlo[0])" in comp.source
    got, want = _copy(args), _copy(args)
    comp(**got)
    SDFGInterpreter(_spans())(**want)
    assert np.array_equal(got["out"], want["out"])

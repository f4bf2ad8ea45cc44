"""Edges of the whole-domain map lowerings (strided views, predicated
tasklets, ragged maps, bulk streams) in the generated-Python backend.

Ground truth is the reference interpreter at 1e-8 wherever a map's
iterations are independent; for maps that race with themselves (a shift
in place) it is the gather lowering the views replaced, bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as rp
from repro.codegen import compile_sdfg, python_gen
from repro.instrumentation import InstrumentationType
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.dtypes import canonicalize_wcr
from repro.sdfg.nodes import Tasklet
from repro.symbolic import sympify
from repro.workloads import kernels
from repro.workloads.bfs import build_bfs_sdfg


def _copy(kwargs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}


def run_both(sdfg, **kwargs):
    """(generated-code outputs, interpreter outputs, compiled artifact)."""
    comp = compile_sdfg(sdfg, backend="python")
    assert comp.backend == "python", comp.degradation
    cg, it = _copy(kwargs), _copy(kwargs)
    comp(**cg)
    SDFGInterpreter(sdfg, validate=False)(**it)
    return cg, it, comp


def assert_same(cg, it):
    for k, v in cg.items():
        if isinstance(v, np.ndarray):
            np.testing.assert_allclose(v, it[k], rtol=1e-8, atol=1e-8, err_msg=k)


def tiers(comp):
    return [row["tier"] for row in comp.lowering]


def mapped(name, ranges, inputs, code, outputs, arrays):
    sdfg = SDFG(name)
    for arr, (shape, dtype) in arrays.items():
        sdfg.add_array(arr, shape, dtype)
    sdfg.add_state().add_mapped_tasklet(
        name, ranges, inputs=inputs, code=code, outputs=outputs
    )
    return sdfg


def with_gathers(sdfg, **kwargs):
    """Run ``sdfg`` with every memlet forced onto index arrays."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(python_gen, "_slice_index", lambda analysis, pranges: None)
        comp = compile_sdfg(sdfg, backend="python")
    out = _copy(kwargs)
    comp(**out)
    return out, comp


F64 = dtypes.float64


# ===================================================================== views
def _stencil():
    return mapped(
        "stencil",
        {"i": "1:N-1", "j": "1:N-1"},
        {"c": Memlet.simple("A", "i, j"), "n": Memlet.simple("A", "i-1, j"),
         "e": Memlet.simple("A", "i, j+1")},
        "o = c + n - e",
        {"o": Memlet.simple("B", "i, j")},
        {"A": (("N", "N"), F64), "B": (("N", "N"), F64)},
    )


def test_stencil_loads_are_views_without_index_arrays():
    cg, it, comp = run_both(_stencil(), A=np.random.rand(9, 9), B=np.zeros((9, 9)))
    assert_same(cg, it)
    assert tiers(comp) == ["slice"]
    assert "np.arange" not in comp.source
    assert "A[0:((-2) + N), 1:((-1) + N)]" in comp.source


@pytest.mark.parametrize("n", [1, 2])
def test_empty_domain_touches_nothing(n):
    # N == 1 makes the bounds 1:0; an unguarded ``0:-1`` slice would wrap.
    B = np.full((n, n), 7.0)
    cg, it, _ = run_both(_stencil(), A=np.ones((n, n)), B=B)
    assert_same(cg, it)
    assert np.array_equal(cg["B"], B)


def test_non_unit_step_and_coefficient():
    sdfg = mapped(
        "strided",
        {"i": "1:N:2", "j": "0:M:3"},
        {"a": Memlet.simple("A", "3*i, j + 1")},
        "o = a",
        {"o": Memlet.simple("B", "2*j + 1, i")},
        {"A": (("3*N", "M + 1"), F64), "B": (("2*M + 1", "N"), F64)},
    )
    N, M = 8, 7
    cg, it, comp = run_both(
        sdfg, A=np.random.rand(3 * N, M + 1), B=np.zeros((2 * M + 1, N))
    )
    assert_same(cg, it)
    assert tiers(comp) == ["slice"]
    assert cg["B"].any()


def test_transposed_store():
    sdfg = mapped(
        "transpose", {"i": "0:N", "j": "0:M"},
        {"a": Memlet.simple("A", "i, j")}, "o = a",
        {"o": Memlet.simple("B", "j, i")},
        {"A": (("N", "M"), F64), "B": (("M", "N"), F64)},
    )
    cg, it, comp = run_both(sdfg, A=np.random.rand(4, 6), B=np.zeros((6, 4)))
    assert_same(cg, it)
    assert np.array_equal(cg["B"], cg["A"].T)
    assert tiers(comp) == ["slice"] and ".transpose(1, 0)" in comp.source
    assert ".copy()" not in comp.source  # read once: the view is enough


def test_transposed_operand_reused_along_a_parameter_is_copied_once():
    """``B[k, j]`` over (i, j, k) is transposed *and* broadcast along i:
    a strided view would be re-read N times with a long stride.  (A bare
    product of the two would be a contraction, so the body is not one.)"""
    sdfg = mapped(
        "mm", {"i": "0:N", "j": "0:N", "k": "0:N"},
        {"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j")},
        "o = a - b", {"o": Memlet(data="C", subset="i, j", wcr="sum")},
        {"A": (("N", "N"), F64), "B": (("N", "N"), F64), "C": (("N", "N"), F64)},
    )
    rng = np.random.default_rng(0)
    cg, it, comp = run_both(
        sdfg, A=rng.random((5, 5)), B=rng.random((5, 5)), C=np.ones((5, 5))
    )
    assert_same(cg, it)
    assert tiers(comp) == ["slice"]
    assert "__in_a = A[0:N, 0:N][:, None, :]" in comp.source
    assert "__in_b = B[0:N, 0:N].transpose(1, 0).copy()[None, :, :]" in comp.source


def test_in_place_shift_reads_a_snapshot():
    """``A[i + 1] = A[i]`` races with itself; the vector tiers read the
    whole domain before any store, and views must not change that."""
    sdfg = mapped(
        "shift", {"i": "0:N-1"}, {"a": Memlet.simple("A", "i")}, "o = a",
        {"o": Memlet.simple("A", "i + 1")}, {"A": (("N",), F64)},
    )
    A = np.arange(8.0)
    comp = compile_sdfg(sdfg, backend="python")
    got = A.copy()
    comp(A=got)
    gathered, gcomp = with_gathers(sdfg, A=A)
    assert tiers(comp) == ["slice"] and tiers(gcomp) == ["gather"]
    assert np.array_equal(got, gathered["A"])
    assert np.array_equal(got, np.r_[A[0], A[:-1]])


def test_two_outputs_swapping_containers_copy_the_alias():
    sdfg = mapped(
        "swap", {"i": "0:N"},
        {"a": Memlet.simple("A", "i"), "b": Memlet.simple("B", "i")},
        "x = a\ny = b",
        {"x": Memlet.simple("B", "i"), "y": Memlet.simple("A", "i")},
        {"A": (("N",), F64), "B": (("N",), F64)},
    )
    A, B = np.arange(6.0), np.arange(6.0) + 10
    cg, it, comp = run_both(sdfg, A=A, B=B)
    assert_same(cg, it)
    assert np.array_equal(cg["A"], B) and np.array_equal(cg["B"], A)
    assert comp.source.count(".copy()") == 2


def test_copy_between_containers_stays_a_view():
    sdfg = mapped(
        "copy", {"i": "0:N"}, {"a": Memlet.simple("A", "i")}, "o = a",
        {"o": Memlet.simple("B", "i")},
        {"A": (("N",), F64), "B": (("N",), F64)},
    )
    assert ".copy()" not in compile_sdfg(sdfg, backend="python").source


def test_parameter_value_in_tasklet():
    sdfg = mapped(
        "scale", {"i": "2:N", "j": "0:M"},
        {"a": Memlet.simple("A", "i, j")}, "o = i * a",
        {"o": Memlet.simple("B", "i, j")},
        {"A": (("N", "M"), F64), "B": (("N", "M"), F64)},
    )
    cg, it, comp = run_both(sdfg, A=np.random.rand(6, 3), B=np.zeros((6, 3)))
    assert_same(cg, it)
    assert tiers(comp) == ["slice"]
    # Only the parameter the code reads gets an index array.
    assert "__ix_i = np.arange" in comp.source and "__ix_j" not in comp.source


@pytest.mark.parametrize("wcr", ["sum", "min", "max"])
def test_reduction_over_omitted_parameter(wcr):
    sdfg = mapped(
        "rowred", {"i": "0:N", "j": "0:M"},
        {"a": Memlet.simple("A", "i, j")}, "o = a",
        {"o": Memlet(data="r", subset="i", wcr=wcr)},
        {"A": (("N", "M"), F64), "r": (("N",), F64)},
    )
    cg, it, comp = run_both(sdfg, A=np.random.rand(5, 7), r=np.full(5, 0.5))
    assert_same(cg, it)
    assert tiers(comp) == ["slice"]


def test_elementwise_wcr_casts_like_assignment():
    sdfg = mapped(
        "acc", {"i": "0:N"}, {"a": Memlet.simple("A", "i")}, "o = a",
        {"o": Memlet(data="C", subset="i", wcr="sum")},
        {"A": (("N",), F64), "C": (("N",), dtypes.int64)},
    )
    cg, it, _ = run_both(sdfg, A=np.linspace(0, 9.5, 8), C=np.ones(8, np.int64))
    assert np.array_equal(cg["C"], it["C"])


#: WCR-sum maps over ``(i, j)`` whose value does not span every parameter:
#: each iteration adds it once, so the reduction must see it repeated.
PARTIAL_VALUES = {
    "constant": ({}, "o = 1.0", Memlet(data="s", subset="0", wcr="sum"),
                 {"s": ((1,), F64)}, {"s": np.full(1, 0.25)}),
    "row": ({"a": Memlet.simple("A", "i")}, "o = a",
            Memlet(data="s", subset="i", wcr="sum"),
            {"A": (("N",), F64), "s": (("N",), F64)},
            {"A": np.random.rand(5), "s": np.full(5, 0.25)}),
}


@pytest.mark.parametrize("m", [0, 1, 6])
@pytest.mark.parametrize("case", sorted(PARTIAL_VALUES))
def test_reduction_broadcasts_a_value_that_does_not_span_the_domain(case, m):
    inputs, code, out, arrays, data = PARTIAL_VALUES[case]
    sdfg = mapped("partial", {"i": "0:N", "j": "0:M"}, inputs, code,
                  {"o": out}, arrays)
    kwargs = {**data, "N": 5, "M": m}
    cg, it, comp = run_both(sdfg, **kwargs)
    loop = _copy(kwargs)
    compile_sdfg(sdfg, backend="python", vectorize=False)(**loop)
    assert_same(cg, it)
    assert_same(cg, loop)
    assert tiers(comp) == ["slice"]
    assert "np.broadcast_to" in comp.source


def test_reduction_of_a_spanning_value_skips_the_broadcast():
    sdfg = mapped(
        "full", {"i": "0:N", "j": "0:M"},
        {"a": Memlet.simple("A", "i, j"), "b": Memlet.simple("B", "j")},
        "o = a * b",
        {"o": Memlet(data="s", subset="0", wcr="sum")},
        {"A": (("N", "M"), F64), "B": (("M",), F64), "s": ((1,), F64)},
    )
    cg, it, comp = run_both(
        sdfg, A=np.random.rand(4, 3), B=np.random.rand(3), s=np.ones(1)
    )
    assert_same(cg, it)
    assert "np.broadcast_to" not in comp.source
    assert "s[0] = s[0] + __red" in comp.source


@pytest.mark.parametrize("wcr", ["sum", "product"])
@pytest.mark.parametrize("dtype", [dtypes.float64, dtypes.float32, dtypes.int64])
def test_one_element_accumulation_is_the_ufunc_bit_for_bit(wcr, dtype):
    """Scalar ``+``/``*`` on one element is the same operation as the
    ``np.add``/``np.multiply`` call it replaces, for every target type.
    (An integer target takes an integer value: a float one is cast after
    every iteration, which only the loop tier does.)"""
    integer = dtype == dtypes.int64
    sdfg = mapped(
        "one", {"i": "0:N"}, {"a": Memlet.simple("A", "i")},
        "o = a * 3" if integer else "o = a * 0.75",
        {"o": Memlet(data="s", subset="0", wcr=wcr)},
        {"A": (("N",), dtype if integer else F64), "s": ((1,), dtype)},
    )
    kwargs = {
        "A": np.arange(1, 10) if integer else np.random.rand(9) + 0.5,
        "s": np.full(1, 3, dtype.as_numpy()),
    }
    got = _copy(kwargs)
    compile_sdfg(sdfg, backend="python")(**got)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(python_gen, "_accumulate", lambda tgt, val, rtype: (
            f"{python_gen.PythonGenerator._UFUNC[rtype]}({tgt}, {val})"
        ))
        ufunc = compile_sdfg(sdfg, backend="python")
    assert "np.add(s[0]" in ufunc.source or "np.multiply(s[0]" in ufunc.source
    want = _copy(kwargs)
    ufunc(**want)
    assert got["s"].dtype == want["s"].dtype
    assert np.array_equal(got["s"], want["s"])


def test_reversed_operand_gathers_its_neighbours_still_slice():
    sdfg = mapped(
        "rev", {"i": "0:N"},
        {"a": Memlet.simple("A", "N - 1 - i"), "b": Memlet.simple("A", "i")},
        "o = a - b", {"o": Memlet.simple("B", "i")},
        {"A": (("N",), F64), "B": (("N",), F64)},
    )
    cg, it, comp = run_both(sdfg, A=np.random.rand(7), B=np.zeros(7))
    assert_same(cg, it)
    assert tiers(comp) == ["gather"]
    assert "__in_b = A[0:N]" in comp.source


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3)),
    st.tuples(st.integers(1, 2), st.integers(0, 1)),
    st.tuples(st.integers(1, 2), st.integers(0, 1)),
    st.booleans(), st.booleans(), st.booleans(),
)
def test_slice_equals_gather_bit_for_bit(pi, pj, oi, oj, swap_in, swap_out, use_value):
    """Random ``c*p + d`` subsets, steps and axis orders: the view
    lowering and the index-array lowering are the same function."""
    (ci, di, si), (cj, dj, sj) = pi, pj
    ni, nj = 9, 7  # range ends
    in_idx = [f"{ci}*i + {di}", f"{cj}*j + {dj}"]
    out_idx = [f"{oi[0]}*i + {oi[1]}", f"{oj[0]}*j + {oj[1]}"]
    ext = lambda c, d, n: c * (n - 1) + d + 1  # noqa: E731
    in_shape = [ext(ci, di, ni), ext(cj, dj, nj)]
    out_shape = [ext(*oi, ni), ext(*oj, nj)]
    if swap_in:
        in_idx.reverse(), in_shape.reverse()
    if swap_out:
        out_idx.reverse(), out_shape.reverse()
    sdfg = mapped(
        "prop", {"i": f"1:{ni}:{si}", "j": f"0:{nj}:{sj}"},
        {"a": Memlet.simple("A", ", ".join(in_idx))},
        "o = a * 2 + j" if use_value else "o = a * 2",
        {"o": Memlet.simple("B", ", ".join(out_idx))},
        {"A": (tuple(in_shape), F64), "B": (tuple(out_shape), F64)},
    )
    rng = np.random.default_rng(0)
    A, B = rng.random(in_shape), rng.random(out_shape)
    comp = compile_sdfg(sdfg, backend="python")
    sliced = {"A": A.copy(), "B": B.copy()}
    comp(**sliced)
    gathered, gcomp = with_gathers(sdfg, A=A, B=B)
    assert tiers(comp) == ["slice"] and tiers(gcomp) == ["gather"]
    assert np.array_equal(sliced["B"], gathered["B"])
    interp = {"A": A.copy(), "B": B.copy()}
    SDFGInterpreter(sdfg, validate=False)(**interp)
    assert np.array_equal(sliced["B"], interp["B"])


# ================================================================ predicated
def _predicated(code, out_memlet, extra_inputs=None):
    inputs = {"a": Memlet.simple("A", "i")}
    inputs.update(extra_inputs or {})
    return mapped(
        "pred", {"i": "0:N"}, inputs, code, {"o": out_memlet},
        {"A": (("N",), F64), "B": (("N",), F64)},
    )


def test_if_else_assigning_both_branches_merges():
    sdfg = _predicated("if a > 0.5:\n    o = a\nelse:\n    o = -a",
                       Memlet.simple("B", "i"))
    cg, it, comp = run_both(sdfg, A=np.random.rand(40), B=np.zeros(40))
    assert_same(cg, it)
    assert tiers(comp) == ["predicated"] and "np.where(__mask" in comp.source


def test_branch_overriding_a_prelude_value_merges():
    sdfg = _predicated("o = a\nt = a * 2\nif t > 1:\n    o = t - 1",
                       Memlet.simple("B", "i"))
    cg, it, comp = run_both(sdfg, A=np.random.rand(40), B=np.zeros(40))
    assert_same(cg, it)
    assert tiers(comp) == ["predicated"]


@pytest.mark.parametrize("code", [
    # a local the taken branch reassigns and the else branch reads
    "t = a\nif a > 0.5:\n    t = t + 1\n    o = t\nelse:\n    o = t - 1",
    # an input connector reassigned on one path
    "if a > 0.5:\n    a = a * 2\n    o = a\nelse:\n    o = a",
    # the same local, defined differently per path
    "if a > 0.5:\n    t = 1.0\n    o = a + t\nelse:\n    t = 2.0\n    o = a - t",
    # augmented assignment over a prelude value
    "o = a\nif a > 0.5:\n    o += 1\nelse:\n    o -= 1",
    # else reads the output the taken branch overwrote
    "o = a\nif a > 0.5:\n    o = 7.0\nelse:\n    o = o * 3",
])
def test_branches_do_not_see_each_others_assignments(code):
    sdfg = _predicated(code, Memlet.simple("B", "i"))
    A = np.array([0.1, 0.9, 0.3, 0.7, 0.5, 0.51])
    cg, it, comp = run_both(sdfg, A=A, B=np.zeros(6))
    assert tiers(comp) == ["predicated"]
    assert np.array_equal(cg["B"], it["B"])
    loop = {"A": A.copy(), "B": np.zeros(6)}
    compile_sdfg(sdfg, backend="python", vectorize=False)(**loop)
    assert np.array_equal(cg["B"], loop["B"])


def test_one_branch_store_of_a_branch_local_chain():
    sdfg = _predicated(
        "t = a\nif a > 0.5:\n    t = t * 3\n    o = t",
        Memlet(data="B", subset="i", dynamic=True),
    )
    cg, it, comp = run_both(sdfg, A=np.random.rand(40), B=np.full(40, -1.0))
    assert tiers(comp) == ["predicated"]
    assert np.array_equal(cg["B"], it["B"])


def test_tasklet_assigning_a_map_parameter_stays_on_the_loop():
    sdfg = _predicated("i = i + 1\no = a * i", Memlet.simple("B", "i"))
    comp = compile_sdfg(sdfg, backend="python")
    assert tiers(comp) == ["loop"]
    assert "assigns a map parameter" in comp.lowering[0]["reason"]


@pytest.mark.parametrize("code", [
    "if a > 0.5:\n    o = a",
    "if a > 0.5:\n    pass\nelse:\n    o = a",
])
def test_one_branch_assignment_masks_a_dynamic_store(code):
    sdfg = _predicated(code, Memlet(data="B", subset="i", dynamic=True))
    cg, it, comp = run_both(sdfg, A=np.random.rand(40), B=np.full(40, -1.0))
    assert_same(cg, it)
    assert (cg["B"] == -1.0).any() and (cg["B"] != -1.0).any()
    assert tiers(comp) == ["predicated"] and "np.copyto(" in comp.source


def test_one_branch_assignment_to_a_static_memlet_stays_on_the_loop():
    sdfg = _predicated("if a > 0.5:\n    o = a", Memlet.simple("B", "i"))
    comp = compile_sdfg(sdfg, backend="python")
    assert tiers(comp) == ["loop"]
    assert "one branch only" in comp.lowering[0]["reason"]


def test_masked_wcr_accumulates_selected_lanes_only():
    sdfg = _predicated(
        "if a > 0.5:\n    o = a",
        Memlet(data="B", subset="i", wcr="sum", dynamic=True),
    )
    cg, it, comp = run_both(sdfg, A=np.random.rand(40), B=np.ones(40))
    assert_same(cg, it)
    assert tiers(comp) == ["predicated"]


@pytest.mark.parametrize("threshold", [0.5, 2.0])
def test_masked_full_reduction(threshold):
    # threshold 2.0 selects no lane: min over nothing must not be written.
    sdfg = mapped(
        "minsel", {"i": "0:N"},
        {"a": Memlet.simple("A", "i"), "t": Memlet.simple("T", "0")},
        "if a > t:\n    o = a",
        {"o": Memlet(data="m", subset="0", wcr="min", dynamic=True)},
        {"A": (("N",), F64), "T": ((1,), F64), "m": ((1,), F64)},
    )
    cg, it, comp = run_both(
        sdfg, A=np.random.rand(30), T=np.array([threshold]), m=np.array([9.0])
    )
    assert_same(cg, it)
    assert tiers(comp) == ["predicated"]


def test_guarded_division_raises_no_warning():
    sdfg = _predicated(
        "if b != 0:\n    o = a / b",
        Memlet(data="B", subset="i", dynamic=True),
        {"b": Memlet.simple("D", "i")},
    )
    sdfg.add_array("D", ("N",), F64)
    D = np.array([0.0, 2.0, 0.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cg, it, comp = run_both(sdfg, A=np.ones(4), B=np.zeros(4), D=D)
    assert_same(cg, it)
    assert tiers(comp) == ["predicated"]


def test_query_streams_in_iteration_order():
    data = kernels.query_data(500, seed=3)
    cg, it, comp = run_both(kernels.query_sdfg(), **data)
    want = kernels.query_reference(data["col"], data["threshold"])
    n = int(cg["size"][0])
    assert n == len(want) == int(it["size"][0])
    assert np.array_equal(cg["out"][:n], want)  # order, not just content
    assert np.array_equal(cg["out"], it["out"])
    assert tiers(comp) == ["predicated"] and "push_many" in comp.source


@pytest.mark.parametrize("code, dynamic", [
    ("a = v\nb = -v", False),
    ("if v > 2:\n    a = v\n    b = -v", True),
])
def test_two_connectors_into_one_stream_keep_the_loop_tier(code, dynamic):
    # One bulk push per connector would emit every ``a`` before any ``b``.
    sdfg = SDFG("twopush")
    sdfg.add_array("col", ("N",), F64)
    sdfg.add_array("out", ("2*N",), F64)
    sdfg.add_stream("S", F64, transient=True)
    st_ = sdfg.add_state()
    st_.add_mapped_tasklet(
        "push2", {"i": "0:N"}, inputs={"v": Memlet.simple("col", "i")}, code=code,
        outputs={"a": Memlet(data="S", subset="0", dynamic=dynamic),
                 "b": Memlet(data="S", subset="0", dynamic=dynamic)},
    )
    s_nodes = [n for n in st_.data_nodes() if n.data == "S"]
    assert len(s_nodes) == 1
    st_.add_edge(s_nodes[0], st_.add_write("out"),
                 Memlet(data="S", subset="0", dynamic=True), None, None)
    sdfg.validate()
    cg, it, comp = run_both(sdfg, col=np.arange(1.0, 6.0), out=np.zeros(10))
    assert tiers(comp) == ["loop"]
    assert "more than one output pushes to 'S'" in comp.lowering[0]["reason"]
    assert np.array_equal(cg["out"], it["out"])
    want = [3, -3, 4, -4, 5, -5] if dynamic else [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    assert cg["out"][: len(want)].tolist() == want


def test_query_with_nothing_selected():
    data = kernels.query_data(64)
    data["threshold"] = -1.0
    cg, it, _ = run_both(kernels.query_sdfg(), **data)
    assert cg["size"][0] == 0 and not cg["out"].any()
    assert_same(cg, it)


def _bounded_query(capacity):
    sdfg = kernels.query_sdfg()
    sdfg.arrays["S"].buffer_size = sympify(capacity)
    return sdfg


def test_bounded_stream_overflows_like_the_loop_tier():
    data = kernels.query_data(64)
    passing = int((data["col"] <= 0.5).sum())
    assert passing > 4
    fast = compile_sdfg(_bounded_query(4), backend="python")
    slow = compile_sdfg(_bounded_query(4), backend="python", vectorize=False)
    assert tiers(fast) == ["predicated"] and tiers(slow) == ["loop"]
    errors = []
    for run in (fast, slow, SDFGInterpreter(_bounded_query(4), validate=False)):
        with pytest.raises(RuntimeError, match="stream overflow") as exc:
            run(**_copy(data))
        errors.append(str(exc.value))
    assert len(set(errors)) == 1
    # A stream that is just large enough does not overflow.
    compile_sdfg(_bounded_query(passing), backend="python")(**_copy(data))


# ==================================================================== ragged
def _spmv_case(rows, per_row, seed=0):
    data, _ = kernels.spmv_data(rows, per_row, seed)
    return data


def _drop_rows(data, rows):
    """Empty the given CSR rows (their entries stay, unreferenced)."""
    indptr = data["A_row"].astype(np.int64)
    counts = np.diff(indptr)
    counts[list(rows)] = 0
    keep = np.concatenate(
        [np.arange(indptr[r], indptr[r] + counts[r]) for r in range(len(counts))]
    ).astype(np.int64)
    out = dict(data)
    out["A_col"], out["A_val"] = data["A_col"][keep], data["A_val"][keep]
    out["A_row"] = np.concatenate([[0], np.cumsum(counts)]).astype(data["A_row"].dtype)
    return out


def test_spmv_is_ragged_and_matches_the_loop_tier_bitwise():
    data = _spmv_case(40, 5)
    cg, it, comp = run_both(kernels.spmv_sdfg(), **data)
    assert tiers(comp) == ["ragged", "ragged"]
    assert "np.add.at(b, (__f_i,)" in comp.source
    assert "for i in range" not in comp.source
    # Unbuffered scatter: same float32 accumulation order as the loops.
    assert np.array_equal(cg["b"], it["b"])


def test_spmv_with_empty_rows():
    data = _drop_rows(_spmv_case(24, 4), rows=(0, 5, 6, 23))
    cg, it, _ = run_both(kernels.spmv_sdfg(), **data)
    assert np.array_equal(cg["b"], it["b"])
    assert cg["b"][5] == 0 and cg["b"][1] != 0


def test_spmv_with_no_entries_and_no_rows():
    data = _drop_rows(_spmv_case(6, 2), rows=range(6))
    cg, it, _ = run_both(kernels.spmv_sdfg(), **data)
    assert not cg["b"].any() and np.array_equal(cg["b"], it["b"])
    empty = {"A_row": np.zeros(1, np.uint32), "A_col": np.zeros(1, np.uint32),
             "A_val": np.zeros(1, np.float32), "x": np.ones(3, np.float32),
             "b": np.zeros(0, np.float32)}
    compile_sdfg(kernels.spmv_sdfg(), backend="python")(**empty)


def _row_program(tasklet_code, wcr):
    """``for i: for j in ptr[i]:ptr[i+1]: out[i] (wcr)= f(val[j])``."""
    H, nnz = rp.symbol("H"), rp.symbol("nnz")

    @rp.program
    def rows(ptr: rp.int64[H + 1], val: rp.float64[nnz], out: rp.float64[H]):
        for i in rp.map[0:H]:
            for j in rp.map[ptr[i] : ptr[i + 1]]:
                with rp.tasklet:
                    a << val[j]
                    o >> out(1, rp.sum)[i]
                    o = a

    rows._sdfg = None
    sdfg = rows.to_sdfg()
    for state in sdfg.nodes():
        for node in state.nodes():
            if isinstance(node, Tasklet):
                node.code = tasklet_code
        for edge in state.edges():
            if edge.data.wcr is not None:
                edge.data.wcr = canonicalize_wcr(wcr)
    return sdfg


@pytest.mark.parametrize("wcr,code", [
    ("max", "o = a"),
    ("min", "o = a * 2"),
    ("sum", "o = a * j + i"),  # parameter values over the flat space
])
def test_ragged_reductions_and_parameter_values(wcr, code):
    ptr = np.array([0, 3, 3, 4, 9], np.int64)
    args = {"ptr": ptr, "val": np.random.rand(9), "out": np.full(4, 0.25)}
    cg, it, comp = run_both(_row_program(code, wcr), **args)
    assert tiers(comp) == ["ragged", "ragged"]
    assert_same(cg, it)


def test_ragged_rows_with_reversed_bounds_are_empty():
    ptr = np.array([0, 4, 2, 6], np.int64)  # row 1 is 4:2
    args = {"ptr": ptr, "val": np.random.rand(6), "out": np.zeros(3)}
    cg, it, _ = run_both(_row_program("o = a", "sum"), **args)
    assert_same(cg, it)
    assert cg["out"][1] == 0


def test_bfs_body_stays_on_the_loop_tier():
    comp = compile_sdfg(build_bfs_sdfg(), backend="python")
    rows = {row["map"]: row for row in comp.lowering}
    assert rows["frontier_sweep"]["tier"] == "loop"
    assert rows["neighbors"]["tier"] == "loop"
    assert "neither elementwise" in rows["neighbors"]["reason"]
    assert rows["depth_init"]["tier"] == "slice"


# =============================================== sanitizer / instrumentation
@pytest.mark.parametrize("name", ["query", "spmv", "jacobi2d"])
def test_sanitized_build_keeps_the_loop_tier(name):
    from repro.runtime.sanitizer import fundamental_kernel_cases

    factory, data, extra, outputs = fundamental_kernel_cases()[name]
    results = {}
    for backend in ("python", "interpreter"):
        args = {**_copy(data), **extra}
        comp = compile_sdfg(factory(), backend=backend, sanitize="collect")
        comp(**args)
        results[backend] = (comp, args)
    comp = results["python"][0]
    assert set(tiers(comp)) == {"loop"}
    assert all("sanitize" in row["reason"] for row in comp.lowering)
    assert results["python"][0].last_findings == results["interpreter"][0].last_findings == []
    for out in outputs:
        np.testing.assert_allclose(
            results["python"][1][out], results["interpreter"][1][out], rtol=1e-8
        )


def test_sanitizer_finds_the_same_fault_on_both_backends():
    data = _spmv_case(8, 3)
    data["A_col"][4] = 1000  # out of bounds for x
    found = {}
    for backend in ("python", "interpreter"):
        comp = compile_sdfg(kernels.spmv_sdfg(), backend=backend, sanitize="collect")
        comp(**_copy(data))
        found[backend] = [(f.code, f.data) for f in comp.last_findings]
    assert found["python"] == found["interpreter"]
    assert ("R801", "x") in found["python"]


@pytest.mark.parametrize("name", ["query", "spmv"])
def test_instrumented_tasklets_keep_the_loop_tier(name):
    from repro.runtime.sanitizer import fundamental_kernel_cases

    factory, data, extra, _ = fundamental_kernel_cases()[name]
    reports = {}
    for backend in ("python", "interpreter"):
        sdfg = factory()
        for state in sdfg.nodes():
            for node in state.nodes():
                if isinstance(node, Tasklet):
                    node.instrument = InstrumentationType.COUNTER
        comp = compile_sdfg(sdfg, backend=backend)
        comp(**{**_copy(data), **extra})
        reports[backend] = comp
    comp = reports["python"]
    assert set(tiers(comp)) == {"loop"}
    assert any("instrumented" in row["reason"] for row in comp.lowering)
    assert comp.last_report.structure() == reports["interpreter"].last_report.structure()


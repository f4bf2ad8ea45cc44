"""The python tier's scalar path (DESIGN.md §9): point accesses through
memoryviews, transient Scalars as Python locals, statements on Python
numbers that recompute on NumPy scalars where they raise, and
symbol-only branches as Python conditionals.

Results are compared with the reference interpreter bit for bit, so NaN
payloads and signs of zero count."""

import hashlib
import re
import warnings

import numpy as np
import pytest

import repro as rp
from repro.codegen import compile_sdfg
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes
from repro.workloads import polybench

N = rp.symbol("N")
F64 = dtypes.float64


def program(fn):
    fn._sdfg = None
    return fn.to_sdfg()


def _copy(kwargs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}


def run_both(sdfg, **kwargs):
    """(generated-code outputs, interpreter outputs, generated source);
    ``compile_kwargs`` go to :func:`compile_sdfg`."""
    options = kwargs.pop("compile_kwargs", {})
    comp = compile_sdfg(sdfg, backend="python", cache="off", **options)
    cg, it = _copy(kwargs), _copy(kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        comp(**cg)
        SDFGInterpreter(sdfg, validate=False)(**it)
    return cg, it, comp.source


def assert_bitwise(cg, it):
    for k, v in cg.items():
        if isinstance(v, np.ndarray):
            assert v.dtype == it[k].dtype, k
            assert v.tobytes() == it[k].tobytes(), (k, v, it[k])


SPECIAL = np.array([1.5, -2.0, 0.0, -0.0, np.inf, -np.inf, np.nan])


# ------------------------------------------------------ Python-number path
@rp.program
def divide(A: rp.float64[N], B: rp.float64[N], C: rp.float64[N], D: rp.float64[N]):
    for i in range(N):
        B[i] = A[i] / 0.0
        C[i] = -A[i] / 0.0
        D[i] = (A[i] - A[i]) / 0.0


def test_division_by_zero_recomputes_on_numpy_scalars():
    """``x / 0.0``, ``-x / 0.0`` and ``0.0 / 0.0`` raise on Python floats;
    the fallback recomputes them on NumPy scalars: NumPy's infinities and
    NaNs, bit for bit, with NumPy's warning."""
    sdfg = program(divide)
    n = len(SPECIAL)
    kwargs = dict(A=SPECIAL.copy(), B=np.ones(n), C=np.ones(n), D=np.ones(n), N=n)
    cg, it, src = run_both(sdfg, **kwargs)
    assert_bitwise(cg, it)
    assert "__mv_A = memoryview(A) if A.dtype == np.float64 else A" in src
    assert "except ArithmeticError:" in src and "np.float64(__in0)" in src
    assert np.isposinf(cg["B"][0]) and np.isneginf(cg["C"][0])
    assert np.isnan(cg["D"]).all()
    comp = compile_sdfg(sdfg, backend="python", cache="off")
    with pytest.warns(RuntimeWarning, match="divide by zero"), np.errstate(invalid="ignore"):
        comp(**_copy(kwargs))


def _wcr_point(wcr):
    sdfg = SDFG(f"wcr_{wcr}")
    sdfg.add_array("A", ("N",), F64)
    sdfg.add_array("s", (1,), F64)
    sdfg.add_state().add_mapped_tasklet(
        "combine", {"i": "0:N"}, inputs={"a": Memlet.simple("A", "i")},
        code="o = a", outputs={"o": Memlet(data="s", subset="0", wcr=wcr)},
    )
    return sdfg


CASES = [(a, b) for a in (np.nan, 0.0, -0.0, 1.0) for b in (np.nan, 0.0, -0.0, -1.0)]


@pytest.mark.parametrize("wcr", ["max", "min"])
@pytest.mark.parametrize("start, value", CASES)
def test_point_wcr_in_a_loop_matches_the_interpreter(wcr, start, value):
    """A loop-tier WCR into one element, NaN and signed zeros on either
    side: the store through the memoryview applies the WCR as the
    interpreter does."""
    cg, it, src = run_both(
        _wcr_point(wcr), A=np.array([value]), s=np.array([start]), N=1,
        compile_kwargs=dict(vectorize=False),
    )
    assert_bitwise(cg, it)
    assert "__mv_s[0] = _wcr_0(__mv_s[0], o)" in src


@pytest.mark.parametrize("wcr, ufunc", [("max", np.maximum), ("min", np.minimum)])
@pytest.mark.parametrize("start, value", CASES)
def test_point_combine_is_the_ufunc_on_nan_and_signed_zeros(wcr, ufunc, start, value):
    """The whole-domain tier reduces with the ufunc and combines the one
    element by comparisons: the same value as ``ufunc(start, value)``,
    NaN and signed zeros included."""
    sdfg = _wcr_point(wcr)
    comp = compile_sdfg(sdfg, backend="python", cache="off")
    op = ">" if wcr == "max" else "<"
    combine = rf"s\[0\] = (__a\d+) if \(\1 {op} __red0 or \1 != \1\) else __red0"
    assert re.search(combine, comp.source), comp.source
    assert "np.maximum(s" not in comp.source and "np.minimum(s" not in comp.source
    s = np.array([start])
    comp(A=np.array([value]), s=s, N=1)
    assert s.tobytes() == np.array([ufunc(start, value)]).tobytes()


def test_division_of_point_loads_in_a_vectorized_map():
    """A whole-domain map dividing one point load by another (through an
    output connector it computed first) keeps NumPy scalars for them: a
    zero divisor gives ``inf``, as in the interpreter, instead of
    raising."""
    sdfg = SDFG("points")
    sdfg.add_array("A", (2,), F64)
    sdfg.add_array("B", ("N",), F64)
    sdfg.add_array("C", ("N",), F64)
    init, body = sdfg.add_state(), sdfg.add_state()
    body.add_mapped_tasklet(
        "divide", {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "0"), "b": Memlet.simple("A", "1")},
        code="o = a * 2.0\np = o / b",
        outputs={"o": Memlet.simple("B", "i"), "p": Memlet.simple("C", "i")},
    )
    sdfg.add_loop(init, body, None, "t", "0", "t < 2", "t + 1")  # points in a loop
    cg, it, src = run_both(sdfg, A=np.array([1.5, 0.0]), B=np.zeros(3), C=np.zeros(3), N=3)
    assert_bitwise(cg, it)
    assert np.isposinf(cg["C"]).all()
    assert "__in_b = A[1]" in src


def test_symbol_only_branch_in_a_dividing_tasklet_stays_where():
    """``N / (1.0 if N > 5 else 0.0)`` through a local: a Python 0.0 would
    raise, so a tasklet that divides keeps ``np.where``, whose 0-d array
    divides to ``inf`` as the whole-domain tier always did.  (The
    interpreter runs the tasklet on Python numbers and raises.)"""
    sdfg = SDFG("branch_divide")
    sdfg.add_array("B", ("N",), F64)
    sdfg.add_state().add_mapped_tasklet(
        "divide", {"i": "0:N"}, inputs={},
        code="s = 1.0 if N > 5 else 0.0\no = N / s",
        outputs={"o": Memlet.simple("B", "i")},
    )
    comp = compile_sdfg(sdfg, backend="python", cache="off")
    B = np.zeros(3)
    with np.errstate(divide="ignore"):
        comp(B=B, N=3)
    assert np.isposinf(B).all()
    assert "np.where(N > 5, 1.0, 0.0)" in comp.source


@rp.program
def shifted(A: rp.float64[N, N], B: rp.float64[N, N]):
    for i in range(1, N):
        for j in range(2, N):
            B[i, j] = A[i - 1, j - 2] * 2.0 + A[i, j]


def test_negative_offset_index():
    """``A[i - 1, j - 2]``: the memoryview reads the element NumPy
    indexing reads."""
    n = 5
    cg, it, src = run_both(
        program(shifted), A=np.random.rand(n, n), B=np.zeros((n, n)), N=n
    )
    assert_bitwise(cg, it)
    assert "__mv_A[((-1) + i), ((-2) + j)]" in src


@rp.program
def promoted(A: rp.float32[N], B: rp.float32[N], x: rp.float64[N]):
    s: rp.float64
    s[0] = x[0]
    for k in range(2):
        s[0] = s[0] / 3.0
        for i in rp.map[0:N]:
            B[i] = A[i] * s[0]


def test_local_scalar_feeding_a_float32_map_stays_double():
    """A transient Scalar is a Python local; a float32 map reads it as
    ``np.float64``, since NEP 50 would otherwise compute in single
    precision."""
    n = 64
    A = np.random.RandomState(3).rand(n).astype(np.float32)
    kwargs = dict(A=A, B=np.zeros(n, np.float32), x=np.array([1.0] * n), N=n)
    cg, it, src = run_both(program(promoted), **kwargs)
    assert_bitwise(cg, it)
    assert "s = 0.0" in src and "s = np.zeros" not in src
    assert "np.float64(s)" in src
    # The test can tell: single precision gives other bits.
    single = A * np.float32(1.0 / 9.0)
    assert single.tobytes() != cg["B"].tobytes()


# --------------------------------------------------------- structural pins
def _source(name, **options):
    return compile_sdfg(
        polybench.get(name).make_sdfg(), backend="python", cache="off", **options
    ).source


def test_seidel_point_statement_reads_the_memoryview():
    src = _source("seidel-2d")
    assert "__mv_A = memoryview(A) if A.dtype == np.float64 else A" in src
    assert "__in4 = __mv_A[i, j]" in src and "__mv_A[i, j] = __out" in src


def test_durbin_scalars_are_locals():
    src = _source("durbin")
    for name in ("alpha", "beta", "summ"):
        assert f"{name} = np.zeros" not in src
        assert f"    {name} = 0.0\n" in src
    assert "summ = summ + __red0" in src


def test_deriche_has_no_symbol_only_where():
    src = _source("deriche")
    assert "np.where" not in src
    assert "(1.0 if j >= 1 else 0.0)" in src


@rp.program
def mixed(F: rp.float32[N], I: rp.int64[N], D: rp.float64[N]):
    for i in range(N):
        D[i] = F[i] * 2.0 + I[i]
        F[i] = D[i]
        I[i] = I[i] + 1


def test_float32_and_int64_containers_keep_numpy_indexing():
    n = 5
    cg, it, src = run_both(
        program(mixed), F=np.random.rand(n).astype(np.float32),
        I=np.arange(n), D=np.zeros(n), N=n,
    )
    assert_bitwise(cg, it)
    assert "__mv_F" not in src and "__mv_I" not in src
    assert "F[i]" in src and "I[i]" in src and "__mv_D[i]" in src


def test_scalar_passed_to_a_nested_sdfg_stays_an_array():
    inner = SDFG("inner")
    inner.add_array("x", (1,), F64)
    inner.add_array("y", ("K",), F64)
    inner.add_state().add_mapped_tasklet(
        "scale", {"i": "0:K"},
        inputs={"a": Memlet.simple("x", "0"), "b": Memlet.simple("y", "i")},
        code="c = a * b", outputs={"c": Memlet.simple("y", "i")},
    )
    outer = SDFG("outer")
    outer.add_array("A", ("N",), F64)
    outer.add_scalar("s", F64, transient=True)
    st = outer.add_state()
    t = st.add_tasklet("init", ["a"], ["o"], "o = a * 2.0")
    st.add_edge(st.add_read("A"), t, Memlet.simple("A", "0"), None, "a")
    s_node = st.add_access("s")
    st.add_edge(t, s_node, Memlet.simple("s", "0"), "o", None)
    node = st.add_nested_sdfg(inner, ["x", "y"], ["y"], symbol_mapping={"K": "N"})
    st.add_edge(s_node, node, Memlet.simple("s", "0"), None, "x")
    st.add_edge(st.add_read("A"), node, Memlet.simple("A", "0:N"), None, "y")
    st.add_edge(node, st.add_write("A"), Memlet.simple("A", "0:N"), "y", None)
    cg, it, src = run_both(outer, A=np.random.rand(6), N=6)
    assert_bitwise(cg, it)
    assert "s = np.zeros((1,), dtype=np.float64)" in src


#: sha256 of the sanitized builds' sources as recorded before the scalar
#: path existed: ``sanitize=True`` keeps NumPy indexing everywhere.
#: Re-recorded when the entry functions lost their worker-pool
#: parameter, the only change to these sources.
SANITIZED = {
    "durbin": "709399b3fb7f112b16870c16ddaa0e38f12e9a716edc8e2c173a06ae1b4a220b",
    "seidel-2d": "5a742602114415a278a69768a91651d5f50e56dc220b7e48cf53e8178b8466eb",
    "nussinov": "9bab5f1196b075333ef5ed53e718d2e6692485682723224a768d692226559872",
    "deriche": "f21552ed7990061fd8f32be43fb4f0c5a8fd20ab9f083245692a55204a1f87eb",
}


@pytest.mark.parametrize("name", sorted(SANITIZED))
def test_sanitized_source_is_unchanged(name):
    src = _source(name, sanitize=True)
    assert hashlib.sha256(src.encode()).hexdigest() == SANITIZED[name]
    assert "__mv_" not in src and "except ArithmeticError" not in src

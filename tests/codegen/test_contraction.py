"""The contraction tier: a (scaled) product of two strided views summed
into one output over exactly one parameter is one ``@`` planned from the
operands' parameters alone, whether or not ``Vectorization`` marked the
map.  Ground truth is the reference interpreter and the loop tier
(``vectorize=False``); a map of any other shape keeps its previous tier.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_sdfg
from repro.codegen.python_gen import _contraction_plan
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes

DTYPES = {"float64": dtypes.float64, "float32": dtypes.float32, "int64": dtypes.int64}
TOL = {"float64": 1e-10, "float32": 1e-4, "int64": 0}


def _copy(kwargs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}


def run_three(sdfg, **kwargs):
    """(generated outputs, loop-tier outputs, interpreter outputs, the
    generated artifact)."""
    comp = compile_sdfg(sdfg, backend="python")
    assert comp.backend == "python", comp.degradation
    loop = compile_sdfg(sdfg, backend="python", vectorize=False)
    cg, lp, it = _copy(kwargs), _copy(kwargs), _copy(kwargs)
    comp(**cg)
    loop(**lp)
    SDFGInterpreter(sdfg, validate=False)(**it)
    return cg, lp, it, comp


def assert_equal(cg, lp, it, tol=1e-10):
    for k, v in cg.items():
        if isinstance(v, np.ndarray):
            np.testing.assert_allclose(v, it[k], rtol=tol, atol=tol, err_msg=k)
            np.testing.assert_allclose(lp[k], it[k], rtol=tol, atol=tol, err_msg=k)


def tiers(comp):
    return [row["tier"] for row in comp.lowering]


def mapped(ranges, inputs, code, outputs, arrays, marked=False):
    sdfg = SDFG("contract")
    for arr, (shape, dtype) in arrays.items():
        sdfg.add_array(arr, shape, dtype)
    _, entry, _ = sdfg.add_state().add_mapped_tasklet(
        "contract", ranges, inputs=inputs, code=code, outputs=outputs
    )
    entry.map.vectorized = marked
    return sdfg


F64 = dtypes.float64


# ================================================================ the plan
@pytest.mark.parametrize("x, y, out, plan", [
    # matmul, matvec, vecmat, dot: no batch, 1-D operands for vectors
    ("ik", "kj", "ij", ("", "", "")),
    ("ik", "k", "i", ("", "", "")),
    ("ki", "k", "i", (".transpose(1, 0)", "", "")),
    ("k", "kj", "j", ("", "", "")),
    ("k", "k", "", ("", "", "")),
    # a transposed result
    ("ik", "kj", "ji", ("", "", ".transpose(1, 0)")),
    # a shared parameter is a batch axis
    ("bik", "bkj", "bij", ("", "", "")),
    # a second free parameter of one operand too, broadcast in the other
    ("rqs", "sp", "rqp", ("", "[None, :, :]", "")),
    # batched matvec: the missing n is a size-1 slot, dropped afterwards
    ("bik", "bk", "bi", ("", "[:, :, None]", "[:, :, 0]")),
])
def test_plan_is_a_function_of_the_parameter_lists(x, y, out, plan):
    params = sorted(set(x) | set(y))
    assert _contraction_plan(list(x), list(y), list(out), params) == plan


@pytest.mark.parametrize("x, y, out, params", [
    ("ii", "i", "", "i"),          # a parameter twice in one operand
    ("ijk", "jk", "i", "ijk"),     # two summed parameters
    ("ikl", "kj", "ij", "ijkl"),   # l summed in one operand only
    ("ik", "k", "ij", "ijk"),      # j in the output but in no operand
    ("ik", "k", "i", "ijk"),       # j in no operand at all
    ("ij", "ij", "ij", "ij"),      # nothing summed
])
def test_plan_rejects_every_other_shape(x, y, out, params):
    assert _contraction_plan(list(x), list(y), list(out), list(params)) is None


# ======================================================== property: any shape
@st.composite
def contractions(draw):
    """A qualifying map: one summed parameter ``k``, every other
    parameter in the output and in one or both operands, operand and
    output axes in any order, each index ``c*p + d`` over ``lo:N:step``."""
    params = list("ijkl"[: draw(st.integers(1, 4))])
    k = draw(st.sampled_from(params))
    roles = {p: draw(st.sampled_from(["x", "y", "xy"])) for p in params if p != k}
    x = draw(st.permutations([p for p in params if p == k or "x" in roles[p]]))
    y = draw(st.permutations([p for p in params if p == k or "y" in roles[p]]))
    out = draw(st.permutations([p for p in params if p != k]))
    ranges = {
        p: (draw(st.integers(0, 1)), draw(st.integers(0, 4)), draw(st.integers(1, 2)))
        for p in params
    }
    index = {
        (name, p): (draw(st.integers(1, 2)), draw(st.integers(0, 1)))
        for name, axes in (("X", x), ("Y", y), ("C", out)) for p in axes
    }
    coef = draw(st.sampled_from(["", "-", "2 * ", "-3 * ", "0.5 * "]))
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    return x, y, out, ranges, index, coef, dtype, draw(st.booleans()), draw(st.integers(0, 99))


def _contraction_case(x, y, out, ranges, index, coef, dtype, marked, seed):
    def subset(name, axes):
        return ", ".join(f"{index[name, p][0]}*{p} + {index[name, p][1]}" for p in axes)

    def shape(name, axes):
        return [f"{index[name, p][0]}*N{p} + {index[name, p][1]}" for p in axes] or [1]

    sdfg = mapped(
        {p: f"{lo}:N{p}:{step}" for p, (lo, _, step) in ranges.items()},
        {"a": Memlet.simple("X", subset("X", x)), "b": Memlet.simple("Y", subset("Y", y))},
        f"o = {coef}a * b",
        {"o": Memlet(data="C", subset=subset("C", out) or "0", wcr="sum")},
        {name: (shape(name, axes), DTYPES[dtype])
         for name, axes in (("X", x), ("Y", y), ("C", out))},
        marked=marked,
    )
    sizes = {f"N{p}": n for p, (_, n, _) in ranges.items()}
    rng = np.random.default_rng(seed)
    kwargs = dict(sizes)
    for name, axes in (("X", x), ("Y", y), ("C", out)):
        dims = [index[name, p][0] * sizes[f"N{p}"] + index[name, p][1] for p in axes] or [1]
        if dtype == "int64":
            kwargs[name] = rng.integers(-3, 4, dims)
        else:
            kwargs[name] = rng.standard_normal(dims).astype(dtype)
    return sdfg, kwargs


@settings(max_examples=150, deadline=None)
@given(contractions())
def test_every_two_operand_contraction_equals_the_interpreter(case):
    sdfg, kwargs = _contraction_case(*case)
    cg, lp, it, comp = run_three(sdfg, **kwargs)
    coef, dtype = case[5], case[6]
    assert_equal(cg, lp, it, TOL[dtype])
    # A fractional factor makes an integer sum cast after every iteration.
    want = "loop" if dtype == "int64" and coef == "0.5 * " else "contraction"
    assert tiers(comp) == [want]
    assert "einsum" not in comp.source


# ============================================================ regressions
def test_empty_strided_domain_leaves_the_output_alone():
    """``A[2*i, j]`` over ``i in 0:0`` slices ``0:-1:2``, which wraps: the
    plan runs under the emptiness guard."""
    sdfg = mapped(
        {"i": "0:N", "j": "0:M"},
        {"a": Memlet.simple("A", "2*i, j"), "b": Memlet.simple("x", "i")},
        "o = a * b", {"o": Memlet(data="y", subset="j", wcr="sum")},
        {"A": (("2*N + K", "M"), F64), "x": (("N",), F64), "y": (("M",), F64)},
        marked=True,
    )
    y = np.array([1.0, 2.0])
    cg, lp, it, comp = run_three(
        sdfg, A=np.ones((6, 2)), x=np.ones(0), y=y, N=0, M=2, K=6
    )
    assert_equal(cg, lp, it)
    assert tiers(comp) == ["contraction"]
    assert np.array_equal(cg["y"], y)


@pytest.mark.parametrize("code, tier", [
    ("o = a * b", "contraction"),
    ("o = a * b + a", "slice"),
])
@pytest.mark.parametrize("float_a", [True, False])
def test_sums_into_an_integer_container_cast_like_the_interpreter(code, tier, float_a):
    """``C[i, j] += A[i, k] * B[k, j]`` into int64: the interpreter casts
    after every iteration (1.5 four times is 4, not 6), so a float value
    takes the loop tier; an integer one keeps its whole-domain tier."""
    sdfg = mapped(
        {"i": "0:N", "j": "0:N", "k": "0:N"},
        {"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j")},
        code,
        {"o": Memlet(data="C", subset="i, j", wcr="sum")},
        {"A": (("N", "N"), F64 if float_a else dtypes.int64),
         "B": (("N", "N"), dtypes.int64), "C": (("N", "N"), dtypes.int64)},
        marked=True,
    )
    A = np.full((4, 4), 1.5) if float_a else np.full((4, 4), 3)
    cg, lp, it, comp = run_three(
        sdfg, A=A, B=np.ones((4, 4), np.int64), C=np.zeros((4, 4), np.int64)
    )
    assert_equal(cg, lp, it, 0)
    if float_a:
        assert tiers(comp) == ["loop"]
        assert "not integer by construction" in comp.lowering[0]["reason"]
        if code == "o = a * b":
            assert (cg["C"] == 4).all()
    else:
        assert tiers(comp) == [tier]


# ============================================================== rejections
@pytest.mark.parametrize("ranges, inputs, out, tier", [
    pytest.param(  # a diagonal operand: no basic slice can express it
        {"i": "0:N", "j": "0:N"}, {"a": "A[i, i]", "b": "B[i, j]"}, "s[j]", "loop",
        id="diagonal"),
    pytest.param(
        {"i": "0:N", "j": "0:N", "k": "0:N"}, {"a": "T[i, j, k]", "b": "B[j, k]"},
        "s[i]", "slice", id="two-summed"),
    pytest.param(
        {"i": "0:N", "j": "0:N", "k": "0:N", "l": "0:N"},
        {"a": "T[i, k, l]", "b": "B[k, j]"}, "C[i, j]", "slice",
        id="summed-in-one-operand-only"),
    pytest.param(
        {"i": "0:N", "j": "0:N", "k": "0:N"}, {"a": "A[i, k]", "b": "x[k]"},
        "C[i, j]", "slice", id="in-no-input"),
])
def test_other_shapes_keep_their_tier(ranges, inputs, out, tier):
    def memlet(text, **kw):
        name, subset = text[:-1].split("[")
        return Memlet(data=name, subset=subset, **kw)

    sdfg = mapped(
        ranges, {c: memlet(t) for c, t in inputs.items()}, "o = a * b",
        {"o": memlet(out, wcr="sum")},
        {"A": (("N", "N"), F64), "B": (("N", "N"), F64), "T": (("N", "N", "N"), F64),
         "x": (("N",), F64), "s": (("N",), F64), "C": (("N", "N"), F64)},
    )
    rng = np.random.default_rng(0)
    kwargs = {
        name: rng.standard_normal(shape)
        for name, shape in (("A", (5, 5)), ("B", (5, 5)), ("T", (5, 5, 5)),
                            ("x", (5,)), ("s", (5,)), ("C", (5, 5)))
    }
    cg, lp, it, comp = run_three(sdfg, **kwargs)
    assert_equal(cg, lp, it)
    assert tiers(comp) == [tier]
    assert " @ " not in comp.source

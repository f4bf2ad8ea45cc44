"""Strips: a top-level scatter-tier map runs its one lowering once per
strip of its first parameter (DESIGN.md §9).

The two size constants are patched down so that scatter maps strip at
test sizes.  A stripped run equals the same program lowered whole, and
both equal the interpreter: bitwise, unless a stripped map sums (or
multiplies) floats across its strips, which reassociates the sum.  Maps
on every other tier emit the same text as without strips.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro as rp
from repro.codegen import compile_sdfg, python_gen
from repro.codegen.python_gen import PythonGenerator
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.dtypes import ReductionType
from repro.sdfg.nodes import MapEntry
from repro.workloads import kernels, polybench
from tests.codegen.test_parallel_parity import (
    PROGRAMS,
    _fresh,
    _in_place_sdfg,
    in_place_maps,
)

STRIP_LOOP = re.compile(r"for __lo, __hi, __n_\w+ in ")
#: The label of each scatter map whose header opens a strip loop.
STRIPPED_SCATTER = re.compile(
    r"# wcr scatter lowering for map (\S+)\n(?:[ \t]*__n_\w+ = .*\n)+"
    r"[ \t]*if .*:\n[ \t]*for __lo, __hi, "
)


def _tiny(m, points):
    m.setattr(python_gen, "STRIP_FLOOR", 0)
    m.setattr(python_gen, "STRIP_POINTS", points)


@pytest.fixture
def tiny_strips(monkeypatch):
    """Every strippable map strips, in strips of 7 points."""
    _tiny(monkeypatch, 7)


def _whole(m):
    """Lower every map unstripped."""
    m.setattr(PythonGenerator, "_strip_plan",
              lambda self, sdfg, entry, pranges, strip: (pranges, None))


def _compile(make_sdfg, **kwargs):
    return compile_sdfg(make_sdfg(), backend="python", cache="off", fallback=False, **kwargs)


def _small_case(name):
    """A corpus program at sizes the interpreter runs in well under a
    second: every PolyBench size cut to a third but at least 6, the
    kernels smaller than the parity test's."""
    if name == "matmul":
        d = kernels.matmul_data(12)
        return kernels.matmul_sdfg, d
    if name == "jacobi2d":
        return kernels.jacobi2d_sdfg, {"A": kernels.jacobi2d_data(12)["A"], "T": 2}
    if name == "histogram":
        return kernels.histogram_sdfg, kernels.histogram_data(24, 20)
    if name == "query":
        return kernels.query_sdfg, kernels.query_data(300)
    if name == "spmv":
        return kernels.spmv_sdfg, kernels.spmv_data(40, 4)[0]
    if name == "gemm_chain":
        return kernels.gemm_chain_sdfg, kernels.gemm_chain_data(6)
    kernel = polybench.get(name)
    sizes = {k: max(6, v // 3) for k, v in kernel.sizes.items()}
    inputs = kernel.make_data(sizes)
    for sym in kernel.extra_symbols:
        inputs[sym] = sizes[sym]
    return kernel.make_sdfg, inputs


def _sums_floats(compiled):
    """Whether a stripped map of ``compiled`` sums or multiplies into a
    float container: then strips reassociate it, and results agree only
    to rounding."""
    stripped = set(STRIPPED_SCATTER.findall(compiled.source))
    sdfg = compiled.sdfg
    for state in sdfg.nodes():
        for node in state.nodes():
            if not (isinstance(node, MapEntry) and node.map.label in stripped):
                continue
            for e in state.out_edges(state.exit_node(node)):
                m = e.data
                rtype = m.reduction_type() if m.wcr is not None else ReductionType.Sum
                if (
                    rtype in (ReductionType.Sum, ReductionType.Product)
                    and sdfg.arrays[m.data].dtype.nptype.kind in "fc"
                ):
                    return True
    return False


def _outputs(name, got):
    if name == "query":
        n = int(got["size"][0])
        return {"out": np.sort(got["out"][:n]), "size": got["size"]}
    return {k: v for k, v in got.items() if isinstance(v, np.ndarray)}


def _same(name, got, want, exact, against):
    for k, have in _outputs(name, got).items():
        ref = _outputs(name, want)[k]
        msg = f"{name}[{k}] vs {against}"
        if exact:
            np.testing.assert_array_equal(have, ref, err_msg=msg)
        else:
            rtol = 1e-5 if have.dtype == np.float32 else 1e-8
            np.testing.assert_allclose(have, ref, rtol=rtol, atol=rtol, err_msg=msg)


def test_the_constants_are_the_documented_sizes():
    assert python_gen.STRIP_FLOOR == 256 * 1024
    assert python_gen.STRIP_POINTS == 32 * 1024


@pytest.mark.parametrize("points", [1, 24])
@pytest.mark.parametrize("name", PROGRAMS)
def test_stripped_equals_whole_equals_the_interpreter(name, points):
    make_sdfg, inputs = _small_case(name)
    with pytest.MonkeyPatch.context() as m:
        _tiny(m, points)
        stripped = _compile(make_sdfg)
        _whole(m)
        whole = _compile(make_sdfg)
    assert "_strips(" not in whole.source
    if "scatter" in {r["tier"] for r in stripped.lowering}:
        assert STRIPPED_SCATTER.search(stripped.source)
    else:
        assert stripped.source == whole.source
    runs = {}
    for key, compiled in (("stripped", stripped), ("whole", whole)):
        runs[key] = _fresh(inputs)
        compiled(**runs[key])
    oracle = _fresh(inputs)
    SDFGInterpreter(make_sdfg())(**oracle)
    exact = not _sums_floats(stripped)
    _same(name, runs["stripped"], runs["whole"], exact, "the whole lowering")
    _same(name, runs["stripped"], oracle, False, "the interpreter")


# ===================================================== generated scatter maps
B = 5  # bins


@st.composite
def scatter_maps(draw):
    """A scatter ``H[idx] op= val`` over one or two parameters (first
    either way round), with a strided or symbolic first range, a sum, min
    or max update into int64 or float64 bins, and a value that is a
    constant, a load or a parameter.  Values are small integers, so
    float sums are exact in any order."""
    two = draw(st.booleans())
    start, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    first = f"{start}:n:{step}" if draw(st.booleans()) else f"{start}:9:{step}"
    ranges = {"i": first, "j": "1:7"} if two else {"i": first}
    if two and draw(st.booleans()):
        ranges = {"j": ranges["j"], "i": ranges["i"]}
    c = draw(st.integers(0, 3))
    idx = f"(x + {c} * i) % {B}"
    val = draw(st.sampled_from(["2", "x", "i + 1"]))
    op = draw(st.sampled_from(["sum", "min", "max"]))
    dtype = draw(st.sampled_from([dtypes.int64, dtypes.float64]))
    return ranges, idx, val, op, dtype, draw(st.integers(0, 99))


def _scatter_sdfg(ranges, idx, val, op, dtype):
    code = (
        f"hh[{idx}] += {val}" if op == "sum"
        else f"hh[{idx}] = {op}(hh[{idx}], {val})"
    )
    sdfg = SDFG("scatter")
    sdfg.add_array("X", (9, 9), dtypes.int64)
    sdfg.add_array("H", (B,), dtype)
    sdfg.add_symbol("n", dtypes.int64)
    sdfg.add_state().add_mapped_tasklet(
        "upd", ranges,
        inputs={
            "x": Memlet.simple("X", "i, j" if "j" in ranges else "i, 0"),
            "hh": Memlet.simple("H", f"0:{B}"),
        },
        code=code,
        outputs={"hout": Memlet(data="H", subset=f"0:{B}", dynamic=True)},
    )
    return sdfg


@settings(max_examples=60, deadline=None)
@given(scatter_maps(), st.sampled_from([1, 9, 20]))
def test_generated_scatter_maps_strip_soundly(case, points):
    """Stripped equals whole equals the interpreter, bitwise, at strips
    of 1, 9 and 20 points."""
    ranges, idx, val, op, dtype, seed = case
    X = np.random.default_rng(seed).integers(0, 50, (9, 9))
    H = np.full(B, 25, dtype=dtype.nptype)
    runs = {}
    with pytest.MonkeyPatch.context() as m:
        _tiny(m, points)
        stripped = _compile(lambda: _scatter_sdfg(ranges, idx, val, op, dtype))
        _whole(m)
        whole = _compile(lambda: _scatter_sdfg(ranges, idx, val, op, dtype))
    assert [r["tier"] for r in stripped.lowering] == ["scatter"]
    assert STRIPPED_SCATTER.search(stripped.source)
    assert not STRIP_LOOP.search(whole.source)
    for key, compiled in (("stripped", stripped), ("whole", whole)):
        runs[key] = H.copy()
        compiled(X=X, H=runs[key], n=9)
    oracle = H.copy()
    SDFGInterpreter(_scatter_sdfg(ranges, idx, val, op, dtype))(X=X, H=oracle, n=9)
    np.testing.assert_array_equal(runs["stripped"], runs["whole"])
    np.testing.assert_array_equal(runs["stripped"], oracle)


# ======================================================== maps that stay whole
def _scatter_reading_its_bins():
    """``H[x % 5] += H[0]``: every iteration reads what it accumulates."""
    sdfg = SDFG("reads_acc")
    sdfg.add_array("X", ("N",), dtypes.int64)
    sdfg.add_array("H", (B,), dtypes.int64)
    sdfg.add_state().add_mapped_tasklet(
        "acc", {"i": "0:N"},
        inputs={"x": Memlet.simple("X", "i"), "h0": Memlet.simple("H", "0"),
                "hh": Memlet.simple("H", f"0:{B}")},
        code=f"hh[x % {B}] += h0",
        outputs={"hout": Memlet(data="H", subset=f"0:{B}", dynamic=True)},
    )
    return sdfg


@pytest.mark.parametrize("make_sdfg,tier", [
    (_scatter_reading_its_bins, "scatter"),
    (lambda: _scatter_sdfg({"i": "0:9:n"}, "x % 5", "1", "sum", dtypes.int64), "scatter"),
    (lambda: _in_place_sdfg("affine", (1, -1, 0), {"i": "1:9", "j": "0:9"})[0], "slice"),
    (kernels.query_sdfg, "predicated"),
], ids=["reads-its-accumulator", "symbolic-step", "read-after-store", "stream-push"])
def test_maps_chunk_plan_refuses_never_strip(tiny_strips, make_sdfg, tier):
    compiled = _compile(make_sdfg)
    assert [r["tier"] for r in compiled.lowering] == [tier]
    assert "_strips" not in compiled.source and not STRIP_LOOP.search(compiled.source)


@settings(max_examples=30, deadline=None)
@given(in_place_maps())
def test_generated_in_place_maps_never_strip(case):
    """Maps off the scatter tier emit the text they emit without strips."""
    shape, abc, ranges, _, _ = case
    with pytest.MonkeyPatch.context() as m:
        _tiny(m, 1)
        stripped = _compile(lambda: _in_place_sdfg(shape, abc, ranges)[0])
        _whole(m)
        whole = _compile(lambda: _in_place_sdfg(shape, abc, ranges)[0])
    assert stripped.source == whole.source


def test_a_small_constant_domain_emits_the_whole_text():
    """A domain of at most STRIP_FLOOR constant points never strips."""
    sdfg = _scatter_sdfg({"i": "0:9", "j": "0:9"}, "x % 5", "1", "sum", dtypes.int64)
    compiled = compile_sdfg(sdfg, backend="python", cache="off")
    assert [r["tier"] for r in compiled.lowering] == ["scatter"]
    assert "__lo" not in compiled.source


# ===================================================== one lowering, one proof
@pytest.mark.parametrize("name", PROGRAMS)
def test_each_map_scope_is_lowered_once(tiny_strips, monkeypatch, name):
    calls = {}
    lower = PythonGenerator._lower_whole_domain

    def counted(self, sdfg, state, entry, *args, **kwargs):
        calls[id(entry)] = calls.get(id(entry), 0) + 1
        return lower(self, sdfg, state, entry, *args, **kwargs)

    monkeypatch.setattr(PythonGenerator, "_lower_whole_domain", counted)
    compiled = _compile(_small_case(name)[0])
    assert set(calls.values()) <= {1}, calls
    assert len(calls) <= len(compiled.lowering)


@pytest.mark.usefixtures("no_work_floor")
@pytest.mark.parametrize("name", PROGRAMS)
def test_chunk_functions_never_strip(tiny_strips, name):
    make_sdfg, inputs = _small_case(name)
    compiled = _compile(make_sdfg, parallel="thread:2")
    try:
        got = _fresh(inputs)
        compiled(**got)
    finally:
        compiled.close()
    chunks = re.findall(r"^def _pchunk_\d+\(.*?(?=^\S)", compiled.source, re.M | re.S)
    assert len(chunks) == compiled.source.count("# parallel map")
    assert not any(STRIP_LOOP.search(fn) for fn in chunks)
    serial = _compile(make_sdfg)
    want = _fresh(inputs)
    serial(**want)
    # Chunks privatize and merge float sums: equal to rounding only.
    _same(name, got, want, False, "the serial run")


# ============================================================ scatter values
def test_histogram_scatters_its_value_without_a_broadcast():
    """A loop-invariant value goes to ``ufunc.at`` as it is: no
    domain-sized array of ones."""
    compiled = compile_sdfg(kernels.histogram_sdfg(), backend="python", cache="off")
    assert "np.broadcast_to(np.asarray(__scatter_val)" not in compiled.source
    assert "__sval = np.asarray(__scatter_val)" in compiled.source
    assert STRIPPED_SCATTER.search(compiled.source)
    for h, w in ((64, 48), (600, 500)):  # one strip; 10 strips
        d = kernels.histogram_data(h, w, seed=3)
        compiled(H=h, W=w, **d)
        assert d["hist"].dtype == np.int64
        np.testing.assert_array_equal(
            d["hist"], kernels.histogram_reference(d["img"], len(d["hist"]))
        )


N = rp.symbol("N")


def test_a_varying_scatter_value_is_still_broadcast():
    @rp.program
    def weighted(V: rp.int64[N], Wt: rp.float64[N], h: rp.float64[4]):
        for i in rp.map[0:N]:
            with rp.tasklet:
                v << V[i]
                w << Wt[i]
                hh << h[0:4]
                hout >> h(rp.dyn)[0:4]
                hh[v % 4] += w

    weighted._sdfg = None
    sdfg = weighted.to_sdfg()
    compiled = compile_sdfg(sdfg, backend="python", cache="off")
    assert compiled.lowering[0]["tier"] == "scatter"
    assert "np.broadcast_to(np.asarray(__scatter_val)" in compiled.source
    V, Wt = np.arange(10), np.linspace(0, 1, 10)
    got, oracle = np.zeros(4), np.zeros(4)
    compiled(V=V, Wt=Wt, h=got)
    SDFGInterpreter(sdfg)(V=V, Wt=Wt, h=oracle)
    np.testing.assert_array_equal(got, oracle)

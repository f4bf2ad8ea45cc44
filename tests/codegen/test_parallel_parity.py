"""The python backend over the whole corpus: every PolyBench registry
kernel and every ``repro.workloads.kernels`` program, at the default
lowering and with ``vectorize=False`` (every map on the loop tier),
against its NumPy reference at 1e-8.

The four programs whose maps read a container they also accumulate into
(cholesky, lu, nussinov, trmm) are checked against the interpreter too.
The interpreter is too slow for the whole registry, so it runs only on
those four.

The chunk census pins how many maps of each program have recorded
access facts that :func:`~repro.codegen.chunking.chunk_plan` accepts
(the facts that gate strips), and a property over generated in-place
maps checks the default lowering against the interpreter.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen.chunking import Unchunkable, chunk_plan
from repro.codegen.compiler import compile_sdfg
from repro.codegen.python_gen import PythonGenerator
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.nodes import MapEntry, NestedSDFG
from repro.workloads import kernels, polybench

#: The default lowering, and every map on the loop tier.
LOWERINGS = (None, "novec")
#: Programs with a map that reads a container it accumulates into.
INTERPRETED = ("cholesky", "lu", "nussinov", "trmm")
#: Programs also run off their registry sizes.
RESIZED = {
    "atax": {"NI": 40, "NJ": 44},
    "mvt": {"NI": 48},
    "jacobi-2d": {"N": 20, "TSTEPS": 3},
}
#: Program -> maps whose access facts ``chunk_plan`` accepts; 0 for the rest.
CHUNKED = {
    "2mm": 4, "3mm": 4, "adi": 8, "atax": 3, "bicg": 4, "correlation": 10,
    "covariance": 5, "deriche": 3, "doitgen": 2, "durbin": 3,
    "fdtd-2d": 4, "gemm": 2, "gemver": 4, "gesummv": 4, "gramschmidt": 4,
    "heat-3d": 2, "jacobi-1d": 2, "jacobi-2d": 2, "ludcmp": 4, "mvt": 2,
    "symm": 4, "syr2k": 2, "syrk": 2, "trisolv": 1, "trmm": 1,
    "gemm_chain": 16, "histogram": 1, "jacobi2d": 1, "matmul": 1, "spmv": 1,
}


def _polybench_case(name, sizes=None):
    kernel = polybench.get(name)
    sizes = {**kernel.sizes, **(sizes or {})}
    inputs = kernel.make_data(sizes)
    ref = {k: v.copy() for k, v in inputs.items()}
    kernel.ref_numpy(ref, sizes)
    for sym in kernel.extra_symbols:
        inputs[sym] = sizes[sym]
    return kernel.make_sdfg, inputs, {o: ref[o] for o in kernel.outputs}


def _spmv_reference(d):
    products = d["A_val"].astype(np.float64) * d["x"][d["A_col"]]
    return np.add.reduceat(products, d["A_row"][:-1].astype(np.intp))


def _kernel_case(name):
    if name == "matmul":
        d = kernels.matmul_data(32)
        return kernels.matmul_sdfg, d, {"C": kernels.matmul_reference(d)}
    if name == "jacobi2d":
        d = {"A": kernels.jacobi2d_data(32)["A"], "T": 4}
        return kernels.jacobi2d_sdfg, d, {"A": kernels.jacobi2d_reference(d["A"].copy(), 4)}
    if name == "histogram":
        d = kernels.histogram_data(64, 64)
        return kernels.histogram_sdfg, d, {"hist": kernels.histogram_reference(d["img"], 256)}
    if name == "query":
        d = kernels.query_data(1 << 10)
        return kernels.query_sdfg, d, {"out": kernels.query_reference(d["col"], d["threshold"])}
    if name == "spmv":
        d, _ = kernels.spmv_data(256, 8)
        return kernels.spmv_sdfg, d, {"b": _spmv_reference(d)}
    d = kernels.gemm_chain_data(16)
    return kernels.gemm_chain_sdfg, d, {"C": kernels.gemm_chain_reference(d)}


KERNEL_PROGRAMS = ("gemm_chain", "histogram", "jacobi2d", "matmul", "query", "spmv")
PROGRAMS = tuple(polybench.all_kernels()) + KERNEL_PROGRAMS


def _case(name):
    if name in KERNEL_PROGRAMS:
        return _kernel_case(name)
    return _polybench_case(name)


def _fresh(inputs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in inputs.items()}


def _check(name, got, expected, against):
    for out, want in expected.items():
        have = got[out]
        if name == "query":
            # The stream drains in no promised order: compare as multisets.
            n = int(got["size"][0])
            assert n == len(want), f"query vs {against}: {n} != {len(want)} rows"
            have, want = np.sort(have[:n]), np.sort(want)
        rtol = 1e-5 if np.asarray(have).dtype == np.float32 else 1e-8
        np.testing.assert_allclose(
            have, want, rtol=rtol, atol=rtol,
            err_msg=f"{name}[{out}] vs {against}",
        )


def test_registry_is_the_whole_corpus():
    assert len(PROGRAMS) == 36


def _run_case(name, case, lowering):
    make_sdfg, inputs, expected = case
    compiled = compile_sdfg(make_sdfg(), backend="python", vectorize=lowering != "novec",
                            cache="off", fallback=False)
    got = _fresh(inputs)
    compiled(**got)
    _check(name, got, expected, "numpy reference")
    return got, expected


@pytest.mark.parametrize("lowering", LOWERINGS, ids=str)
@pytest.mark.parametrize("name", PROGRAMS)
def test_matches_numpy_reference(name, lowering):
    _run_case(name, _case(name), lowering)


@pytest.mark.parametrize("lowering", LOWERINGS, ids=str)
@pytest.mark.parametrize("name", sorted(RESIZED))
def test_resized_programs_match_numpy_reference(name, lowering):
    _run_case(name, _polybench_case(name, RESIZED[name]), lowering)


def test_chunk_census_covers_the_corpus():
    assert set(CHUNKED) <= set(PROGRAMS)
    assert sum(CHUNKED.values()) == 106


def _maps(sdfg):
    """(SDFG, map entry) for every map of ``sdfg`` and its nested SDFGs."""
    for state in sdfg.nodes():
        for node in state.nodes():
            if isinstance(node, MapEntry):
                yield sdfg, node
            elif isinstance(node, NestedSDFG):
                yield from _maps(node.sdfg)


@pytest.mark.parametrize("name", PROGRAMS)
def test_chunk_census(name):
    sdfg = _case(name)[0]()
    sdfg.validate()
    sdfg.propagate()
    gen = PythonGenerator(sdfg)
    gen.generate()
    accepted = []
    for parent, entry in _maps(sdfg):
        if id(entry) in gen._accesses:
            try:
                accepted.append(chunk_plan(parent, entry.map, *gen._accesses[id(entry)]))
            except Unchunkable:
                pass
    assert len(accepted) == CHUNKED.get(name, 0), accepted


_ORACLE = {}


def _interpreted(name):
    if name not in _ORACLE:
        make_sdfg, inputs, _ = _case(name)
        got = _fresh(inputs)
        SDFGInterpreter(make_sdfg())(**got)
        _ORACLE[name] = got
    return _ORACLE[name]


@pytest.mark.parametrize("name", INTERPRETED)
def test_read_accumulate_programs_match_the_interpreter(name):
    """These maps read a container they accumulate into: the default
    lowering must read what the interpreter's loop order reads."""
    got, expected = _run_case(name, _case(name), None)
    oracle = _interpreted(name)
    _check(name, got, {out: oracle[out] for out in expected}, "interpreter")


# ================================================= in-place map soundness
N = 9


@st.composite
def in_place_maps(draw):
    """A map over ``i`` and ``j`` (in either order) storing ``X[i, j]``
    from ``X[a*i + b, j + c]``, from ``X[k, j]``, or from ``X[i, j]``,
    ``X[i, k]`` and ``X[k, j]`` (floyd-warshall's shape), its domain cut
    so that every read stays inside ``X``."""
    shape = draw(st.sampled_from(["affine", "row", "floyd"]))
    a, b, c = draw(st.integers(-1, 2)), draw(st.integers(-2, 3)), draw(st.integers(-2, 2))
    if shape != "affine":
        a, b, c = 0, 0, 0
    rows = [i for i in range(N) if 0 <= a * i + b < N]
    cols = [j for j in range(N) if 0 <= j + c < N]
    assume(rows)
    ranges = {"i": f"{rows[0]}:{rows[-1] + 1}", "j": f"{cols[0]}:{cols[-1] + 1}"}
    if draw(st.booleans()):
        ranges = {"j": ranges["j"], "i": ranges["i"]}
    return shape, (a, b, c), ranges, draw(st.integers(0, N - 1)), draw(st.integers(0, 99))


def _in_place_sdfg(shape, abc, ranges):
    a, b, c = abc
    if shape == "floyd":
        reads = {"x": "i, j", "y": "i, k", "z": "k, j"}
        code = "o = min(x, y + z)"
    else:
        reads = {"x": "k, j" if shape == "row" else f"{a}*i + {b}, j + {c}"}
        code = "o = x * 0.5 + 1.0"
    sdfg = SDFG("in_place")
    sdfg.add_array("X", (N, N), dtypes.float64)
    sdfg.add_symbol("k", dtypes.int64)
    sdfg.add_state().add_mapped_tasklet(
        "upd", ranges,
        inputs={conn: Memlet.simple("X", sub) for conn, sub in reads.items()},
        code=code,
        outputs={"o": Memlet.simple("X", "i, j")},
    )
    return sdfg, reads


def _reads_a_stored_point(reads, ranges, k):
    """Whether, in the interpreter's iteration order, some iteration
    reads a point an earlier iteration stored: the loop order is
    observable, and a whole-domain lowering reads every point first."""
    def point(sub, env):
        return tuple(eval(part, {}, env) for part in sub.split(","))

    spans = [range(*map(int, r.split(":"))) for r in ranges.values()]
    stored = set()
    for values in product(*spans):
        env = {**dict(zip(ranges, values)), "k": k}
        own = (env["i"], env["j"])
        if any(point(sub, env) in stored - {own} for sub in reads.values()):
            return True
        stored.add(own)
    return False


@settings(max_examples=60, deadline=None)
@given(in_place_maps())
def test_in_place_map_chunks_equal_serial(case):
    """The default lowering equals the interpreter bitwise wherever the
    map's result does not depend on its iteration order.
    floyd-warshall's shape never does: row and column ``k`` are fixed
    points of ``min(x, y + z)`` over non-negative data."""
    shape, abc, ranges, k, seed = case
    X = np.random.default_rng(seed).random((N, N))
    sdfg, reads = _in_place_sdfg(shape, abc, ranges)
    compiled = compile_sdfg(sdfg, backend="python", cache="off", fallback=False)
    got = X.copy()
    compiled(X=got, k=k)
    if shape == "floyd" or not _reads_a_stored_point(reads, ranges, k):
        oracle = X.copy()
        SDFGInterpreter(_in_place_sdfg(shape, abc, ranges)[0])(X=oracle, k=k)
        np.testing.assert_array_equal(got, oracle)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the slice tier's gate "
                   "admits a map that reads what an earlier iteration stored")
def test_in_place_read_after_store_matches_the_interpreter():
    """``X[i, j] = X[i - 1, j] * 0.5 + 1`` reads, in loop order, the row
    the previous iteration stored; the whole-domain lowering reads every
    row before it stores any."""
    ranges = {"i": f"1:{N}", "j": f"0:{N}"}
    sdfg, _ = _in_place_sdfg("affine", (1, -1, 0), ranges)
    X = np.random.default_rng(0).random((N, N))
    got, oracle = X.copy(), X.copy()
    compiled = compile_sdfg(sdfg, backend="python", cache="off", fallback=False)
    compiled(X=got, k=0)
    SDFGInterpreter(_in_place_sdfg("affine", (1, -1, 0), ranges)[0])(X=oracle, k=0)
    np.testing.assert_array_equal(got, oracle)

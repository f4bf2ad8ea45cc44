"""The parallel map tier over the whole corpus: every PolyBench registry
kernel and every ``repro.workloads.kernels`` program, at each
``parallel=`` spec, against its NumPy reference at 1e-8.

The work floor is patched to 0, so every chunkable map runs chunked.

The four programs whose maps read a container they also accumulate into
(cholesky, lu, nussinov, trmm) are checked against the interpreter too:
the parallelism gate must refuse those maps rather than privatize the
container they read.  The interpreter is too slow for the whole
registry, so it runs only on those four.
"""

import numpy as np
import pytest

from repro.codegen.compiler import compile_sdfg
from repro.runtime import SDFGInterpreter
from repro.workloads import kernels, polybench

pytestmark = pytest.mark.usefixtures("no_work_floor")

SPECS = (None, "thread:1", "thread:2", "auto")
#: Program -> the container its maps read and accumulate into.
INTERPRETED = {"cholesky": "A", "lu": "A", "nussinov": "table", "trmm": "B"}


def _polybench_case(name):
    kernel = polybench.get(name)
    inputs = kernel.make_data(kernel.sizes)
    ref = {k: v.copy() for k, v in inputs.items()}
    kernel.ref_numpy(ref, kernel.sizes)
    for sym in kernel.extra_symbols:
        inputs[sym] = kernel.sizes[sym]
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


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("name", PROGRAMS)
def test_matches_numpy_reference(name, spec):
    make_sdfg, inputs, expected = _case(name)
    compiled = compile_sdfg(make_sdfg(), backend="python", parallel=spec,
                            cache="off", fallback=False)
    try:
        got = _fresh(inputs)
        compiled(**got)
    finally:
        compiled.close()
    _check(name, got, expected, "numpy reference")
    if spec == "thread:2" and "# parallel map" in compiled.source:
        assert compiled._pool.stats["thread_runs"] >= 1, compiled._pool.stats


_ORACLE = {}


def _interpreted(name):
    if name not in _ORACLE:
        make_sdfg, inputs, _ = _case(name)
        got = _fresh(inputs)
        SDFGInterpreter(make_sdfg())(**got)
        _ORACLE[name] = got
    return _ORACLE[name]


@pytest.mark.parametrize("spec", SPECS[1:])
@pytest.mark.parametrize("name", sorted(INTERPRETED))
def test_read_accumulate_maps_match_the_interpreter(name, spec):
    """These maps read a container they accumulate into; chunking them
    over private copies reads the copy's identity values instead, so
    the gate keeps them serial and says which container is read."""
    make_sdfg, inputs, expected = _case(name)
    compiled = compile_sdfg(make_sdfg(), backend="python", parallel=spec,
                            cache="off", fallback=False)
    try:
        got = _fresh(inputs)
        compiled(**got)
    finally:
        compiled.close()
    reason = f"map reads {INTERPRETED[name]!r}, which it accumulates into"
    assert any(w.code == "W703" and reason in w.message
               for w in compiled.codegen_warnings)
    _check(name, got, expected, "numpy reference")
    oracle = _interpreted(name)
    _check(name, got, {out: oracle[out] for out in expected}, "interpreter")

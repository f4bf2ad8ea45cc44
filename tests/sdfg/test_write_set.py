"""``SDFG.write_set`` is sound: a call changes no argument outside it.

The served execute and the isolated cpp hop send back only the write
set (the non-transient containers some memlet writes), so an argument
left out of it must come back from a call bitwise unchanged.  The
property runs the 36 corpus programs, at small sizes, on the
interpreter and on the python backend, and the generated in-place maps
of ``test_parallel_parity`` with a second, read-only container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.compiler import compile_sdfg
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes
from repro.workloads import kernels, polybench

#: Kernel programs at sizes the interpreter runs in well under a second.
KERNELS = {
    "gemm_chain": (kernels.gemm_chain_sdfg, lambda: kernels.gemm_chain_data(6)),
    "histogram": (kernels.histogram_sdfg, lambda: kernels.histogram_data(8, 8)),
    "jacobi2d": (kernels.jacobi2d_sdfg,
                 lambda: {"A": kernels.jacobi2d_data(8)["A"], "T": 2}),
    "matmul": (kernels.matmul_sdfg, lambda: kernels.matmul_data(6)),
    "query": (kernels.query_sdfg, lambda: kernels.query_data(32)),
    "spmv": (kernels.spmv_sdfg, lambda: kernels.spmv_data(8, 3)[0]),
}
PROGRAMS = tuple(polybench.all_kernels()) + tuple(KERNELS)


def _small(sizes):
    return {s: 2 if s == "TSTEPS" else min(v, 8) for s, v in sizes.items()}


def _case(name):
    """(make_sdfg, arguments, names the program must write)."""
    if name in KERNELS:
        make_sdfg, data = KERNELS[name]
        return make_sdfg, data(), set()
    kernel = polybench.get(name)
    sizes = _small(kernel.sizes)
    args = kernel.make_data(sizes)
    for sym in kernel.extra_symbols:
        args[sym] = sizes[sym]
    return kernel.make_sdfg, args, set(kernel.outputs)


def _assert_unwritten_unchanged(sdfg, before, after, where):
    writes = sdfg.write_set()
    for name, value in before.items():
        if isinstance(value, np.ndarray) and name not in writes:
            assert after[name].tobytes() == value.tobytes(), (
                f"{where}: {name!r} is outside the write set {sorted(writes)} "
                "but the call changed it")


def test_the_corpus_is_whole():
    assert len(PROGRAMS) == 36


@pytest.mark.parametrize("name", PROGRAMS)
def test_arguments_outside_the_write_set_are_unchanged(name):
    make_sdfg, args, outputs = _case(name)
    sdfg = make_sdfg()
    writes = sdfg.write_set()
    assert outputs <= writes, f"declared outputs {sorted(outputs - writes)} not written"
    assert writes <= set(sdfg.arglist())
    for where in ("interpreter", "python"):
        got = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in args.items()}
        if where == "interpreter":
            SDFGInterpreter(make_sdfg())(**got)
        else:
            compile_sdfg(make_sdfg(), backend="python", cache="off",
                         fallback=False)(**got)
        _assert_unwritten_unchanged(sdfg, args, got, f"{name} on {where}")


N = 6


@st.composite
def two_container_maps(draw):
    """``test_parallel_parity``'s in-place map ``X[i, j] = f(...)``, each
    of its reads drawn from ``X`` itself or from a read-only ``Y``."""
    a, b, c = draw(st.integers(-1, 2)), draw(st.integers(-2, 3)), draw(st.integers(-2, 2))
    rows = [i for i in range(N) if 0 <= a * i + b < N]
    cols = [j for j in range(N) if 0 <= j + c < N]
    if not rows or not cols:
        rows, cols, a, b, c = list(range(N)), list(range(N)), 1, 0, 0
    reads = {"x": f"{a}*i + {b}, j + {c}", "y": "i, j", "z": "k, j"}
    sources = {conn: draw(st.sampled_from("XY")) for conn in reads}
    ranges = {"i": f"{rows[0]}:{rows[-1] + 1}", "j": f"{cols[0]}:{cols[-1] + 1}"}
    return sources, reads, ranges, draw(st.integers(0, N - 1)), draw(st.integers(0, 99))


def _two_container_sdfg(sources, reads, ranges):
    sdfg = SDFG("two_containers")
    for name in "XY":
        sdfg.add_array(name, (N, N), dtypes.float64)
    sdfg.add_symbol("k", dtypes.int64)
    sdfg.add_state().add_mapped_tasklet(
        "upd", ranges,
        inputs={conn: Memlet.simple(sources[conn], sub) for conn, sub in reads.items()},
        code="o = x * 0.5 + y - z",
        outputs={"o": Memlet.simple("X", "i, j")},
    )
    return sdfg


@settings(max_examples=30, deadline=None)
@given(two_container_maps())
def test_generated_maps_change_nothing_outside_the_write_set(case):
    sources, reads, ranges, k, seed = case
    rng = np.random.default_rng(seed)
    args = {"X": rng.random((N, N)), "Y": rng.random((N, N)), "k": k}
    sdfg = _two_container_sdfg(sources, reads, ranges)
    assert sdfg.write_set() == {"X"}
    for where in ("interpreter", "python"):
        got = {n: v.copy() if isinstance(v, np.ndarray) else v for n, v in args.items()}
        fresh = _two_container_sdfg(sources, reads, ranges)
        if where == "interpreter":
            SDFGInterpreter(fresh)(**got)
        else:
            compile_sdfg(fresh, backend="python", cache="off", fallback=False)(**got)
        _assert_unwritten_unchanged(sdfg, args, got, where)


def test_transients_and_read_only_arguments_are_not_written():
    sdfg = SDFG("copy_through")
    sdfg.add_array("A", (4,), dtypes.float64)
    sdfg.add_array("B", (4,), dtypes.float64)
    sdfg.add_array("T", (4,), dtypes.float64, transient=True)
    st_ = sdfg.add_state()
    st_.add_mapped_tasklet("t", {"i": "0:4"}, inputs={"a": Memlet.simple("A", "i")},
                           code="t = a + 1", outputs={"t": Memlet.simple("T", "i")})
    second = sdfg.add_state_after(st_)
    second.add_mapped_tasklet("b", {"i": "0:4"}, inputs={"t": Memlet.simple("T", "i")},
                              code="b = t * 2", outputs={"b": Memlet.simple("B", "i")})
    assert sdfg.write_set() == {"B"}
    assert st_.read_write_sets() == ({"A"}, {"T"})

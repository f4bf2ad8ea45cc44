"""Bulk stream copies (array -> stream -> stream -> array) on every
executor, including the drain into a destination that is not
C-contiguous: ``reshape(-1)`` of such an array is a copy, and writing
through it dropped every drained element."""

import numpy as np
import pytest

from repro.codegen import compile_sdfg
from repro.codegen.cpp_gen import find_host_compiler
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, Memlet, dtypes

N = 6


def relay_sdfg(out_shape=("N", 2)):
    """src -> stream S -> stream R -> out, all as access-node copies."""
    sdfg = SDFG("relay")
    sdfg.add_array("src", ("N",), dtypes.float64)
    sdfg.add_array("out", out_shape, dtypes.float64)
    sdfg.add_stream("S", dtypes.float64, transient=True)
    sdfg.add_stream("R", dtypes.float64, transient=True)
    st = sdfg.add_state()
    src, s, r, out = (
        st.add_read("src"), st.add_access("S"), st.add_access("R"), st.add_write("out")
    )
    st.add_edge(src, s, Memlet(data="src", subset="0:N"), None, None)
    st.add_edge(s, r, Memlet(data="S", subset="0", dynamic=True), None, None)
    st.add_edge(r, out, Memlet(data="R", subset="0", dynamic=True), None, None)
    sdfg.validate()
    return sdfg


EXECUTORS = [
    "python",
    "interpreter",
    pytest.param("cpp", marks=pytest.mark.skipif(
        find_host_compiler() is None, reason="no host C++ compiler")),
]


def executor(name, sdfg):
    if name == "interpreter":
        return SDFGInterpreter(sdfg)
    compiled = compile_sdfg(sdfg, backend=name)
    assert compiled.backend == name, compiled.degradation
    return compiled


LAYOUTS = {
    "C": lambda: np.zeros((N, 2)),
    "F": lambda: np.zeros((N, 2), order="F"),
    "strided": lambda: np.zeros((N, 3))[:, :2],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", EXECUTORS)
def test_drain_writes_every_element(name, layout):
    src = np.arange(1.0, N + 1)
    out = LAYOUTS[layout]()
    assert out.flags["C_CONTIGUOUS"] == (layout == "C")
    executor(name, relay_sdfg())(src=src, out=out, N=N)
    # The drain fills the destination's prefix in logical (row-major) order.
    assert out.ravel()[:N].tolist() == src.tolist()
    assert not out.ravel()[N:].any()


@pytest.mark.parametrize("name", EXECUTORS)
def test_drain_larger_than_the_destination_is_an_error(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    run = executor(name, relay_sdfg(out_shape=("M",)))
    with pytest.raises(ValueError, match="drains 6 elements"):
        run(src=np.ones(N), out=np.zeros(4))
    if name == "cpp":
        # The native drain aborts on the overflow; the contained crash
        # hops to the Python backend, which reports it.
        [hop] = run.degradation
        assert (hop["from"], hop["to"], hop["code"]) == ("cpp", "python", "E201")


def test_generated_copies_are_bulk():
    source = executor("python", relay_sdfg()).source
    assert "push_many" in source and ".drain()" in source
    assert ".pop()" not in source and "reshape(-1)[:" not in source

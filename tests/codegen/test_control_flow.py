"""Structured interstate control flow in the generated-Python and C++
backends.

Loops and branches of the state graph become ``while``/``if`` code; a
region with no such shape keeps the fallback, and only that region: the
``__next`` dispatcher in Python, labels and ``goto`` in C++.  Ground truth
is the reference interpreter (Appendix A semantics), bit for bit: both
sides run the same scalar tasklets in the same order.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro as rp
from repro.codegen import compile_sdfg, generate_code
from repro.codegen.cpp_gen import find_host_compiler
from repro.runtime import SDFGInterpreter
from repro.runtime.watchdog import WatchdogViolation
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes
from repro.workloads import kernels, polybench

N, M = rp.symbol("N"), rp.symbol("M")


def _copy(kwargs):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}


needs_cc = pytest.mark.skipif(find_host_compiler() is None, reason="no host C++ compiler")


def on_backends(*rows):
    """Parameter rows on python, under the ids pytest gives them alone, and
    on cpp, under ``cpp-`` ids and only with a host compiler."""
    out = []
    for backend, marks, prefix in (("python", (), ""), ("cpp", needs_cc, "cpp-")):
        for row in rows:
            row = row if isinstance(row, tuple) else (row,)
            ident = prefix + "-".join(map(str, row))
            out.append(pytest.param(backend, *row, marks=marks, id=ident))
    return out


#: Generated C++ -> its in-process build: cases (and test modules) whose
#: programs differ only in their inputs share one build.
_CPP_BUILDS = {}


def compile_cpp_once(sdfg):
    source = generate_code(sdfg, "cpp")
    if source not in _CPP_BUILDS:
        _CPP_BUILDS[source] = compile_sdfg(
            sdfg, backend="cpp", cache="off", fallback=False, isolate=False
        )
    return _CPP_BUILDS[source]


def cpp_dispatched(src):
    """The states the C++ fallback dispatches by label.  Every ``goto``
    jumps to one of them or to the function's exit."""
    labels = dict(re.findall(r"^\s*(__state_\d+): \{  // state (\w+)$", src, re.M))
    assert set(re.findall(r"goto (\w+);", src)) <= {*labels, "__exit"}
    return set(labels.values())


def run_both(sdfg, backend="python", **kwargs):
    """(generated source, generated outputs, interpreter outputs)."""
    if backend == "cpp":
        comp = compile_cpp_once(sdfg)
    else:
        comp = compile_sdfg(sdfg, backend="python")
    assert comp.backend == backend, comp.degradation
    cg, it = _copy(kwargs), _copy(kwargs)
    comp(**cg)
    SDFGInterpreter(sdfg, validate=False)(**it)
    return comp.source, cg, it


def assert_identical(cg, it):
    for k, v in cg.items():
        if isinstance(v, np.ndarray):
            np.testing.assert_array_equal(v, it[k], err_msg=k)


def program(fn):
    fn._sdfg = None
    return fn.to_sdfg()


# ------------------------------------------------------------- range loops
@rp.program
def nested_loops(A: rp.float64[N, M], s: rp.float64[1]):
    for i in range(N):
        for j in range(M - 1, -1, -1):
            s[0] = s[0] * 0.5 + A[i, j] + i - j
        for j in range(i, M, 2):
            A[i, j] = A[i, j] + s[0]


@pytest.mark.parametrize("backend, n, m", on_backends((0, 3), (3, 0), (1, 1), (4, 5), (6, 2)))
def test_nested_ascending_and_descending_loops(backend, n, m):
    src, cg, it = run_both(
        program(nested_loops), backend, A=np.random.rand(n, m), s=np.zeros(1), N=n, M=m
    )
    assert_identical(cg, it)
    if backend == "cpp":
        assert cpp_dispatched(src) == set()
        assert "while ((j > (-1))) {" in src and "while ((i < N)) {" in src
        return
    assert "__next" not in src
    assert "while (j > (-1)):" in src and "while (i < N):" in src
    # One checkpoint per iteration of each of the three loops.
    assert src.count("__guard.checkpoint()") == 3


@rp.program
def read_after_loop(A: rp.float64[N]):
    for i in range(N - 3):
        A[i] = A[i] + 1.0
    A[i] = -1.0


@pytest.mark.parametrize("backend, n", on_backends(1, 3, 4, 9))
def test_loop_variable_keeps_its_exit_value(backend, n):
    # An empty range leaves the initial value; otherwise the first value
    # past the bound.
    src, cg, it = run_both(program(read_after_loop), backend, A=np.random.rand(n), N=n)
    assert_identical(cg, it)
    assert cg["A"][max(n - 3, 0)] == -1.0
    if backend == "cpp":
        assert cpp_dispatched(src) == set()
        return
    assert "__next" not in src


def _counting_loop(assignments):
    """``k`` counts ``0:N`` under ``assignments`` on its back edge, and the
    body records the state of every loop symbol."""
    sdfg = SDFG("swap")
    sdfg.add_array("out", ("N", 2), dtypes.int64)
    init = sdfg.add_state("init", is_start=True)
    guard, body, done = (sdfg.add_state(n) for n in ("guard", "body", "done"))
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"k": 0, "a": 1, "b": 2}))
    sdfg.add_edge(guard, body, InterstateEdge(condition="k < N"))
    sdfg.add_edge(guard, done, InterstateEdge(condition="k >= N"))
    sdfg.add_edge(body, guard, InterstateEdge(assignments=assignments))
    t = body.add_tasklet("rec", (), ("x", "y"), "x = a\ny = b")
    body.add_edge(t, body.add_write("out"), Memlet.simple("out", "k, 0"), "x", None)
    body.add_edge(t, body.add_write("out"), Memlet.simple("out", "k, 1"), "y", None)
    return sdfg


def test_edge_assignments_are_simultaneous():
    # ``a, b = b, a`` must read the old bindings on both right-hand sides.
    sdfg = _counting_loop({"k": "k + 1", "a": "b", "b": "a + k"})
    src, cg, it = run_both(sdfg, out=np.zeros((6, 2), np.int64), N=6)
    assert_identical(cg, it)
    assert "k, a, b = (1 + k), b, (a + k)" in src


@needs_cc
def test_edge_assignments_are_simultaneous_on_cpp():
    # Assigned one after another, ``a = b; b = a + k`` would read the new
    # ``a``: rows [2, 3], [3, 5], ... where the interpreter writes [2, 1], [1, 3].
    sdfg = _counting_loop({"k": "k + 1", "a": "b", "b": "a + k"})
    src, cg, it = run_both(sdfg, "cpp", out=np.zeros((6, 2), np.int64), N=6)
    assert_identical(cg, it)
    assert "std::tie(k, a, b) = std::make_tuple((1 + k), b, (a + k));" in src


# ------------------------------------------------------- data-dependent loops
@rp.program
def int_while(c: rp.int64[1], s: rp.float64[1]):
    while c[0] < 100:
        c[0] = c[0] * 2 + 1
        s[0] = s[0] + 1.0


@pytest.mark.parametrize("backend, start", on_backends(0, 7, 100, 500))
def test_while_on_an_integer_scalar(backend, start):
    src, cg, it = run_both(
        program(int_while), backend, c=np.array([start]), s=np.zeros(1)
    )
    assert_identical(cg, it)
    if backend == "cpp":
        assert cpp_dispatched(src) == set() and "while ((c[0] < 100)) {" in src
        return
    assert "while (c.flat[0] < 100):" in src and "__next" not in src


@rp.program
def float_while(s: rp.float64[1], t: rp.float64[1]):
    t[0] = 1.0
    while s[0] < 100.0:
        s[0] = s[0] * 2 + 1
    t[0] = 5.0


@pytest.mark.parametrize("backend, start", on_backends(0.0, 99.5, 1e3, np.nan))
def test_while_on_a_float_scalar_keeps_nan_semantics(backend, start):
    # On NaN both ``s < 100`` and ``s >= 100`` are false: the interpreter
    # takes neither edge and ends the program, so ``t`` stays 1.  That pair
    # is not exhaustive, so the loop alone keeps the dispatcher.
    src, cg, it = run_both(
        program(float_while), backend, s=np.array([start]), t=np.zeros(1)
    )
    assert_identical(cg, it)
    assert cg["t"][0] == (1.0 if np.isnan(start) else 5.0)
    if backend == "cpp":
        assert cpp_dispatched(src) == {"while_guard", "while_body"}
        return
    assert "__next" in src
    assert "# state while_guard" in src and "# state while_end" not in src


# ---------------------------------------------------------------- branches
@rp.program
def branches(A: rp.float64[N], s: rp.float64[1]):
    for i in range(N):
        if i % 3 == 0:
            s[0] = s[0] + A[i]
        else:
            s[0] = s[0] * 0.5
        if i > 2:
            A[i] = s[0]


@pytest.mark.parametrize("backend, n", on_backends(0, 1, 8))
def test_if_else_and_if_without_else_inside_a_loop(backend, n):
    src, cg, it = run_both(
        program(branches), backend, A=np.random.rand(n), s=np.ones(1), N=n
    )
    assert_identical(cg, it)
    if backend == "cpp":
        assert cpp_dispatched(src) == set()
        assert src.count("if ((") == 2 and src.count("else {") == 1
        return
    assert "__next" not in src
    assert src.count("if (") == 2 and src.count("else:") == 1


@rp.program
def data_branch(A: rp.float64[N], a: rp.float64[1], s: rp.float64[1]):
    for i in range(N):
        a[0] = A[i]
        if a[0] > 0.5:
            s[0] = s[0] + a[0]
        else:
            s[0] = s[0] * 0.5


@pytest.mark.parametrize("backend, nan_at", on_backends(None, 0, 3))
def test_non_exhaustive_branch_dispatches_only_its_diamond(backend, nan_at):
    A = np.random.rand(6)
    if nan_at is not None:
        A[nan_at] = np.nan  # neither edge holds: the program ends there
    src, cg, it = run_both(
        program(data_branch), backend, A=A, a=np.zeros(1), s=np.ones(1), N=6
    )
    assert_identical(cg, it)
    if backend == "cpp":
        assert cpp_dispatched(src) == {"i_body", "if_body", "else_body"}
        assert "while ((i < N)) {" in src
        return
    assert "while (i < N):" in src and "__next" in src


# ------------------------------------------------------------- fallbacks
def _tasklet(state, code, reads, writes):
    """A tasklet over single elements: ``{connector: (container, index)}``."""
    t = state.add_tasklet("t", tuple(reads), tuple(writes), code)
    for conn, (data, idx) in reads.items():
        state.add_edge(state.add_read(data), t, Memlet.simple(data, idx), None, conn)
    for conn, (data, idx) in writes.items():
        state.add_edge(t, state.add_write(data), Memlet.simple(data, idx), conn, None)


def _two_exit_loop():
    """``for i in range(N): s += A[i]; if i == K: s = -s; break`` then
    ``s *= 2`` — the loop leaves from its guard and from its body."""
    sdfg = SDFG("two_exits")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("s", (1,), dtypes.float64)
    sdfg.add_symbol("K", dtypes.int64)
    init = sdfg.add_state("init", is_start=True)
    names = ("guard", "body", "latch", "found", "done")
    guard, body, latch, found, done = (sdfg.add_state(n) for n in names)
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(guard, body, InterstateEdge(condition="i < N"))
    sdfg.add_edge(guard, done, InterstateEdge(condition="i >= N"))
    sdfg.add_edge(body, found, InterstateEdge(condition="i == K"))
    sdfg.add_edge(body, latch, InterstateEdge(condition="i != K"))
    sdfg.add_edge(latch, guard, InterstateEdge(assignments={"i": "i + 1"}))
    sdfg.add_edge(found, done, InterstateEdge())
    _tasklet(body, "o = v + a", {"v": ("s", "0"), "a": ("A", "i")}, {"o": ("s", "0")})
    _tasklet(found, "o = -v", {"v": ("s", "0")}, {"o": ("s", "0")})
    _tasklet(done, "o = v * 2", {"v": ("s", "0")}, {"o": ("s", "0")})
    return sdfg


@pytest.mark.parametrize("backend, n, k", on_backends((6, 2), (6, 5), (6, 9), (0, 0)))
def test_loop_with_a_second_exit_dispatches_only_the_loop(backend, n, k):
    src, cg, it = run_both(
        _two_exit_loop(), backend, A=np.random.rand(n), s=np.zeros(1), N=n, K=k
    )
    assert_identical(cg, it)
    if backend == "cpp":
        # Before and after the loop the code stays straight-line.
        assert cpp_dispatched(src) == {"guard", "body", "latch", "found"}
        return
    assert "__next" in src
    for state in ("guard", "body", "latch", "found"):
        assert f"# state {state}\n" in src
    # Before and after the loop the code stays straight-line.
    assert "# state init" not in src and "# state done" not in src


def _irreducible():
    """Two entries into one cycle: ``top`` jumps to either ``left`` or
    ``right``, which then alternate until ``k`` runs out."""
    sdfg = SDFG("irreducible")
    sdfg.add_array("s", (1,), dtypes.float64)
    top = sdfg.add_state("top", is_start=True)
    left, right, done = (sdfg.add_state(n) for n in ("left", "right", "done"))
    sdfg.add_edge(top, left, InterstateEdge(condition="k > 0"))
    sdfg.add_edge(top, right, InterstateEdge(condition="k <= 0"))
    sdfg.add_edge(left, right, InterstateEdge(assignments={"k": "k - 1"}))
    sdfg.add_edge(right, left, InterstateEdge(condition="k > -3"))
    sdfg.add_edge(right, done, InterstateEdge(condition="k <= -3"))
    _tasklet(left, "o = v + 1", {"v": ("s", "0")}, {"o": ("s", "0")})
    _tasklet(right, "o = v * 3", {"v": ("s", "0")}, {"o": ("s", "0")})
    _tasklet(done, "o = -v", {"v": ("s", "0")}, {"o": ("s", "0")})
    sdfg.add_symbol("k", dtypes.int64)
    return sdfg


@pytest.mark.parametrize("backend, k", on_backends(-5, 0, 2))
def test_irreducible_graph_keeps_the_dispatcher(backend, k):
    src, cg, it = run_both(_irreducible(), backend, s=np.ones(1), k=k)
    assert_identical(cg, it)
    if backend == "cpp":
        assert cpp_dispatched(src) == {"top", "left", "right"}
        return
    assert "__next" in src and "# state left" in src and "# state right" in src
    assert "# state done" not in src


@st.composite
def interstate_graphs(draw):
    """Random state graphs in which every edge counts ``k`` up.  Besides
    ``back`` (an unconditional jump to an earlier two-way state: a loop
    latch), only edges under a test ``k`` outgrows (``k < b``, ``k == b``)
    lead backwards, so nearly every run ends.  Shapes cover chains,
    diamonds, ``while`` loops, loops with several exits, irreducible cycles
    and non-exhaustive edge sets (``maybe``: nothing taken ends the
    program)."""
    n = draw(st.integers(2, 8))
    spec = []
    for i in range(n):
        later = list(range(i + 1, n))
        pairs = [j for j, s in enumerate(spec) if s[0] == "pair"]
        kind = draw(st.sampled_from(["end", "goto", "pair", "eq", "maybe", "back"]))
        if (kind in ("goto", "pair", "eq") and not later) or (
            kind == "back" and not pairs
        ):
            kind = draw(st.sampled_from(["end", "maybe"]))
        b = draw(st.integers(0, 5))
        if kind == "back":
            target = draw(st.sampled_from(pairs))
        elif later and draw(st.booleans()):
            target = i + 1  # a two-way state entering what follows: a guard
        else:
            target = draw(st.integers(0, n - 1))
        forward = draw(st.sampled_from(later)) if later else None
        spec.append((kind, b, target, forward))
    return spec


def _build(spec):
    sdfg = SDFG("random_flow")
    sdfg.add_array("h", (1,), dtypes.int64)
    sdfg.add_symbol("k", dtypes.int64)
    states = [sdfg.add_state(f"s{i}", is_start=i == 0) for i in range(len(spec))]
    for i, state in enumerate(states):
        _tasklet(state, f"o = (v * 7 + {i} + k) % 1000003",
                 {"v": ("h", "0")}, {"o": ("h", "0")})

    def edge(src, dst, cond="True"):
        sdfg.add_edge(states[src], states[dst],
                      InterstateEdge(condition=cond, assignments={"k": "k + 1"}))

    for i, (kind, b, target, forward) in enumerate(spec):
        if kind == "goto":
            edge(i, forward)
        elif kind == "back":
            edge(i, target)
        elif kind == "pair":
            edge(i, target, f"k < {b}")
            edge(i, forward, f"k >= {b}")
        elif kind == "eq":
            edge(i, target, f"k == {b}")
            edge(i, forward, f"k != {b}")
        elif kind == "maybe":
            edge(i, target, f"k < {b}")
    return sdfg


@settings(max_examples=200, deadline=None)
@given(interstate_graphs(), st.integers(-2, 3))
def test_random_interstate_graphs_equal_the_interpreter(spec, k):
    sdfg = _build(spec)
    it = {"h": np.zeros(1, np.int64), "k": k}
    try:
        compile_sdfg(sdfg, backend="interpreter", deadline=0.2)(**it)
    except WatchdogViolation:
        assume(False)  # a ``back`` jump closed a cycle that never ends
    cg = {"h": np.zeros(1, np.int64), "k": k}
    compile_sdfg(sdfg, backend="python", deadline=5.0)(**cg)
    assert_identical(cg, it)


# ---------------------------------------------------------------- corpus
def _polybench_case(name):
    kernel = polybench.get(name)
    sizes = {s: min(v, 2 if "STEPS" in s else 7) for s, v in kernel.sizes.items()}
    data = kernel.make_data(sizes)
    data.update({s: sizes[s] for s in kernel.extra_symbols})
    return kernel.make_sdfg(), data


KERNEL_CASES = {
    "matmul": lambda: (kernels.matmul_sdfg(), kernels.matmul_data(6)),
    "jacobi2d": lambda: (kernels.jacobi2d_sdfg(), {**kernels.jacobi2d_data(7), "T": 2}),
    "histogram": lambda: (kernels.histogram_sdfg(), kernels.histogram_data(6, 5, bins=8)),
    "query": lambda: (kernels.query_sdfg(), kernels.query_data(40)),
    "spmv": lambda: (kernels.spmv_sdfg(), kernels.spmv_data(9, 3)[0]),
    "gemm_chain": lambda: (kernels.gemm_chain_sdfg(), kernels.gemm_chain_data(5)),
}

CORPUS = polybench.all_kernels() + sorted(KERNEL_CASES)


def test_corpus_has_36_programs():
    assert len(CORPUS) == 36


@pytest.mark.parametrize("backend, name", on_backends(*CORPUS))
def test_corpus_is_structured_and_equals_the_interpreter(backend, name):
    sdfg, data = KERNEL_CASES[name]() if name in KERNEL_CASES else _polybench_case(name)
    src, cg, it = run_both(sdfg, backend, **data)
    # No corpus program needs the dispatcher.
    assert "__next" not in src
    assert backend == "python" or cpp_dispatched(src) == set()
    for k, v in cg.items():
        if isinstance(v, np.ndarray):
            # C++ rounds spmv's float32 sums its own way: agree to float32's
            # epsilon there.
            rtol = 1e-5 if backend == "cpp" and v.dtype == np.float32 else 1e-8
            np.testing.assert_allclose(v, it[k], rtol=rtol, atol=1e-9, err_msg=k)

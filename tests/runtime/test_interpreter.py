"""Tests for the reference interpreter (operational semantics, App. A)."""

import numpy as np
import pytest

from repro.runtime import SDFGInterpreter, StreamQueue
from repro.runtime.arguments import ArgumentError, infer_symbols, split_arguments
from repro.runtime.interpreter import InterpreterError
from repro.runtime.sanitizer import SanitizerError
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes


def vadd():
    sdfg = SDFG("vadd")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    sdfg.add_array("C", ("N",), dtypes.float64)
    st = sdfg.add_state("main")
    st.add_mapped_tasklet(
        "add",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i"), "b": Memlet.simple("B", "i")},
        code="c = a + b",
        outputs={"c": Memlet.simple("C", "i")},
    )
    return sdfg


class TestBasicExecution:
    def test_vadd(self):
        A, B, C = np.random.rand(16), np.random.rand(16), np.zeros(16)
        SDFGInterpreter(vadd())(A=A, B=B, C=C)
        assert np.allclose(C, A + B)

    def test_symbol_inference_from_shape(self):
        # N inferred from array shapes, not passed.
        A, B, C = np.random.rand(7), np.random.rand(7), np.zeros(7)
        SDFGInterpreter(vadd())(A=A, B=B, C=C)
        assert np.allclose(C, A + B)

    def test_missing_argument_raises(self):
        with pytest.raises(ArgumentError):
            SDFGInterpreter(vadd())(A=np.zeros(4), B=np.zeros(4))

    def test_dtype_mismatch_raises(self):
        with pytest.raises(ArgumentError):
            SDFGInterpreter(vadd())(
                A=np.zeros(4, np.float32), B=np.zeros(4), C=np.zeros(4)
            )

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ArgumentError):
            SDFGInterpreter(vadd())(A=np.zeros(4), B=np.zeros(5), C=np.zeros(4))

    def test_wcr_sum(self):
        sdfg = SDFG("dot")
        sdfg.add_array("x", ("N",), dtypes.float64)
        sdfg.add_array("r", (1,), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "sq",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="o = a * a",
            outputs={"o": Memlet(data="r", subset="0", wcr="sum")},
        )
        x, r = np.random.rand(32), np.zeros(1)
        SDFGInterpreter(sdfg)(x=x, r=r)
        assert np.allclose(r[0], (x * x).sum())

    def test_wcr_min_max(self):
        sdfg = SDFG("minmax")
        sdfg.add_array("x", ("N",), dtypes.float64)
        sdfg.add_array("lo", (1,), dtypes.float64)
        sdfg.add_array("hi", (1,), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "mm",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="l = a\nh = a",
            outputs={
                "l": Memlet(data="lo", subset="0", wcr="min"),
                "h": Memlet(data="hi", subset="0", wcr="max"),
            },
        )
        x = np.random.rand(64)
        lo, hi = np.full(1, np.inf), np.full(1, -np.inf)
        SDFGInterpreter(sdfg)(x=x, lo=lo, hi=hi)
        assert lo[0] == x.min() and hi[0] == x.max()

    def test_stencil_vector_read(self):
        # A tasklet reading a 3-element window (paper Fig. 2 Laplace style).
        sdfg = SDFG("stencil")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "lap",
            {"i": "1:N-1"},
            inputs={"w": Memlet.simple("A", "i-1:i+2")},
            code="b = w[0] - 2*w[1] + w[2]",
            outputs={"b": Memlet.simple("B", "i")},
        )
        A = np.random.rand(20)
        B = np.zeros(20)
        SDFGInterpreter(sdfg)(A=A, B=B)
        expected = A[:-2] - 2 * A[1:-1] + A[2:]
        assert np.allclose(B[1:-1], expected)


class TestStateMachine:
    def test_loop(self):
        sdfg = SDFG("loop")
        sdfg.add_array("v", (1,), dtypes.float64)
        sdfg.add_symbol("T")
        body = sdfg.add_state("body")
        t = body.add_tasklet("inc", ["a"], ["b"], "b = a + 1")
        body.add_edge(body.add_read("v"), t, Memlet.simple("v", "0"), None, "a")
        body.add_edge(t, body.add_write("v"), Memlet.simple("v", "0"), "b", None)
        init = sdfg.add_state("init", is_start=True)
        sdfg.add_loop(init, body, None, "k", 0, "k < T", "k + 1")
        v = np.zeros(1)
        SDFGInterpreter(sdfg)(v=v, T=13)
        assert v[0] == 13

    def test_data_dependent_branch(self):
        # Paper Fig. 10a: condition on a container value.
        sdfg = SDFG("branch")
        sdfg.add_array("C", (1,), dtypes.float64)
        start = sdfg.add_state("start")
        double = sdfg.add_state("double")
        t = double.add_tasklet("t", ["ci"], ["co"], "co = 2 * ci")
        double.add_edge(double.add_read("C"), t, Memlet.simple("C", "0"), None, "ci")
        double.add_edge(t, double.add_write("C"), Memlet.simple("C", "0"), "co", None)
        halve = sdfg.add_state("halve")
        t2 = halve.add_tasklet("t", ["ci"], ["co"], "co = ci / 2")
        halve.add_edge(halve.add_read("C"), t2, Memlet.simple("C", "0"), None, "ci")
        halve.add_edge(t2, halve.add_write("C"), Memlet.simple("C", "0"), "co", None)
        sdfg.add_edge(start, double, InterstateEdge(condition="C <= 5"))
        sdfg.add_edge(start, halve, InterstateEdge(condition="C > 5"))
        c = np.array([4.0])
        SDFGInterpreter(sdfg)(C=c)
        assert c[0] == 8.0
        c = np.array([10.0])
        SDFGInterpreter(sdfg)(C=c)
        assert c[0] == 5.0

    def test_no_true_transition_terminates(self):
        sdfg = SDFG("halt")
        s1 = sdfg.add_state("s1")
        s2 = sdfg.add_state("s2")
        sdfg.add_edge(s1, s2, InterstateEdge(condition="1 > 2"))
        SDFGInterpreter(sdfg)()  # terminates at s1

    def test_unbound_name_in_an_assignment_names_the_state(self):
        # Only one-element containers bind in transitions: ``A`` has two.
        sdfg = SDFG("unbound")
        sdfg.add_array("A", (2,), dtypes.float64)
        s1 = sdfg.add_state("s1")
        s2 = sdfg.add_state("s2")
        sdfg.add_edge(s1, s2, InterstateEdge(assignments={"k": "A + 1"}))
        with pytest.raises(InterpreterError, match="'s1'.*A"):
            SDFGInterpreter(sdfg, validate=False)(A=np.zeros(2))


class TestStreamsAndConsume:
    def test_stream_queue(self):
        q = StreamQueue()
        q.push(1, 2, 3)
        assert len(q) == 3
        assert q.pop() == 1
        with pytest.raises(RuntimeError):
            StreamQueue(capacity=1, items=[1]).push(2)
        with pytest.raises(RuntimeError):
            StreamQueue().pop()

    def test_producer_consumer(self):
        """Map pushes into a stream; consume scope drains it."""
        sdfg = SDFG("pc")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("out", (1,), dtypes.float64)
        sdfg.add_stream("S", dtypes.float64, transient=True)
        st = sdfg.add_state()
        # producer
        t_in, me, mx = st.add_mapped_tasklet(
            "produce",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="s = a * 2",
            outputs={"s": Memlet(data="S", subset="0", dynamic=True)},
        )
        s_node = [n for n in st.data_nodes() if n.data == "S"][0]
        # consumer
        ce, cx = st.add_consume("drain", ("p", 2))
        t = st.add_tasklet("acc", ["val"], ["o"], "o = val")
        st.add_edge(s_node, ce, Memlet(data="S", subset="0", dynamic=True), None, "IN_stream")
        st.add_edge(ce, t, Memlet(data="S", subset="0", dynamic=True), "OUT_stream", "val")
        out = st.add_write("out")
        st.add_memlet_path(
            t, cx, out,
            memlet=Memlet(data="out", subset="0", wcr="sum", dynamic=True),
            src_conn="o",
        )
        A = np.arange(5.0)
        o = np.zeros(1)
        SDFGInterpreter(sdfg)(A=A, out=o)
        assert o[0] == A.sum() * 2

    def test_fibonacci_consume(self):
        """Paper Fig. 8: asynchronous Fibonacci without memoization."""
        sdfg = SDFG("fib")
        sdfg.add_stream("S", dtypes.int64, transient=True)
        sdfg.add_array("res", (1,), dtypes.int64)
        sdfg.add_scalar("Nval", dtypes.int64)
        st = sdfg.add_state()
        t0 = st.add_tasklet("init", ["n"], ["s"], "s = n")
        st.add_edge(st.add_read("Nval"), t0, Memlet.simple("Nval", "0"), None, "n")
        s_init = st.add_access("S")
        st.add_edge(t0, s_init, Memlet(data="S", subset="0", dynamic=True), "s", None)
        ce, cx = st.add_consume("fibonacci", ("p", 4))
        body = st.add_tasklet(
            "fib",
            ["val"],
            ["out", "sout"],
            "if val <= 2:\n"
            "    out = 1 if val >= 1 else 0\n"
            "else:\n"
            "    sout.push(val - 1)\n"
            "    sout.push(val - 2)\n"
            "    out = 0\n",
        )
        st.add_edge(s_init, ce, Memlet(data="S", subset="0", dynamic=True), None, "IN_stream")
        st.add_edge(ce, body, Memlet(data="S", subset="0", dynamic=True), "OUT_stream", "val")
        st.add_memlet_path(
            body, cx, st.add_write("res"),
            memlet=Memlet(data="res", subset="0", wcr="sum", dynamic=True),
            src_conn="out",
        )
        st.add_memlet_path(
            body, cx, st.add_access("S"),
            memlet=Memlet(data="S", subset="0", dynamic=True),
            src_conn="sout",
        )
        res = np.zeros(1, np.int64)
        SDFGInterpreter(sdfg)(res=res, Nval=np.array([12]))
        assert res[0] == 144


class TestReduceAndNested:
    def test_reduce_node_axes(self):
        sdfg = SDFG("red")
        sdfg.add_array("A", ("M", "N"), dtypes.float64)
        sdfg.add_array("out", ("M",), dtypes.float64)
        st = sdfg.add_state()
        r = st.add_reduce("sum", axes=(1,))
        st.add_edge(st.add_read("A"), r, Memlet.simple("A", "0:M, 0:N"), None, "IN_1")
        st.add_edge(r, st.add_write("out"), Memlet.simple("out", "0:M"), "OUT_1", None)
        A = np.random.rand(4, 6)
        out = np.zeros(4)
        SDFGInterpreter(sdfg)(A=A, out=out)
        assert np.allclose(out, A.sum(axis=1))

    def test_reduce_all_axes_max(self):
        sdfg = SDFG("redmax")
        sdfg.add_array("A", ("M", "N"), dtypes.float64)
        sdfg.add_array("out", (1,), dtypes.float64)
        st = sdfg.add_state()
        r = st.add_reduce("max")
        st.add_edge(st.add_read("A"), r, Memlet.simple("A", "0:M, 0:N"), None, "IN_1")
        st.add_edge(r, st.add_write("out"), Memlet.simple("out", "0"), "OUT_1", None)
        A = np.random.rand(3, 5)
        out = np.zeros(1)
        SDFGInterpreter(sdfg)(A=A, out=out)
        assert out[0] == A.max()

    def test_nested_sdfg(self):
        inner = SDFG("inner")
        inner.add_array("x", ("K",), dtypes.float64)
        ist = inner.add_state()
        ist.add_mapped_tasklet(
            "scale",
            {"i": "0:K"},
            inputs={"a": Memlet.simple("x", "i")},
            code="b = a * 3",
            outputs={"b": Memlet.simple("x", "i")},
        )
        outer = SDFG("outer")
        outer.add_array("A", ("N",), dtypes.float64)
        st = outer.add_state()
        node = st.add_nested_sdfg(inner, ["x"], ["x"], symbol_mapping={"K": "N"})
        st.add_edge(st.add_read("A"), node, Memlet.simple("A", "0:N"), None, "x")
        st.add_edge(node, st.add_write("A"), Memlet.simple("A", "0:N"), "x", None)
        A = np.ones(6)
        SDFGInterpreter(outer)(A=A)
        assert np.allclose(A, 3.0)


class TestCopies:
    def test_array_copy_with_reindex(self):
        sdfg = SDFG("copy")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        sdfg.add_array("B", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        a, b = st.add_read("A"), st.add_write("B")
        st.add_edge(
            a, b,
            Memlet(data="A", subset="0:N//2, 0:N//2", other_subset="N//2:N, N//2:N"),
            None, None,
        )
        A = np.random.rand(8, 8)
        B = np.zeros((8, 8))
        SDFGInterpreter(sdfg)(A=A, B=B)
        assert np.allclose(B[4:, 4:], A[:4, :4])

    def test_transient_zero_initialized(self):
        sdfg = SDFG("tmpzero")
        sdfg.add_array("out", ("N",), dtypes.float64)
        sdfg.add_transient("tmp", ("N",), dtypes.float64, find_new_name=False)
        st = sdfg.add_state()
        t_node = st.add_read("tmp")
        o = st.add_write("out")
        st.add_edge(t_node, o, Memlet(data="tmp", subset="0:N"), None, None)
        out = np.ones(4)
        SDFGInterpreter(sdfg)(out=out)
        assert np.allclose(out, 0.0)


class TestArgumentHandling:
    def test_infer_affine_dimension(self):
        sdfg = SDFG("aff")
        sdfg.add_array("A", ("2*N + 1",), dtypes.float64)
        syms = infer_symbols(sdfg, {"A": np.zeros(9)}, {})
        assert syms["N"] == 4

    def test_infer_conflict(self):
        sdfg = SDFG("conflict")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        with pytest.raises(ArgumentError):
            infer_symbols(sdfg, {"A": np.zeros(4), "B": np.zeros(5)}, {})

    def test_scalar_as_python_number(self):
        sdfg = SDFG("scal")
        sdfg.add_scalar("s", dtypes.int64)
        sdfg.add_array("out", (1,), dtypes.int64)
        st = sdfg.add_state()
        t = st.add_tasklet("t", ["a"], ["b"], "b = a + 1")
        st.add_edge(st.add_read("s"), t, Memlet.simple("s", "0"), None, "a")
        st.add_edge(t, st.add_write("out"), Memlet.simple("out", "0"), "b", None)
        out = np.zeros(1, np.int64)
        SDFGInterpreter(sdfg)(s=41, out=out)
        assert out[0] == 42


class TestPointBounds:
    """A memlet whose evaluated index falls outside its container is
    R801, naming the memlet and the index, not a NumPy broadcast
    error."""

    @staticmethod
    def _copy_one(read: str, write: str = "0"):
        sdfg = SDFG("point")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        t = st.add_tasklet("t", ["a"], ["b"], "b = a")
        st.add_edge(st.add_read("A"), t, Memlet.simple("A", read), None, "a")
        st.add_edge(t, st.add_write("B"), Memlet.simple("B", write), "b", None)
        return sdfg

    @staticmethod
    def _run(sdfg, **symbols):
        B = np.zeros(3)
        SDFGInterpreter(sdfg)(A=np.arange(3.0), B=B, N=3, **symbols)
        return B

    def test_negative_point_read(self):
        with pytest.raises(SanitizerError) as info:
            self._run(self._copy_one("N - 4"))
        err = info.value
        assert err.diagnostic.code == "R801"
        assert err.index == (-1,)
        assert "index -1 out of bounds for dimension 0 of 'A' (extent 3)" in str(err)
        assert "via memlet A[-4 + N]" in str(err)

    def test_point_read_past_the_extent(self):
        with pytest.raises(SanitizerError, match=r"index 3 out of bounds .* via memlet A\[M\]"):
            self._run(self._copy_one("M"), M=3)

    def test_point_write_past_the_extent(self):
        with pytest.raises(SanitizerError, match=r"index 4 out of bounds .* via memlet B\[M\]"):
            self._run(self._copy_one("0", "M"), M=4)

    def test_in_bounds_accesses_are_unchanged(self):
        assert list(self._run(self._copy_one("N - 1", "M"), M=1)) == [0.0, 2.0, 0.0]

"""Tests for machine models and the analytic performance model."""

import numpy as np
import pytest

import repro as rp
from repro.runtime.machine import (
    MACHINES,
    TESLA_P100,
    TESLA_V100,
    XCVU9P,
    XEON_E5_2650V4,
)
from repro.runtime.perfmodel import PerformanceModel, simulate, tasklet_flops
from repro.runtime import SDFGInterpreter
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes
from repro.sdfg.nodes import NestedSDFG, Tasklet
from repro.transformations import (
    FPGATransform,
    GPUTransform,
    MapReduceFusion,
    apply_transformations,
)

M, K, N = rp.symbol("M"), rp.symbol("K"), rp.symbol("N")


def mm_sdfg():
    @rp.program
    def mm(A: rp.float64[M, K], B: rp.float64[K, N], C: rp.float64[M, N]):
        C = A @ B

    mm._sdfg = None
    sdfg = mm.to_sdfg()
    apply_transformations(sdfg, MapReduceFusion)
    return sdfg


SYMS = {"M": 512, "K": 512, "N": 512}


class TestMachineModels:
    def test_registry(self):
        assert set(MACHINES) == {"cpu", "gpu", "gpu_v100", "fpga"}

    def test_roofline_times(self):
        m = XEON_E5_2650V4
        assert m.time_compute(m.peak_flops_dp * m.compute_efficiency) == pytest.approx(1.0)
        assert m.time_memory(m.mem_bandwidth * m.bandwidth_efficiency) == pytest.approx(1.0)

    def test_random_access_penalty(self):
        m = XEON_E5_2650V4
        assert m.time_memory(1e9, random_access=True) > m.time_memory(1e9)

    def test_transfer_only_on_devices(self):
        assert XEON_E5_2650V4.time_transfer(1e9) == 0.0
        assert TESLA_P100.time_transfer(12.0e9) == pytest.approx(1.0)

    def test_v100_faster_than_p100(self):
        assert TESLA_V100.peak_flops_dp > TESLA_P100.peak_flops_dp

    def test_fpga_pipeline_vs_naive(self):
        ops = 1e9
        assert XCVU9P.time_naive(ops) / XCVU9P.time_pipelined(ops) == pytest.approx(
            XCVU9P.ii_naive, rel=0.01
        )

    def test_fpga_pe_parallelism_capped(self):
        t1 = XCVU9P.time_pipelined(1e9, num_pes=1)
        t16 = XCVU9P.time_pipelined(1e9, num_pes=16)
        assert t16 == pytest.approx(t1 / 16)
        huge = XCVU9P.time_pipelined(1e9, num_pes=10**9)
        assert huge == pytest.approx(t1 / XCVU9P.max_parallel_pes())


class TestTaskletFlops:
    def test_counts_binops(self):
        t = Tasklet("t", ["a", "b"], ["c"], "c = a * b + 1")
        assert tasklet_flops(t) == 2

    def test_pow_and_calls_cost_more(self):
        t = Tasklet("t", ["a"], ["c"], "c = a ** 3")
        assert tasklet_flops(t) == 10
        t2 = Tasklet("t", ["a"], ["c"], "c = math.sqrt(a)")
        assert tasklet_flops(t2) >= 10

    def test_minimum_one(self):
        t = Tasklet("t", ["a"], ["c"], "c = a")
        assert tasklet_flops(t) == 1


class TestSimulation:
    def test_mm_work_counted(self):
        rep = simulate(mm_sdfg(), "cpu", SYMS)
        # One multiply per (i, j, k) iteration.
        assert rep.flops == pytest.approx(512**3, rel=0.01)
        assert rep.time > 0

    def test_gpu_beats_cpu_on_large_mm(self):
        sdfg = mm_sdfg()
        cpu = simulate(sdfg, "cpu", SYMS)
        gpu_sdfg = mm_sdfg()
        apply_transformations(gpu_sdfg, GPUTransform)
        gpu = simulate(gpu_sdfg, "gpu", SYMS)
        assert gpu.time < cpu.time

    def test_gpu_transfers_counted(self):
        gpu_sdfg = mm_sdfg()
        apply_transformations(gpu_sdfg, GPUTransform)
        rep = simulate(gpu_sdfg, "gpu", SYMS)
        # A, B in + C in/out: at least 3 x 512^2 x 8 bytes over PCIe.
        assert rep.transfer_bytes >= 3 * 512 * 512 * 8

    def test_kernel_launch_overhead_dominates_tiny_kernels(self):
        gpu_sdfg = mm_sdfg()
        apply_transformations(gpu_sdfg, GPUTransform)
        tiny = simulate(gpu_sdfg, "gpu", {"M": 4, "K": 4, "N": 4})
        assert tiny.time >= TESLA_P100.launch_latency

    def test_fpga_naive_orders_of_magnitude_slower(self):
        sdfg = mm_sdfg()
        apply_transformations(sdfg, FPGATransform)
        opt = simulate(sdfg, "fpga", SYMS)
        naive = simulate(sdfg, "fpga", SYMS, naive_fpga=True)
        assert naive.time / opt.time > 30

    def test_loop_trip_counts(self):
        sdfg = SDFG("loop")
        sdfg.add_array("v", (1,), dtypes.float64)
        sdfg.add_symbol("T")
        body = sdfg.add_state("body")
        t = body.add_tasklet("t", ["a"], ["b"], "b = a + 1")
        body.add_edge(body.add_read("v"), t, Memlet.simple("v", "0"), None, "a")
        body.add_edge(t, body.add_write("v"), Memlet.simple("v", "0"), "b", None)
        init = sdfg.add_state("init", is_start=True)
        sdfg.add_loop(init, body, None, "k", 0, "k < T", "k + 1")
        model = PerformanceModel(sdfg, {"T": 7})
        visits = model.state_visit_counts()
        assert visits[id(body)] == 7
        rep = simulate(sdfg, "cpu", {"T": 7})
        assert rep.flops == pytest.approx(7, rel=0.01)

    def test_report_breakdown(self):
        rep = simulate(mm_sdfg(), "cpu", SYMS)
        assert rep.breakdown
        assert rep.achieved_flops > 0
        assert 0 < rep.fraction_of_peak(XEON_E5_2650V4) <= 1


def _nested_affine(inner_symbol):
    """``B[i] = A[i] * 2 + 1`` over ``0:N``, as a nested SDFG whose own
    size symbol is ``inner_symbol``, bound to the outer ``N``."""
    inner = SDFG("inner")
    inner.add_array("x", (inner_symbol,), dtypes.float64)
    inner.add_array("y", (inner_symbol,), dtypes.float64)
    inner.add_state("body").add_mapped_tasklet(
        "affine",
        {"i": f"0:{inner_symbol}"},
        inputs={"a": Memlet.simple("x", "i")},
        code="b = a * 2 + 1",
        outputs={"b": Memlet.simple("y", "i")},
    )
    outer = SDFG("outer")
    outer.add_array("A", ("N",), dtypes.float64)
    outer.add_array("B", ("N",), dtypes.float64)
    st = outer.add_state("main")
    node = st.add_nested_sdfg(inner, ["x"], ["y"], symbol_mapping={inner_symbol: "N"})
    st.add_edge(st.add_read("A"), node, Memlet.simple("A", "0:N"), None, "x")
    st.add_edge(node, st.add_write("B"), Memlet.simple("B", "0:N"), "y", None)
    return outer


class TestNestedSymbolMapping:
    def test_inner_symbol_name_does_not_change_the_prediction(self):
        """The nested SDFG's sizes come from its ``symbol_mapping``
        evaluated in the outer bindings, not from outer names that
        happen to match (an unbound ``M`` used to count as 1)."""
        n = 1 << 20
        renamed = simulate(_nested_affine("M"), "cpu", {"N": n})
        same = simulate(_nested_affine("N"), "cpu", {"N": n})
        assert renamed == same
        assert renamed.flops == 2 * n

    def test_unevaluable_mapping_leaves_the_inner_symbol_unbound(self):
        sdfg = _nested_affine("M")
        node = next(n for n in sdfg.start_state.nodes() if isinstance(n, NestedSDFG))
        node.symbol_mapping["M"] = rp.symbol("P")  # not bound outside
        assert simulate(sdfg, "cpu", {"N": 1 << 20, "M": 7}).flops == 2


def _counter_state(sdfg, name):
    """A state that adds one to ``v[0]``: its visits, read off the data."""
    state = sdfg.add_state(name)
    t = state.add_tasklet("inc", ["a"], ["b"], "b = a + 1")
    state.add_edge(state.add_read("v"), t, Memlet.simple("v", "0"), None, "a")
    state.add_edge(t, state.add_write("v"), Memlet.simple("v", "0"), "b", None)
    return state


class TestStateWalk:
    """The model steps the state machine by the interpreter's rule."""

    def test_assignments_on_one_edge_read_the_same_bindings(self):
        # Back edge ``i = i + 1, j = i``: ``j`` takes the old ``i``, so
        # ``j`` runs 0, 0, 1, 2, 3, 4 and the body runs 6 times.
        sdfg = SDFG("swap")
        sdfg.add_array("v", (1,), dtypes.float64)
        init = sdfg.add_state("init", is_start=True)
        guard = sdfg.add_state("guard")
        body = _counter_state(sdfg, "body")
        end = sdfg.add_state("end")
        sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0, "j": 0}))
        sdfg.add_edge(guard, body, InterstateEdge(condition="j < 5"))
        sdfg.add_edge(guard, end, InterstateEdge(condition="j >= 5"))
        sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1", "j": "i"}))
        v = np.zeros(1)
        SDFGInterpreter(sdfg)(v=v)
        assert v[0] == 6
        assert PerformanceModel(sdfg, {}).state_visit_counts()[id(body)] == 6

    def test_a_branch_on_a_scalar_ends_the_walk(self):
        sdfg = SDFG("branch")
        sdfg.add_array("v", (1,), dtypes.float64)
        sdfg.add_scalar("s", dtypes.float64)
        first = _counter_state(sdfg, "first")
        yes = _counter_state(sdfg, "yes")
        no = _counter_state(sdfg, "no")
        last = _counter_state(sdfg, "last")
        sdfg.add_edge(first, yes, InterstateEdge(condition="s > 0"))
        sdfg.add_edge(first, no, InterstateEdge(condition="s <= 0"))
        sdfg.add_edge(yes, last, InterstateEdge())
        sdfg.add_edge(no, last, InterstateEdge())
        counts = PerformanceModel(sdfg, {}).state_visit_counts()
        assert [counts[id(s)] for s in (first, yes, no, last)] == [1, 0, 0, 0]


class TestModelEvalTable:
    """The model's expression values are memoized per symbol binding in
    the ``model_eval`` table of the symbolic memo."""

    def test_listed_by_stats_and_emptied_by_clear(self):
        from repro.symbolic import memo

        simulate(mm_sdfg(), "cpu", SYMS)
        assert memo.stats()["model_eval"]["entries"] > 0
        memo.clear()
        assert memo.stats()["model_eval"]["entries"] == 0

    def test_bounded_by_max_entries(self, monkeypatch):
        from repro.symbolic import Integer, memo

        monkeypatch.setattr(memo, "MAX_ENTRIES", 8)
        memo.clear()
        sdfg = SDFG("empty")
        for n in range(20):
            assert PerformanceModel(sdfg, {"N": n})._eval(N * 2) == 2.0 * n
        assert 0 < memo.stats()["model_eval"]["entries"] <= 8
        model = PerformanceModel(sdfg, {"N": 3})
        for k in range(20):
            assert model._eval(N + Integer(k)) == 3.0 + k
        assert 0 < len(model._values) <= 8
        memo.clear()

    def test_bindings_are_told_apart(self):
        sdfg = mm_sdfg()
        small = simulate(sdfg, "cpu", {"M": 8, "K": 8, "N": 8})
        large = simulate(sdfg, "cpu", SYMS)
        assert small.flops < large.flops
        assert simulate(sdfg, "cpu", {"M": 8, "K": 8, "N": 8}).flops == small.flops
        models = [PerformanceModel(sdfg, {"N": v}) for v in (4, 4.0, 4)]
        assert models[0]._values is models[2]._values
        assert models[0]._values is not models[1]._values

    def test_an_unbound_symbol_counts_once(self):
        model = PerformanceModel(mm_sdfg(), {})
        assert model._eval(N * 3) == 1.0


class TestExecutionCounts:
    """Each scope's body runs the sum of its per-instance count over the
    values of the enclosing parameters (and of the loop variables the
    state walk binds): no count reads a scope parameter unbound."""

    @staticmethod
    def _nest(inner_range, loop=False):
        """``out[i] += in[i, j]`` over ``i`` in ``0:N`` and ``j`` in
        ``inner_range``; with ``loop``, inside a loop over ``k < N``."""
        sdfg = SDFG("nest")
        sdfg.add_array("X", ("N", "N"), dtypes.float64)
        sdfg.add_array("y", ("N",), dtypes.float64)
        sdfg.add_symbol("N")
        st = sdfg.add_state("body")
        oe, ox = st.add_map("outer", {"i": "0:N"})
        ie, ix = st.add_map("inner", {"j": inner_range})
        t = st.add_tasklet("t", ["a"], ["b"], "b = a * 2")
        st.add_memlet_path(st.add_read("X"), oe, ie, t,
                           memlet=Memlet.simple("X", "i, j"), dst_conn="a")
        st.add_memlet_path(t, ix, ox, st.add_write("y"),
                           memlet=Memlet(data="y", subset="i", wcr="sum"), src_conn="b")
        if loop:
            init = sdfg.add_state("init", is_start=True)
            sdfg.add_loop(init, st, None, "k", 0, "k < N", "k + 1")
        return sdfg

    @pytest.mark.parametrize("inner, runs", [
        ("0:N", lambda n: n * n),
        ("i + 1:N", lambda n: n * (n - 1) // 2),
        ("0:i", lambda n: n * (n - 1) // 2),
    ])
    def test_a_nest_counts_every_iteration(self, inner, runs):
        for n in (5, 12):
            rep = simulate(self._nest(inner), "cpu", {"N": n})
            assert rep.flops == runs(n)
            assert rep.unbound == frozenset()

    def test_a_range_reading_a_loop_variable_counts_per_visit(self):
        rep = simulate(self._nest("0:k", loop=True), "cpu", {"N": 6})
        assert rep.flops == 6 * sum(range(6))
        assert rep.unbound == frozenset()

    def test_tiling_keeps_the_count(self):
        from repro.transformations.guard import GuardedOptimizer

        naive = simulate(mm_sdfg(), "cpu", {"M": 64, "K": 64, "N": 64})
        for chain in ([0], [0, 0], [1, 0]):
            sdfg = mm_sdfg()
            for index in chain:
                assert GuardedOptimizer(sdfg).apply("MapTiling", match_index=index)
            rep = simulate(sdfg, "cpu", {"M": 64, "K": 64, "N": 64})
            assert rep.flops == naive.flops == 64 ** 3 + 64 ** 2  # products, zero fill
            assert rep.bytes_moved >= 3 * 64 * 64 * 8
            assert rep.unbound == frozenset()

    def test_unbound_names_only_data(self):
        from repro.workloads import kernels

        rep = simulate(kernels.spmv_sdfg(), "cpu", {"H": 8, "W": 8, "nnz": 16})
        assert rep.unbound == {"__rng0", "__rng1"}

"""Tests for all 16 + 1 transformations: matching, applicability
conditions, and semantics preservation (execute before and after)."""

import numpy as np
import pytest

import repro as rp
from repro.sdfg import SDFG, Memlet, ScheduleType, StorageType, dtypes
from repro.sdfg.nodes import AccessNode, MapEntry, Reduce, Tasklet
from repro.sdfg.validation import InvalidSDFGError
from repro.transformations import (
    REGISTRY,
    DoubleBuffering,
    FPGATransform,
    GPUTransform,
    InlineSDFG,
    LocalStorage,
    LocalStream,
    MapCollapse,
    MapExpansion,
    MapFusion,
    MapInterchange,
    MapReduceFusion,
    MapTiling,
    MapToForLoop,
    MPITransform,
    RedundantArray,
    StateFusion,
    Vectorization,
    apply_strict_transformations,
    apply_transformations,
    enumerate_matches,
)
from repro.transformations.optimizer import apply_match
from repro.workloads import kernels, polybench

M, K, N = rp.symbol("M"), rp.symbol("K"), rp.symbol("N")


def run(sdfg, **kwargs):
    sdfg.invalidate_compiled()
    sdfg.compile()(**kwargs)


def mm_sdfg():
    @rp.program
    def mm(A: rp.float64[M, K], B: rp.float64[K, N], C: rp.float64[M, N]):
        C = A @ B

    mm._sdfg = None  # force fresh parse per test
    return mm.to_sdfg()


def check_mm(sdfg, note=""):
    A, B = np.random.rand(9, 7), np.random.rand(7, 8)
    C = np.zeros((9, 8))
    run(sdfg, A=A, B=B, C=C)
    np.testing.assert_allclose(C, A @ B, err_msg=note)


def nested_copy_sdfg():
    sdfg = SDFG("nest2")
    sdfg.add_array("A", ("N", "N"), dtypes.float64)
    sdfg.add_array("B", ("N", "N"), dtypes.float64)
    st = sdfg.add_state()
    ome, omx = st.add_map("outer", {"i": "0:N"})
    ime, imx = st.add_map("inner", {"j": "0:N"})
    t = st.add_tasklet("t", ["a"], ["b"], "b = a * 2")
    r, w = st.add_read("A"), st.add_write("B")
    st.add_memlet_path(r, ome, ime, t, memlet=Memlet.simple("A", "i, j"), dst_conn="a")
    st.add_memlet_path(t, imx, omx, w, memlet=Memlet.simple("B", "i, j"), src_conn="b")
    return sdfg


def check_copy2(sdfg, note=""):
    A = np.random.rand(6, 6)
    B = np.zeros((6, 6))
    run(sdfg, A=A, B=B)
    np.testing.assert_allclose(B, 2 * A, err_msg=note)


class TestRegistry:
    def test_all_sixteen_plus_one_registered(self):
        expected = {
            "MapCollapse", "MapExpansion", "MapFusion", "MapInterchange",
            "MapReduceFusion", "MapTiling", "DoubleBuffering", "LocalStorage",
            "LocalStream", "Vectorization", "MapToForLoop", "StateFusion",
            "InlineSDFG", "FPGATransform", "GPUTransform", "MPITransform",
            "RedundantArray",
        }
        assert expected <= set(REGISTRY)

    def test_unknown_transformation_name(self):
        with pytest.raises(KeyError, match="unknown transformation"):
            apply_transformations(mm_sdfg(), "FrobnicateMaps")


class TestMapStructure:
    def test_map_expansion_then_collapse_roundtrip(self):
        sdfg = mm_sdfg()
        assert apply_transformations(sdfg, MapReduceFusion) == 1
        assert apply_transformations(sdfg, MapExpansion) == 1
        mm_entries = [
            n
            for s in sdfg.states()
            for n in s.nodes()
            if isinstance(n, MapEntry) and "MatMult" in n.map.label
        ]
        assert sorted(len(e.map.params) for e in mm_entries) == [1, 2]
        check_mm(sdfg, "after expansion")
        assert apply_transformations(sdfg, MapCollapse) == 1
        mm_entries = [
            n
            for s in sdfg.states()
            for n in s.nodes()
            if isinstance(n, MapEntry) and "MatMult" in n.map.label
        ]
        assert len(mm_entries) == 1 and len(mm_entries[0].map.params) == 3
        check_mm(sdfg, "after collapse")

    def test_map_interchange(self):
        sdfg = nested_copy_sdfg()
        st = sdfg.states()[0]
        outer_before = [
            n for n in st.nodes()
            if isinstance(n, MapEntry) and st.scope_dict()[n] is None
        ][0]
        assert outer_before.map.params == ["i"]
        assert apply_transformations(sdfg, MapInterchange) == 1
        outer_after = [
            n for n in st.nodes()
            if isinstance(n, MapEntry) and st.scope_dict()[n] is None
        ][0]
        assert outer_after.map.params == ["j"]
        check_copy2(sdfg, "after interchange")

    def test_map_tiling(self):
        sdfg = nested_copy_sdfg()
        assert apply_transformations(
            sdfg, MapTiling, options={"tile_sizes": (4,)}
        ) == 1
        check_copy2(sdfg, "after tiling")
        # A tile map now wraps the outer map.
        st = sdfg.states()[0]
        sd = st.scope_dict()
        top = [n for n in st.nodes() if isinstance(n, MapEntry) and sd[n] is None]
        assert len(top) == 1 and top[0].map.params[0].startswith("__tile_")

    def test_map_tiling_nondivisible_size(self):
        sdfg = nested_copy_sdfg()
        apply_transformations(sdfg, MapTiling, options={"tile_sizes": (5,)})
        A = np.random.rand(7, 7)  # 7 % 5 != 0 -> boundary tile
        B = np.zeros((7, 7))
        run(sdfg, A=A, B=B)
        np.testing.assert_allclose(B, 2 * A)

    def test_map_to_for_loop(self):
        @rp.program
        def scale(A: rp.float64[N]):
            for i in rp.map[0:N]:
                A[i] = A[i] * 3

        sdfg = scale.to_sdfg()
        n_states = sdfg.number_of_nodes()
        assert apply_transformations(sdfg, MapToForLoop) == 1
        assert sdfg.number_of_nodes() > n_states  # loop states added
        A = np.random.rand(5)
        ref = A * 3
        run(sdfg, A=A)
        np.testing.assert_allclose(A, ref)

    def test_vectorization_marks_map(self):
        sdfg = mm_sdfg()
        apply_transformations(sdfg, MapReduceFusion)
        assert apply_transformations(sdfg, Vectorization) == 1
        comp = sdfg.compile()
        assert "contraction" in {r["tier"] for r in comp.lowering}
        check_mm(sdfg, "after vectorization")

    def test_vectorization_skips_nonvectorizable(self):
        @rp.program
        def gather(idx: rp.int64[N], v: rp.float64[M], out: rp.float64[N]):
            for i in rp.map[0:N]:
                out[i] = v[idx[i]]

        sdfg = gather.to_sdfg()
        assert enumerate_matches(sdfg, Vectorization) == []


class TestFusion:
    def test_map_reduce_fusion_fig11a(self):
        sdfg = mm_sdfg()
        reds = [n for s in sdfg.states() for n in s.nodes() if isinstance(n, Reduce)]
        assert len(reds) == 1
        assert apply_transformations(sdfg, MapReduceFusion) == 1
        reds = [n for s in sdfg.states() for n in s.nodes() if isinstance(n, Reduce)]
        assert reds == []
        # The transient tensor is gone.
        assert not any("_mm_tmp" in name for name in sdfg.arrays)
        check_mm(sdfg, "after map-reduce fusion")

    def test_map_reduce_fusion_overwrites_prior_output(self):
        sdfg = mm_sdfg()
        apply_transformations(sdfg, MapReduceFusion)
        A, B = np.random.rand(5, 4), np.random.rand(4, 6)
        C = np.full((5, 6), 99.0)  # stale values must not leak in
        run(sdfg, A=A, B=B, C=C)
        np.testing.assert_allclose(C, A @ B)

    def test_map_fusion(self):
        @rp.program
        def two_maps(A: rp.float64[N], C: rp.float64[N]):
            tmp: rp.float64[N]
            for i in rp.map[0:N]:
                tmp[i] = A[i] * 2
            for j in rp.map[0:N]:
                C[j] = tmp[j] + 1

        sdfg = two_maps.to_sdfg()
        n_maps = sum(
            1 for s in sdfg.states() for n in s.nodes() if isinstance(n, MapEntry)
        )
        assert n_maps == 2
        assert apply_transformations(sdfg, MapFusion) == 1
        n_maps = sum(
            1 for s in sdfg.states() for n in s.nodes() if isinstance(n, MapEntry)
        )
        assert n_maps == 1
        A = np.random.rand(11)
        C = np.zeros(11)
        run(sdfg, A=A, C=C)
        np.testing.assert_allclose(C, A * 2 + 1)

    def test_map_fusion_requires_equal_ranges(self):
        @rp.program
        def mismatched(A: rp.float64[N], C: rp.float64[N]):
            tmp: rp.float64[N]
            for i in rp.map[0:N]:
                tmp[i] = A[i] * 2
            for j in rp.map[1 : N - 1]:
                C[j] = tmp[j] + 1

        sdfg = mismatched.to_sdfg()
        assert enumerate_matches(sdfg, MapFusion) == []

    def test_map_fusion_rejects_nontransient(self):
        @rp.program
        def ext(A: rp.float64[N], T: rp.float64[N], C: rp.float64[N]):
            for i in rp.map[0:N]:
                T[i] = A[i] * 2
            for j in rp.map[0:N]:
                C[j] = T[j] + 1

        sdfg = ext.to_sdfg()
        assert enumerate_matches(sdfg, MapFusion) == []

    @pytest.mark.parametrize("name", ["MapFusion", "OnTheFlyMapFusion"])
    def test_fusion_on_durbin_matches_numpy_or_does_not_apply(self, name):
        # durbin's ``z[i] = y[i] + alpha*y[k-1-i]`` then ``y[i] = z[i]``:
        # fused, iteration i overwrites y[i] before iteration k-1-i reads it.
        from repro.workloads import polybench

        kernel = polybench.get("durbin")
        sdfg = kernel.make_sdfg()
        if apply_transformations(sdfg, REGISTRY[name]) == 0:
            return
        got, want = kernel.data(), kernel.data()
        kernel.run_sdfg(got, compiled=sdfg.compile())
        kernel.ref_numpy(want, kernel.sizes)
        np.testing.assert_allclose(got["y"], want["y"], rtol=1e-8, atol=1e-8)

    @staticmethod
    def _in_place_chain(read):
        """``tmp[i] = A[read] * 2`` then ``A[j] = tmp[j] + 1``."""
        sdfg = SDFG("inplace")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_transient("tmp", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "prod", {"i": "0:N"}, inputs={"a": Memlet.simple("A", read)},
            code="t = a * 2", outputs={"t": Memlet.simple("tmp", "i")},
        )
        tmp = [n for n in st.data_nodes() if n.data == "tmp"][0]
        st.add_mapped_tasklet(
            "cons", {"j": "0:N"}, inputs={"t": Memlet.simple("tmp", "j")},
            code="b = t + 1", outputs={"b": Memlet.simple("A", "j")},
            input_nodes={"tmp": tmp},
        )
        return sdfg

    def test_map_fusion_rules_on_a_container_both_maps_touch(self):
        # The same element per iteration fuses; another iteration's does not.
        sdfg = self._in_place_chain("i")
        assert apply_transformations(sdfg, MapFusion) == 1
        A = np.random.rand(9)
        want = A * 2 + 1
        run(sdfg, A=A)
        np.testing.assert_allclose(A, want)
        assert enumerate_matches(self._in_place_chain("N - 1 - i"), MapFusion) == []
        assert enumerate_matches(self._in_place_chain("0"), MapFusion) == []

    def test_on_the_fly_fusion_rejects_a_consumer_writing_producer_input(self):
        from repro.transformations import OnTheFlyMapFusion

        assert enumerate_matches(self._in_place_chain("i"), OnTheFlyMapFusion) == []


class TestMemory:
    def test_local_storage_fig11b(self):
        sdfg = nested_copy_sdfg()
        assert apply_transformations(sdfg, LocalStorage) == 1
        assert any(name.startswith("local_") for name in sdfg.arrays)
        check_copy2(sdfg, "after local storage")

    def test_local_storage_reindexes(self):
        sdfg = nested_copy_sdfg()
        apply_transformations(sdfg, LocalStorage)
        st = sdfg.states()[0]
        local = [n for n in st.data_nodes() if n.data.startswith("local_")][0]
        # Memlets below the inner entry now reference the local buffer.
        inner = [e for e in st.edges() if isinstance(e.dst, Tasklet)]
        assert any(e.data.data.startswith("local_") for e in inner)

    #: Programs the tuner tiles; LocalStorage used to cache their tiles in
    #: buffers sized per tile iteration, which no generator can allocate.
    TILED = ("matmul", "gemm", "atax", "jacobi-2d")

    @staticmethod
    def _tiled_variants(name):
        sdfg = (kernels.matmul_sdfg() if name == "matmul"
                else polybench.get(name).make_sdfg())
        sdfg.propagate()
        for index in range(len(enumerate_matches(sdfg.copy(), MapTiling))):
            tiled = sdfg.copy()
            assert apply_match(tiled, MapTiling, match_index=index)
            tiled.propagate()
            yield tiled

    @staticmethod
    def _local_storage_children(tiled):
        for index in range(len(enumerate_matches(tiled.copy(), LocalStorage))):
            graph = tiled.copy()
            assert apply_match(graph, LocalStorage, match_index=index)
            graph.propagate()
            yield graph

    @staticmethod
    def _names_a_tile_parameter(sdfg):
        return any(
            s.name.startswith("__tile_")
            for desc in sdfg.arrays.values() for s in desc.free_symbols
        )

    @pytest.mark.parametrize("name", TILED)
    def test_local_storage_refuses_tile_shaped_buffers(self, name, monkeypatch):
        for tiled in self._tiled_variants(name):
            for graph in self._local_storage_children(tiled):
                assert not self._names_a_tile_parameter(graph)
                graph.validate()
        # The refusal is what keeps them out: without it, the tiled
        # program offers matches whose buffer is sized by a tile index.
        monkeypatch.setattr(
            LocalStorage, "_names_scope_parameter",
            staticmethod(lambda subset, params: False),
        )
        assert any(
            self._names_a_tile_parameter(graph)
            for tiled in self._tiled_variants(name)
            for graph in self._local_storage_children(tiled)
        )

    def test_validation_reports_a_buffer_sized_by_a_tile_parameter(self, monkeypatch):
        """LocalStorage applied to tiled gemm with its refusal bypassed
        builds what no generator can allocate; validation says so (V005)
        before any memlet check, so the guard rolls it back."""
        monkeypatch.setattr(
            LocalStorage, "_names_scope_parameter",
            staticmethod(lambda subset, params: False),
        )
        sdfg = polybench.get("gemm").make_sdfg()
        sdfg.propagate()
        assert apply_match(sdfg, MapTiling, match_index=1)
        sdfg.propagate()
        built = list(self._local_storage_children(sdfg))
        assert built
        for graph in built:
            assert self._names_a_tile_parameter(graph)
            with pytest.raises(InvalidSDFGError) as err:
                graph.validate()
            assert err.value.code == "V005"
            assert "__tile_" in str(err.value)

    def test_double_buffering(self):
        sdfg = nested_copy_sdfg()
        apply_transformations(sdfg, LocalStorage)
        assert apply_transformations(sdfg, DoubleBuffering) == 1
        local_name = [n for n in sdfg.arrays if n.startswith("local_")][0]
        assert sdfg.arrays[local_name].shape[0].as_int() == 2
        check_copy2(sdfg, "after double buffering")

    def test_local_stream(self):
        sdfg = SDFG("filter")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_stream("S", dtypes.float64, transient=True)
        sdfg.add_array("out", ("N",), dtypes.float64)
        st = sdfg.add_state()
        t, me, mx = st.add_mapped_tasklet(
            "f",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="if a > 0.5:\n    s = a",
            outputs={"s": Memlet(data="S", subset="0", dynamic=True)},
        )
        s_node = [n for n in st.data_nodes() if n.data == "S"][0]
        o_node = st.add_write("out")
        st.add_nedge(s_node, o_node)

        def run_filter(sdfg):
            rng = np.random.RandomState(0)
            A = rng.rand(20)
            out = np.zeros(20)
            run(sdfg, A=A, out=out)
            return out

        before = run_filter(sdfg)
        assert apply_transformations(sdfg, LocalStream) == 1
        assert any(n.startswith("LS") for n in sdfg.arrays)
        after = run_filter(sdfg)
        np.testing.assert_allclose(before, after)

    def test_redundant_array_removed(self):
        # Appendix D's motivating situation: transient copied to output.
        sdfg = SDFG("red")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_transient("tmp", ("N",), dtypes.float64, find_new_name=False)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        t, me, mx = st.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = a + 1",
            outputs={"b": Memlet.simple("tmp", "i")},
        )
        tmp_node = [n for n in st.data_nodes() if n.data == "tmp"][0]
        b_node = st.add_write("B")
        st.add_edge(tmp_node, b_node, Memlet.simple("tmp", "0:N"), None, None)
        assert apply_transformations(sdfg, RedundantArray) == 1
        assert "tmp" not in sdfg.arrays
        A = np.random.rand(9)
        B = np.zeros(9)
        run(sdfg, A=A, B=B)
        np.testing.assert_allclose(B, A + 1)

    def test_redundant_array_keeps_multiply_used(self):
        sdfg = SDFG("red2")
        sdfg.add_transient("tmp", ("N",), dtypes.float64, find_new_name=False)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_edge(st.add_read("tmp"), st.add_write("B"),
                    Memlet.simple("tmp", "0:N"), None, None)
        st2 = sdfg.add_state()
        st2.add_access("tmp")  # second occurrence blocks removal
        from repro.sdfg import InterstateEdge

        sdfg.add_edge(st, st2, InterstateEdge())
        assert enumerate_matches(sdfg, RedundantArray) == []


class TestInterstate:
    def test_state_fusion(self):
        @rp.program
        def seq(A: rp.float64[N], C: rp.float64[N]):
            tmp: rp.float64[N]
            tmp = A * 2
            C = tmp + 1

        sdfg = seq.to_sdfg()
        # The frontend puts both in one state already; split artificially.
        sdfg2 = SDFG("two")
        sdfg2.add_array("A", ("N",), dtypes.float64)
        sdfg2.add_transient("t1", ("N",), dtypes.float64, find_new_name=False)
        sdfg2.add_array("B", ("N",), dtypes.float64)
        s1 = sdfg2.add_state("s1")
        s1.add_mapped_tasklet(
            "m1", {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="b = a * 2",
            outputs={"b": Memlet.simple("t1", "i")},
        )
        s2 = sdfg2.add_state("s2")
        s2.add_mapped_tasklet(
            "m2", {"i": "0:N"},
            inputs={"a": Memlet.simple("t1", "i")},
            code="b = a + 1",
            outputs={"b": Memlet.simple("B", "i")},
        )
        from repro.sdfg import InterstateEdge

        sdfg2.add_edge(s1, s2, InterstateEdge())
        assert apply_transformations(sdfg2, StateFusion) == 1
        assert sdfg2.number_of_nodes() == 1
        A = np.random.rand(7)
        B = np.zeros(7)
        run(sdfg2, A=A, B=B)
        np.testing.assert_allclose(B, A * 2 + 1)

    def test_state_fusion_respects_conditions(self):
        sdfg = SDFG("cond")
        s1 = sdfg.add_state("s1")
        s2 = sdfg.add_state("s2")
        from repro.sdfg import InterstateEdge

        sdfg.add_edge(s1, s2, InterstateEdge(condition="x > 0"))
        sdfg.add_symbol("x")
        assert enumerate_matches(sdfg, StateFusion) == []

    def test_inline_sdfg(self):
        inner = SDFG("inner")
        inner.add_array("x", ("N",), dtypes.float64)
        ist = inner.add_state()
        ist.add_mapped_tasklet(
            "scale", {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="b = a * 5",
            outputs={"b": Memlet.simple("x", "i")},
        )
        outer = SDFG("outer")
        outer.add_array("A", ("N",), dtypes.float64)
        st = outer.add_state()
        node = st.add_nested_sdfg(inner, ["x"], ["x"], symbol_mapping={"N": "N"})
        st.add_edge(st.add_read("A"), node, Memlet.simple("A", "0:N"), None, "x")
        st.add_edge(node, st.add_write("A"), Memlet.simple("A", "0:N"), "x", None)
        assert apply_transformations(outer, InlineSDFG) == 1
        from repro.sdfg.nodes import NestedSDFG

        assert not any(
            isinstance(n, NestedSDFG) for s in outer.states() for n in s.nodes()
        )
        A = np.ones(4)
        run(outer, A=A)
        np.testing.assert_allclose(A, 5.0)

    def test_strict_transformations_fixpoint(self):
        sdfg = mm_sdfg()
        before = sdfg.number_of_nodes()
        apply_strict_transformations(sdfg)
        check_mm(sdfg, "after strict pass")


class TestHardware:
    def test_gpu_transform(self):
        sdfg = nested_copy_sdfg()
        assert apply_transformations(sdfg, GPUTransform) == 1
        # Device copies + copy states exist.
        assert any(n.startswith("gpu_") for n in sdfg.arrays)
        names = [s.name for s in sdfg.states()]
        assert "copy_to_device" in names and "copy_to_host" in names
        # Top-level map got a device schedule.
        st = [s for s in sdfg.states() if s.entry_nodes()][0]
        sd = st.scope_dict()
        top = [n for n in st.entry_nodes() if sd[n] is None][0]
        assert top.map.schedule == ScheduleType.GPU_Device
        check_copy2(sdfg, "after GPU transform")
        # CUDA codegen accepts the result.
        cuda = sdfg.generate_code("cuda")
        assert "__global__" in cuda

    def test_fpga_transform(self):
        sdfg = nested_copy_sdfg()
        assert apply_transformations(sdfg, FPGATransform) == 1
        assert any(n.startswith("fpga_") for n in sdfg.arrays)
        check_copy2(sdfg, "after FPGA transform")
        hls = sdfg.generate_code("fpga")
        assert "HLS" in hls

    def test_gpu_transform_not_applicable_twice(self):
        sdfg = nested_copy_sdfg()
        apply_transformations(sdfg, GPUTransform)
        assert enumerate_matches(sdfg, GPUTransform) == []

    def test_mpi_transform_single_rank_semantics(self):
        sdfg = nested_copy_sdfg()
        assert apply_transformations(sdfg, MPITransform) == 1
        assert "__mpi_rank" in sdfg.symbols
        check_copy2(sdfg, "after MPI transform (1 rank)")


class TestHistoryReplay:
    def test_history_recorded_and_replayable(self):
        from repro.transformations import replay

        sdfg = mm_sdfg()
        apply_transformations(sdfg, [MapReduceFusion, Vectorization])
        assert sdfg.transformation_history == ["MapReduceFusion", "Vectorization"]
        fresh = mm_sdfg()
        replay(fresh, sdfg.transformation_history)
        assert fresh.transformation_history == sdfg.transformation_history
        check_mm(fresh, "after replay")


class TestAutoOptimize:
    """The paper's §8 outlook: systematic transformation application."""

    def test_auto_optimize_mm(self):
        from repro.transformations import auto_optimize

        sdfg = mm_sdfg()
        n = auto_optimize(sdfg)
        assert n >= 2  # at least fusion + vectorization
        assert "MapReduceFusion" in sdfg.transformation_history
        assert "Vectorization" in sdfg.transformation_history
        check_mm(sdfg, "after auto_optimize")
        assert "contraction" in {r["tier"] for r in sdfg.compile().lowering}

    def test_auto_optimize_gpu_offload(self):
        from repro.transformations import auto_optimize

        sdfg = nested_copy_sdfg()
        auto_optimize(sdfg, device="gpu")
        assert any(name.startswith("gpu_") for name in sdfg.arrays)
        check_copy2(sdfg, "after auto_optimize(gpu)")

    def test_auto_optimize_idempotent_semantics(self):
        from repro.transformations import auto_optimize

        sdfg = mm_sdfg()
        auto_optimize(sdfg)
        auto_optimize(sdfg)  # second pass finds nothing harmful
        check_mm(sdfg, "after double auto_optimize")

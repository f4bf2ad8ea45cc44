"""Tests for SDFG/state construction, scopes, memlet paths, validation."""

import pytest

from repro.sdfg import (
    SDFG,
    InterstateEdge,
    InvalidSDFGError,
    Memlet,
    ScheduleType,
    StorageType,
    dtypes,
)
from repro.graph import CycleError, Edge, topological_sort
from repro.sdfg.nodes import AccessNode, ExitNode, Map, NestedSDFG
from repro.sdfg.state import SDFGState
from repro.symbolic import Integer, symbols

N = symbols("N")[0]


def vadd_sdfg():
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


class TestConstruction:
    def test_add_state_names_unique(self):
        sdfg = SDFG("x")
        s1 = sdfg.add_state("s")
        s2 = sdfg.add_state("s")
        assert s1.name != s2.name

    def test_first_state_is_start(self):
        sdfg = SDFG("x")
        s = sdfg.add_state()
        assert sdfg.start_state is s

    def test_invalid_names(self):
        with pytest.raises(ValueError):
            SDFG("9bad")
        sdfg = SDFG("ok")
        with pytest.raises(ValueError):
            sdfg.add_array("bad name", (1,), dtypes.float64)

    def test_duplicate_array(self):
        sdfg = SDFG("x")
        sdfg.add_array("A", (1,), dtypes.float64)
        with pytest.raises(ValueError):
            sdfg.add_array("A", (2,), dtypes.float64)

    def test_transient_fresh_name(self):
        sdfg = SDFG("x")
        sdfg.add_array("tmp", (1,), dtypes.float64)
        name, _ = sdfg.add_transient("tmp", (2,), dtypes.float64)
        assert name != "tmp"
        assert sdfg.arrays[name].transient

    def test_shape_symbols_declared(self):
        sdfg = SDFG("x")
        sdfg.add_array("A", ("N", "M"), dtypes.float64)
        assert "N" in sdfg.symbols and "M" in sdfg.symbols

    def test_arglist_excludes_transients(self):
        sdfg = vadd_sdfg()
        sdfg.add_transient("scratch", ("N",), dtypes.float64)
        assert "scratch" not in sdfg.arglist()
        assert list(sdfg.arglist()) == ["A", "B", "C"]

    def test_add_state_before_after(self):
        sdfg = SDFG("x")
        s1 = sdfg.add_state("s1")
        s2 = sdfg.add_state("s2")
        sdfg.add_edge(s1, s2, InterstateEdge())
        pre = sdfg.add_state_before(s1)
        post = sdfg.add_state_after(s2)
        assert sdfg.start_state is pre
        assert sdfg.successors(pre) == [s1]
        assert sdfg.successors(s2) == [post]

    def test_add_loop(self):
        sdfg = SDFG("loop")
        body = sdfg.add_state("body")
        guard, after = sdfg.add_loop(
            None, body, None, "t", 0, "t < 10", "t + 1"
        )
        # guard has two outgoing edges: into body (t<10) and to after.
        assert {e.dst for e in sdfg.out_edges(guard)} == {body, after}
        back = sdfg.edges_between(body, guard)
        assert back[0].data.assignments["t"] == Integer(1) + symbols("t")[0]


class TestScopes:
    def test_scope_dict(self):
        sdfg = vadd_sdfg()
        st = sdfg.start_state
        me = st.entry_nodes()[0]
        sd = st.scope_dict()
        tasklet = [n for n in st.nodes() if n.label == "add"][0]
        assert sd[tasklet] is me
        assert sd[me] is None
        assert sd[st.exit_node(me)] is me

    def test_nested_scopes(self):
        sdfg = SDFG("nested")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        sdfg.add_array("B", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        ome, omx = st.add_map("outer", {"i": "0:N"})
        ime, imx = st.add_map("inner", {"j": "0:N"})
        t = st.add_tasklet("copy", ["a"], ["b"], "b = a")
        r, w = st.add_read("A"), st.add_write("B")
        st.add_memlet_path(r, ome, ime, t, memlet=Memlet.simple("A", "i, j"), dst_conn="a")
        st.add_memlet_path(t, imx, omx, w, memlet=Memlet.simple("B", "i, j"), src_conn="b")
        sd = st.scope_dict()
        assert sd[t] is ime
        assert sd[ime] is ome
        assert sd[ome] is None
        sdfg.validate()
        # scope_subgraph includes nested content
        sub = st.scope_subgraph(ome)
        assert t in sub and ime in sub and imx in sub

    def test_scope_children(self):
        sdfg = vadd_sdfg()
        st = sdfg.start_state
        me = st.entry_nodes()[0]
        children = st.scope_children()
        assert me in children[None]
        labels = {n.label for n in children[me]}
        assert "add" in labels

    def test_memlet_path(self):
        sdfg = vadd_sdfg()
        st = sdfg.start_state
        me = st.entry_nodes()[0]
        outer = st.in_edges(me)[0]
        path = st.memlet_path(outer)
        assert len(path) == 2
        assert path[0] is outer


class TestPropagation:
    def test_outer_memlets_tightened(self):
        sdfg = vadd_sdfg()
        sdfg.propagate()
        st = sdfg.start_state
        me = st.entry_nodes()[0]
        for e in st.in_edges(me):
            assert str(e.data.subset) == "0:N"
            assert e.data.volume == N

    def test_stencil_halo(self):
        sdfg = SDFG("stencil")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "st",
            {"i": "1:N-1"},
            inputs={"a": Memlet.simple("A", "i-1:i+2")},
            code="b = a",
            outputs={"b": Memlet.simple("B", "i")},
        )
        sdfg.propagate()
        me = st.entry_nodes()[0]
        inm = st.in_edges(me)[0].data
        assert str(inm.subset) == "0:N"
        # 3 accesses per iteration x (N-2) iterations
        assert inm.volume.subs({"N": 10}).as_int() == 24

    def test_wcr_propagates(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("out", (1,), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "acc",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("A", "i")},
            code="o = a",
            outputs={"o": Memlet(data="out", subset="0", wcr="sum")},
        )
        sdfg.propagate()
        mx = st.exit_node(st.entry_nodes()[0])
        outer = st.out_edges(mx)[0].data
        assert outer.wcr is not None

    def test_nested_scope_propagation(self):
        sdfg = SDFG("nested")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        sdfg.add_array("B", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        ome, omx = st.add_map("outer", {"i": "0:N"})
        ime, imx = st.add_map("inner", {"j": "0:N"})
        t = st.add_tasklet("copy", ["a"], ["b"], "b = a")
        r, w = st.add_read("A"), st.add_write("B")
        st.add_memlet_path(r, ome, ime, t, memlet=Memlet.simple("A", "i, j"), dst_conn="a")
        st.add_memlet_path(t, imx, omx, w, memlet=Memlet.simple("B", "i, j"), src_conn="b")
        sdfg.propagate()
        outer_in = st.in_edges(ome)[0].data
        assert str(outer_in.subset) == "0:N, 0:N"
        mid = st.out_edges_by_connector(ome, "OUT_1")[0].data
        assert str(mid.subset) == "i, 0:N"


class TestValidation:
    def test_valid_sdfg_passes(self):
        vadd_sdfg().validate()

    def test_empty_sdfg_fails(self):
        with pytest.raises(InvalidSDFGError):
            SDFG("empty").validate()

    def test_undefined_container(self):
        sdfg = SDFG("bad")
        st = sdfg.add_state()
        st.add_access("ghost")
        with pytest.raises(InvalidSDFGError, match="undefined container"):
            sdfg.validate()

    def test_cyclic_state_rejected(self):
        sdfg = SDFG("cyc")
        sdfg.add_array("A", (4,), dtypes.float64)
        st = sdfg.add_state()
        t1 = st.add_tasklet("t1", ["x"], ["y"], "y = x")
        t2 = st.add_tasklet("t2", ["x"], ["y"], "y = x")
        st.add_edge(t1, t2, Memlet.simple("A", "0"), "y", "x")
        st.add_edge(t2, t1, Memlet.simple("A", "0"), "y", "x")
        with pytest.raises(InvalidSDFGError, match="cyclic"):
            sdfg.validate()

    def test_rank_mismatch(self):
        sdfg = SDFG("rank")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        a = st.add_read("A")
        t = st.add_tasklet("t", ["x"], [], "pass")
        st.add_edge(a, t, Memlet.simple("A", "0"), None, "x")
        with pytest.raises(InvalidSDFGError, match="rank"):
            sdfg.validate()

    def test_out_of_bounds(self):
        sdfg = SDFG("oob")
        sdfg.add_array("A", ("N",), dtypes.float64)
        st = sdfg.add_state()
        a = st.add_read("A")
        t = st.add_tasklet("t", ["x"], [], "pass")
        st.add_edge(a, t, Memlet.simple("A", "0:N+1"), None, "x")
        with pytest.raises(InvalidSDFGError, match="out of bounds"):
            sdfg.validate()

    def test_tasklet_external_name_rejected(self):
        # The defining property: tasklets cannot touch memory w/o memlets.
        sdfg = SDFG("leak")
        sdfg.add_array("A", ("N",), dtypes.float64)
        st = sdfg.add_state()
        t = st.add_tasklet("t", [], ["y"], "y = secret_global + 1")
        w = st.add_write("A")
        st.add_edge(t, w, Memlet.simple("A", "0"), "y", None)
        with pytest.raises(InvalidSDFGError, match="without a memlet"):
            sdfg.validate()

    def test_tasklet_may_use_scope_params_and_symbols(self):
        sdfg = SDFG("syms")
        sdfg.add_array("A", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "t",
            {"i": "0:N"},
            inputs={},
            code="y = i * N",
            outputs={"y": Memlet.simple("A", "i")},
        )
        sdfg.validate()

    def test_storage_schedule_feasibility(self):
        # GPU-scheduled map touching CPU-heap storage must fail (paper §4.3).
        sdfg = SDFG("gpu_bad")
        sdfg.add_array("A", ("N",), dtypes.float64, storage=StorageType.CPU_Heap)
        sdfg.add_array("B", ("N",), dtypes.float64, storage=StorageType.GPU_Global)
        st = sdfg.add_state()
        me, mx = st.add_map("m", {"i": "0:N"}, schedule=ScheduleType.GPU_Device)
        t = st.add_tasklet("t", ["a"], ["b"], "b = a")
        r, w = st.add_read("A"), st.add_write("B")
        # Access node *inside* the GPU scope referencing CPU heap memory.
        inner = st.add_access("A")
        st.add_memlet_path(r, me, t, memlet=Memlet.simple("A", "i"), dst_conn="a")
        st.add_memlet_path(t, mx, w, memlet=Memlet.simple("B", "i"), src_conn="b")
        st.add_nedge(me, inner)
        st.add_nedge(inner, mx)
        with pytest.raises(InvalidSDFGError, match="not accessible"):
            sdfg.validate()

    def test_interstate_assignment_to_container_rejected(self):
        sdfg = SDFG("assign")
        sdfg.add_array("A", ("N",), dtypes.float64)
        s1 = sdfg.add_state()
        s1.add_access("A")
        s2 = sdfg.add_state()
        sdfg.add_edge(s1, s2, InterstateEdge(assignments={"A": 1}))
        with pytest.raises(InvalidSDFGError, match="container"):
            sdfg.validate()

    def test_recursive_nested_sdfg_rejected(self):
        sdfg = SDFG("rec")
        sdfg.add_array("A", (1,), dtypes.float64)
        st = sdfg.add_state()
        with pytest.raises(InvalidSDFGError, match="recursive"):
            node = st.add_nested_sdfg(sdfg, [], [])
            sdfg.validate()


class TestSerialization:
    def test_roundtrip_preserves_structure(self):
        sdfg = vadd_sdfg()
        sdfg.propagate()
        j = sdfg.to_json()
        back = SDFG.from_json(j)
        back.validate()
        assert back.to_json() == j

    def test_roundtrip_interstate(self):
        sdfg = SDFG("loop")
        body = sdfg.add_state("body")
        sdfg.add_loop(None, body, None, "t", 0, "t < N", "t + 1")
        sdfg.add_symbol("N")
        j = sdfg.to_json()
        back = SDFG.from_json(j)
        assert back.to_json() == j

    def test_save_load(self, tmp_path):
        sdfg = vadd_sdfg()
        p = tmp_path / "vadd.json"
        sdfg.save(str(p))
        back = SDFG.load(str(p))
        assert back.name == "vadd"
        back.validate()


def twin_maps_sdfg():
    """``B = 2 * A; C = B`` through two maps with one label and range."""
    sdfg = SDFG("twins")
    for name in "ABC":
        sdfg.add_array(name, ("N",), dtypes.float64)
    st = sdfg.add_state("main")
    _, _, x1 = st.add_mapped_tasklet(
        "t", {"i": "0:N"}, inputs={"a": Memlet.simple("A", "i")},
        code="b = 2 * a", outputs={"b": Memlet.simple("B", "i")},
    )
    b = st.out_edges(x1)[0].dst
    st.add_mapped_tasklet(
        "t", {"i": "0:N"}, inputs={"a": Memlet.simple("B", "i")},
        code="b = a", outputs={"b": Memlet.simple("C", "i")},
        input_nodes={"B": b},
    )
    return sdfg


class TestTwinScopes:
    """Two maps of one state that serialize with the same label, params
    and range stay two maps through a JSON round-trip."""

    def test_roundtrip_keeps_the_maps_apart(self):
        sdfg = twin_maps_sdfg()
        j = sdfg.to_json()
        st = SDFG.from_json(j).start_state
        e1, e2 = st.entry_nodes()
        assert e1.map is not e2.map
        assert st.exit_node(e1).map is e1.map
        assert st.exit_node(e2).map is e2.map
        assert st.exit_node(e1) is not st.exit_node(e2)
        assert SDFG.from_json(j).to_json() == j

    def test_only_ambiguous_exits_carry_their_entry(self):
        j = twin_maps_sdfg().to_json()
        nodes = j["states"][0]["nodes"]
        paired = {i: n["scope_entry"] for i, n in enumerate(nodes) if "scope_entry" in n}
        assert sorted(nodes[i]["type"] for i in paired) == ["MapExit", "MapExit"]
        assert sorted(nodes[e]["type"] for e in paired.values()) == ["MapEntry", "MapEntry"]
        assert not any("scope_entry" in n for n in vadd_sdfg().to_json()["states"][0]["nodes"])

    def test_tiling_one_twin_after_a_roundtrip_leaves_the_other(self):
        import numpy as np

        sdfg = SDFG.from_json(twin_maps_sdfg().to_json())
        assert sdfg.apply_transformations("MapTiling", options={"tile_sizes": (4,)}) == 1
        ranges = [str(e.map.range) for e in sdfg.start_state.entry_nodes()]
        assert len(ranges) == 3 and ranges.count("0:N") == 1 and "0:N:4" in ranges
        A = np.arange(10, dtype=np.float64)
        B, C = np.zeros(10), np.zeros(10)
        sdfg.compile(backend="python")(A=A, B=B, C=C, N=10)
        assert np.array_equal(C, 2 * A)


def structure_facts(graph):
    """What the structural caches answer for ``graph``: its topological
    order and, for a state, its scope tree and every entry/exit pairing
    (an error stands for its type and message)."""

    def attempt(query):
        try:
            return query()
        except (KeyError, ValueError, CycleError) as err:
            return type(err).__name__, str(err)

    facts = {"order": attempt(lambda: topological_sort(graph))}
    if isinstance(graph, SDFGState):
        facts["scopes"] = attempt(graph.scope_dict)
        facts["exits"] = [attempt(lambda n=n: graph.exit_node(n)) for n in graph.entry_nodes()]
        facts["entries"] = [
            attempt(lambda n=n: graph.entry_node_of(n))
            for n in graph.nodes() if isinstance(n, ExitNode)
        ]
    return facts


def assert_cached_facts_fresh(sdfg):
    """Every graph of ``sdfg`` (its state machine, its states and those
    of nested SDFGs) answers from its caches what it computes from
    scratch."""
    graphs = [sdfg]
    for state in sdfg.nodes():
        graphs.append(state)
        for node in state.nodes():
            if isinstance(node, NestedSDFG):
                assert_cached_facts_fresh(node.sdfg)
    for graph in graphs:
        cached = structure_facts(graph)
        graph._caches = None
        assert cached == structure_facts(graph), graph


def nested_maps_sdfg():
    """``B = A`` over an outer ``i`` map and an inner ``j`` map."""
    sdfg = SDFG("nested")
    sdfg.add_array("A", ("N", "N"), dtypes.float64)
    sdfg.add_array("B", ("N", "N"), dtypes.float64)
    st = sdfg.add_state()
    ome, omx = st.add_map("outer", {"i": "0:N"})
    ime, imx = st.add_map("inner", {"j": "0:N"})
    t = st.add_tasklet("copy", ["a"], ["b"], "b = a")
    r, w = st.add_read("A"), st.add_write("B")
    st.add_memlet_path(r, ome, ime, t, memlet=Memlet.simple("A", "i, j"), dst_conn="a")
    st.add_memlet_path(t, imx, omx, w, memlet=Memlet.simple("B", "i, j"), src_conn="b")
    return sdfg


class TestStructureCaches:
    """The topological order, scope tree and entry/exit pairing a state
    keeps between structural changes equal a fresh computation."""

    def test_each_mutator_refreshes_the_cached_facts(self):
        sdfg = vadd_sdfg()
        st = sdfg.start_state
        entry = st.entry_nodes()[0]
        extra = st.add_tasklet("extra", [], [], "pass")
        edge = Edge(entry, extra, Memlet())
        steps = [
            lambda: st.add_node(AccessNode("C")),
            lambda: st.add_edge(entry, extra, Memlet(), None, None),
            lambda: st.add_edge_object(Edge(extra, st.data_nodes()[-1], Memlet())),
            lambda: st.remove_edge(st.in_edges(extra)[0]),
            lambda: st.add_edge_object(edge),
            lambda: st.remove_node(extra),
        ]
        seen = []
        for step in steps:
            structure_facts(st)  # cache what the step must invalidate
            step()
            seen.append(st.scope_dict().get(extra, "gone"))
            assert_cached_facts_fresh(sdfg)
        assert seen == [None, entry, entry, None, entry, "gone"]

    def test_map_expansion_and_interchange(self):
        from repro.transformations import MapExpansion, MapInterchange

        sdfg = nested_maps_sdfg()
        st = sdfg.start_state
        structure_facts(st)
        assert sdfg.apply_transformations(MapInterchange) == 1
        assert_cached_facts_fresh(sdfg)
        outer = [e for e in st.entry_nodes() if st.scope_dict()[e] is None]
        assert [e.map.params for e in outer] == [["j"]]

        sdfg = SDFG("square")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        sdfg.add_array("B", ("N", "N"), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "sq", {"i": "0:N", "j": "0:N"}, inputs={"a": Memlet.simple("A", "i, j")},
            code="b = a * a", outputs={"b": Memlet.simple("B", "i, j")},
        )
        structure_facts(st)
        assert sdfg.apply_transformations(MapExpansion) == 1
        assert_cached_facts_fresh(sdfg)
        assert len(st.entry_nodes()) == 2

    def test_reassigning_a_map_is_seen_without_a_structural_change(self):
        sdfg = vadd_sdfg()
        st = sdfg.start_state
        entry = st.entry_nodes()[0]
        exit_ = st.exit_node(entry)
        version = st.version
        exit_.map = Map("other", ["i"], "0:N")
        assert st.version == version
        with pytest.raises(KeyError):
            st.exit_node(entry)
        with pytest.raises(KeyError):
            st.scope_dict()
        entry.map = exit_.map
        assert st.exit_node(entry) is exit_ and st.entry_node_of(exit_) is entry
        assert_cached_facts_fresh(sdfg)

    def test_callers_get_their_own_scope_dict(self):
        sdfg = vadd_sdfg()
        st = sdfg.start_state
        entry = st.entry_nodes()[0]
        sd = st.scope_dict()
        sd.clear()
        sd[entry] = entry
        assert st.scope_dict()[entry] is None
        assert_cached_facts_fresh(sdfg)


class TestViz:
    def test_dot_output(self):
        dot = vadd_sdfg().to_dot()
        assert dot.startswith("digraph")
        assert "cluster_0" in dot

    def test_summary(self):
        s = vadd_sdfg().summary()
        assert "vadd" in s and "state" in s

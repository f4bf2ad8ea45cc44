"""``SDFG.copy``: a structural copy that stands in for a serializer
round trip.

The auto-tuner gives each candidate's guard a copy of the variant's
graph it enumerated matches on, and the guard rolls back by
transplanting a fresh copy of that shared pre-image.  That is sound
only if the copy serializes like the original, shares no mutable part
with it, and is what a parse of the snapshot would build.
"""

import pytest

from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.nodes import ConsumeEntry, NestedSDFG
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.transformations.guard import GuardedOptimizer
from repro.transformations.optimizer import apply_match, enumerate_matches
from repro.tuning import default_pool
from tests.robustness.test_guard_rollback import (
    DanglingAccess,
    ExplodingApply,
    copy_sdfg,
)
from tests.sdfg.test_analysis_reuse import (
    CORPUS,
    MAX_MATCHES,
    _make,
    _nested,
    _propagated_snapshot,
    guarded_graphs,
)


@pytest.mark.parametrize("name", CORPUS)
def test_copy_serializes_like_the_original(name):
    """The program and every child the guard builds from it: the copy's
    snapshot is the original's, byte for byte."""
    for graph in guarded_graphs(name):
        assert sdfg_to_json(graph.copy()) == sdfg_to_json(graph)


def _apply(sdfg, xform, index):
    try:
        return apply_match(sdfg, xform, match_index=index)
    except Exception:  # noqa: BLE001 - a broken rewrite still must not leak
        return None


@pytest.mark.parametrize("name", CORPUS)
def test_transforming_a_copy_leaves_the_original(name):
    """Each pool transformation (up to ``MAX_MATCHES`` sites) applied to
    a copy leaves the original's snapshot as it was.  Applied to a copy
    of a parse (the tuner's candidate graph), it builds what it builds
    on a parse of the snapshot.  (A copy keeps the original's in-edge
    order, which a parse does not, so only a parse's copy is a parse.)"""
    original = _make(name)
    snapshot = _propagated_snapshot(original)
    probe = sdfg_from_json(snapshot)
    for xform in default_pool():
        try:
            n = len(enumerate_matches(sdfg_from_json(snapshot), xform))
        except Exception:  # noqa: BLE001 - the search records these too
            continue
        for index in range(min(n, MAX_MATCHES)):
            site = f"{xform}[{index}]"
            _apply(original.copy(), xform, index)
            assert sdfg_to_json(original) == snapshot, site
            copied, parsed = probe.copy(), sdfg_from_json(snapshot)
            outcome = _apply(copied, xform, index)
            assert outcome == _apply(parsed, xform, index), site
            assert sdfg_to_json(probe) == snapshot, site
            if outcome:
                assert sdfg_to_json(copied) == sdfg_to_json(parsed), site


def test_guards_over_one_pre_image_roll_back_to_it():
    """Two guards share one pre-image, as a variant's candidates do.
    Each is rolled back twice: its graph serializes like the pre-image
    again, the pre-image is unchanged, and no state is shared between
    the three graphs (a rollback transplants a copy, not the
    pre-image)."""
    pre_image = copy_sdfg()
    pre_image.validate()
    pre_image.propagate()
    before = sdfg_to_json(pre_image)
    guards = [
        GuardedOptimizer.from_snapshot(pre_image, pre_image.copy())
        for _ in range(2)
    ]
    for fault in (DanglingAccess, ExplodingApply):
        for guard in guards:
            assert guard.apply(fault) is False
            assert guard.report.attempts[-1].status == "rolled_back"
    for guard in guards:
        assert sdfg_to_json(guard.sdfg) == before
    assert sdfg_to_json(pre_image) == before
    states = [set(map(id, g.nodes())) for g in [pre_image] + [g.sdfg for g in guards]]
    assert sum(map(len, states)) == len(set().union(*states))


def test_nested_sdfg_parents_point_into_the_copy():
    original = _nested()
    copied = original.copy()
    assert sdfg_to_json(copied) == sdfg_to_json(original)
    (state,) = copied.nodes()
    (node,) = [n for n in state.nodes() if isinstance(n, NestedSDFG)]
    (old,) = [n for n in original.nodes()[0].nodes() if isinstance(n, NestedSDFG)]
    inner = node.sdfg
    assert inner is not old.sdfg
    assert inner.parent is state
    assert inner.parent_node is node
    assert node.symbol_mapping == old.symbol_mapping
    assert node.symbol_mapping is not old.symbol_mapping
    assert inner.transformation_history == old.sdfg.transformation_history
    assert inner.transformation_history is not old.sdfg.transformation_history


def _consume_sdfg():
    sdfg = SDFG("drain")
    sdfg.add_array("out", (1,), dtypes.float64)
    sdfg.add_stream("S", dtypes.float64, transient=True)
    st = sdfg.add_state()
    s_node = st.add_access("S")
    ce, cx = st.add_consume("drain", ("p", 2))
    t = st.add_tasklet("acc", ["val"], ["o"], "o = val")
    st.add_edge(s_node, ce, Memlet(data="S", subset="0", dynamic=True), None, "IN_stream")
    st.add_edge(ce, t, Memlet(data="S", subset="0", dynamic=True), "OUT_stream", "val")
    st.add_memlet_path(
        t, cx, st.add_write("out"),
        memlet=Memlet(data="out", subset="0", wcr="sum", dynamic=True),
        src_conn="o",
    )
    return sdfg


@pytest.mark.parametrize("make", [lambda: _make("gemm"), _consume_sdfg])
def test_copied_entry_and_exit_share_one_new_scope_object(make):
    original = make()
    copied = original.copy()
    for old_state, state in zip(original.nodes(), copied.nodes()):
        entries = state.entry_nodes()
        assert len(entries) == len(old_state.entry_nodes()) > 0
        for old_entry, entry in zip(old_state.entry_nodes(), entries):
            attr = "consume" if isinstance(entry, ConsumeEntry) else "map"
            scope = getattr(entry, attr)
            assert getattr(state.exit_node(entry), attr) is scope
            assert scope is not getattr(old_entry, attr)
            if attr == "map":
                assert scope.params == old_entry.map.params
                assert scope.params is not old_entry.map.params


def test_copy_shares_no_mutable_part():
    original = _make("gemm")
    original.propagate()
    copied = original.copy()
    assert copied.arrays.keys() == original.arrays.keys()
    for name, desc in copied.arrays.items():
        assert desc is not original.arrays[name]
    for attr in ("symbols", "constants", "transformation_history"):
        assert getattr(copied, attr) == getattr(original, attr)
        assert getattr(copied, attr) is not getattr(original, attr)
    assert copied.start_state in copied.nodes()
    assert copied.parent is None and copied.parent_node is None
    old_edges = {id(e.data) for e in original.edges()}
    assert not any(id(e.data) in old_edges for e in copied.edges())
    for old_state, state in zip(original.nodes(), copied.nodes()):
        assert state.sdfg is copied
        old_nodes = set(map(id, old_state.nodes()))
        for old, node in zip(old_state.nodes(), state.nodes()):
            assert id(node) not in old_nodes
            assert node.in_connectors == old.in_connectors
            assert node.in_connectors is not old.in_connectors
            assert node.out_connectors is not old.out_connectors
        old_memlets = {id(e.data) for e in old_state.edges()}
        assert not any(id(e.data) in old_memlets for e in state.edges())
        # Every node's in-edges keep their order, not only the out-edges
        # the serializer walks.
        index = {id(e): i for i, e in enumerate(state.edges())}
        old_index = {id(e): i for i, e in enumerate(old_state.edges())}
        for old, node in zip(old_state.nodes(), state.nodes()):
            assert [index[id(e)] for e in state.in_edges(node)] == [
                old_index[id(e)] for e in old_state.in_edges(old)
            ]

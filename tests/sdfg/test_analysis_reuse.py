"""Preconditions of reusing one analysis per tuning candidate.

The auto-tuner analyses each search variant once: the guard propagates
and validates it, its one serialization is its hash input, and a guard
over a copy of it skips the pre-match propagate.  That is sound only if

* propagate is a fixpoint on a copy of a propagated graph,
* hashing a snapshot gives exactly ``content_hash`` of its graph,
* validating with one scope tree per state reports what it always did, and
* validation reads the same from cold and from warm memo tables (the
  bounds verdict, tasklet names and ``Range``/``Subset`` facts it reuses
  across candidates are pure caches).
"""

import difflib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.sdfg import InterstateEdge
from repro.sdfg.serialize import (
    _sorted_edges,
    canonical_form,
    content_hash,
    sdfg_from_json,
    sdfg_to_json,
)
from repro.sdfg.validation import validate_sdfg
from repro.symbolic import clear_caches
from repro.transformations.guard import GuardedOptimizer
from repro.transformations.optimizer import enumerate_matches
from repro.tuning import default_pool
from repro.workloads import kernels, polybench

KERNELS = {
    "matmul": kernels.matmul_sdfg,
    "jacobi2d": kernels.jacobi2d_sdfg,
    "histogram": kernels.histogram_sdfg,
    "query": kernels.query_sdfg,
    "spmv": kernels.spmv_sdfg,
    "gemm_chain": kernels.gemm_chain_sdfg,
}
CORPUS = polybench.all_kernels() + sorted(KERNELS)
#: Match sites tried per transformation and program.
MAX_MATCHES = 3


def _make(name):
    return KERNELS[name]() if name in KERNELS else polybench.get(name).make_sdfg()


def _propagated_snapshot(sdfg):
    sdfg.propagate()
    return sdfg_to_json(sdfg)


def _canonical_text(obj):
    return json.dumps(canonical_form(obj), sort_keys=True, indent=1, default=str)


def _assert_propagate_fixpoint(propagated, what):
    """Propagating a copy of the graph ``propagated`` leaves the
    canonical form as it was; on failure, show where it moved."""
    graph = propagated.copy()
    graph.propagate()
    before = _canonical_text(sdfg_to_json(propagated))
    after = _canonical_text(sdfg_to_json(graph))
    if before != after:
        diff = "\n".join(list(difflib.unified_diff(
            before.splitlines(), after.splitlines(), "snapshot", "propagated",
            lineterm="", n=2,
        ))[:40])
        pytest.fail(f"propagate is not a fixpoint on {what}:\n{diff}")


def test_corpus_has_36_programs():
    assert len(CORPUS) == 36


@pytest.mark.parametrize("name", CORPUS)
def test_propagate_is_a_fixpoint_on_every_guarded_child(name):
    """Every child the search can build from a corpus program (each pool
    transformation, up to ``MAX_MATCHES`` sites) is, once the guard has
    applied and propagated it, unchanged by a copy and a propagate."""
    root = _make(name)
    root.propagate()
    _assert_propagate_fixpoint(root, f"{name} (root)")
    for xform in default_pool():
        try:
            n = len(enumerate_matches(root, xform))
        except Exception:  # noqa: BLE001 - the search records these too
            continue
        for index in range(min(n, MAX_MATCHES)):
            guard = GuardedOptimizer.from_snapshot(root, root.copy())
            if guard.apply(xform, match_index=index):
                _assert_propagate_fixpoint(
                    guard.sdfg, f"{name} + {xform}[{index}]"
                )


def _diagnostics(snapshot):
    return [d.to_json() for d in validate_sdfg(sdfg_from_json(snapshot), collect_all=True)]


def guarded_graphs(name):
    """The propagated corpus program ``name`` and every child the guard
    builds from it (each pool transformation, up to ``MAX_MATCHES``
    sites, kept even when it fails validation), as the live graphs the
    guard left behind."""
    root = _make(name)
    root.propagate()
    graphs = [root]
    for xform in default_pool():
        try:
            n = len(enumerate_matches(root, xform))
        except Exception:  # noqa: BLE001 - the search records these too
            continue
        for index in range(min(n, MAX_MATCHES)):
            guard = GuardedOptimizer.from_snapshot(
                root, root.copy(), validate=False
            )
            if guard.apply(xform, match_index=index):
                graphs.append(guard.sdfg)
    return graphs


@pytest.mark.parametrize("name", CORPUS)
def test_validation_reads_the_same_from_cold_and_warm_memo_tables(name):
    """Every corpus program and every child the guard builds from it
    gets the same diagnostics from cleared tables as from tables the
    whole walk has warmed."""
    graphs = [sdfg_to_json(g) for g in guarded_graphs(name)]
    cold = []
    for snapshot in graphs:
        clear_caches()
        cold.append(_diagnostics(snapshot))
    # A fresh parse shares the memoized subsets: their per-instance
    # caches are warm too.
    warm = [_diagnostics(snapshot) for snapshot in graphs]
    assert warm == cold


@pytest.mark.parametrize("name", CORPUS)
def test_cached_structure_is_fresh_on_every_guarded_child(name):
    """After the guard's apply and propagate, every graph of every
    child answers its topological order, scope tree and entry/exit
    pairing from its caches as a fresh computation does."""
    from tests.sdfg.test_state_and_sdfg import assert_cached_facts_fresh

    for graph in guarded_graphs(name):
        assert_cached_facts_fresh(graph)


#: ``content_hash`` of each corpus program, taken before the canonical
#: edge sort dumped memlets only to break ties; hashes must not move.
#: Six were re-recorded when propagation started summing volumes over
#: a scope's range (correlation, covariance, syrk, syr2k) and query and
#: the gemm chain started ending propagated.
CORPUS_HASHES = json.loads(
    (Path(__file__).parent / "corpus_content_hashes.json").read_text()
)


@pytest.mark.parametrize("name", CORPUS)
def test_content_hash_is_pinned(name):
    assert content_hash(_make(name)) == CORPUS_HASHES[name]


@pytest.mark.parametrize("name", CORPUS)
def test_every_builder_ends_at_the_propagate_fixpoint(name):
    """A fresh graph hashes as the tuner's propagated copy of it does,
    so an empty search history replays to the graph it scored."""
    sdfg = _make(name)
    before = content_hash(sdfg)
    sdfg.propagate()
    assert content_hash(sdfg) == before


def _one_sort_edge_key(e):
    """The canonical edge order as one sort on the whole key."""
    return (
        e["src"], e["dst"], e["src_conn"] or "", e["dst_conn"] or "",
        json.dumps(e["memlet"], sort_keys=True),
    )


_edge_dicts = st.builds(
    lambda src, dst, sc, dc, data, subset, n: {
        "src": src, "dst": dst, "src_conn": sc, "dst_conn": dc,
        "memlet": {"data": data, "subset": subset, "volume": str(n)},
    },
    st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([None, "", "IN_1", "a"]), st.sampled_from([None, "OUT_1", "b"]),
    st.sampled_from([None, "A", "B"]), st.sampled_from(["i", "0:N", None]),
    st.integers(0, 2),
)


@given(st.lists(_edge_dicts, max_size=14))
@settings(max_examples=300, deadline=None)
def test_canonical_edge_sort_is_the_one_sort_order(edges):
    """Dumping memlets only inside runs of equal endpoints and
    connectors gives the order of one sort on the whole key, parallel
    edges with equal connectors and different memlets included."""
    got = _sorted_edges(edges)
    want = sorted(edges, key=_one_sort_edge_key)
    assert [id(e) for e in got] == [id(e) for e in want]


class TestSnapshotHash:
    @pytest.mark.parametrize("name", CORPUS)
    def test_equals_content_hash_on_the_corpus(self, name):
        sdfg = _make(name)
        assert content_hash(sdfg_from_json(sdfg_to_json(sdfg))) == content_hash(sdfg)

    def test_ignores_transformation_history(self):
        sdfg = kernels.matmul_sdfg()
        guard = GuardedOptimizer(sdfg)
        assert guard.apply("MapReduceFusion")
        assert sdfg.transformation_history == ["MapReduceFusion"]
        snapshot = sdfg_to_json(sdfg)
        assert snapshot["transformation_history"] == ["MapReduceFusion"]
        assert content_hash(sdfg_from_json(snapshot)) == content_hash(sdfg)
        sdfg.transformation_history.clear()
        assert content_hash(sdfg) == content_hash(sdfg_from_json(snapshot))

    def test_nested_sdfg(self):
        sdfg = _nested()
        snapshot = sdfg_to_json(sdfg)
        assert content_hash(sdfg_from_json(snapshot)) == content_hash(sdfg) == NESTED_HASH
        # The nested graph is canonicalized too: its history is dropped
        # and its edges are sorted, wherever they were inserted.
        inner = canonical_form(snapshot)["states"][0]["nodes"][2]["sdfg"]
        assert "transformation_history" not in inner
        edges = inner["states"][0]["edges"]
        keys = [(e["src"], e["dst"], e["src_conn"], e["dst_conn"]) for e in edges]
        assert keys == sorted(keys)
        reordered = _nested(reverse_inner_edges=True)
        assert sdfg_to_json(reordered) != snapshot
        assert content_hash(reordered) == NESTED_HASH

    def test_canonical_flag_is_the_canonical_form(self):
        sdfg = _nested()
        assert sdfg_to_json(sdfg, canonical=True) == canonical_form(sdfg_to_json(sdfg))

    def test_canonical_form_does_not_modify_the_snapshot(self):
        snapshot = sdfg_to_json(_nested(reverse_inner_edges=True))
        before = json.dumps(snapshot, sort_keys=True)
        canonical_form(snapshot)
        assert json.dumps(snapshot, sort_keys=True) == before


#: ``content_hash(_nested())`` as computed before the canonical form was
#: derived from the plain snapshot; hashes must not move.
NESTED_HASH = "817453f223a09e4ce9c9ed7d5916afb0c82766750518f019bce03e66eacc6424"


def _nested(reverse_inner_edges=False):
    """``B = A * 2 + A`` through a nested SDFG with a non-empty history,
    its dataflow edges inserted in either order (the map entry feeds the
    tasklet over two edges, so the order shows in the plain snapshot)."""
    inner = SDFG("inner")
    inner.add_array("x", ("M",), dtypes.float64)
    inner.add_array("y", ("M",), dtypes.float64)
    ist = inner.add_state("body")
    ist.add_mapped_tasklet(
        "affine",
        {"i": "0:M"},
        inputs={"a": Memlet.simple("x", "i"), "c": Memlet.simple("x", "i")},
        code="b = a * 2 + c",
        outputs={"b": Memlet.simple("y", "i")},
    )
    if reverse_inner_edges:
        edges = list(ist.edges())
        for e in edges:
            ist.remove_edge(e)
        for e in reversed(edges):
            ist.add_edge(e.src, e.dst, e.data, e.src_conn, e.dst_conn)
    inner.transformation_history.append("MapExpansion")
    outer = SDFG("outer")
    outer.add_array("A", ("N",), dtypes.float64)
    outer.add_array("B", ("N",), dtypes.float64)
    st = outer.add_state("main")
    a, b = st.add_read("A"), st.add_write("B")
    node = st.add_nested_sdfg(inner, ["x"], ["y"], symbol_mapping={"M": "N"})
    st.add_edge(a, node, Memlet.simple("A", "0:N"), None, "x")
    st.add_edge(node, b, Memlet.simple("B", "0:N"), "y", None)
    outer.transformation_history.append("InlineSDFG")
    return outer


def test_one_scope_tree_per_state_keeps_the_diagnostics():
    """A state whose scopes are inconsistent reports V102 once and no
    V202 (its tasklets' visible names are unknowable), in the same order
    as before the scope tree was shared; other states still get V202."""
    sdfg = SDFG("bad_scopes")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    s0 = sdfg.add_state("s0")
    _, e1, _ = s0.add_mapped_tasklet(
        "m1", {"i": "0:N"}, inputs={"a": Memlet.simple("A", "i")},
        code="b = a + undeclared", outputs={"b": Memlet.simple("B", "i")},
    )
    _, e2, _ = s0.add_mapped_tasklet(
        "m2", {"j": "0:N"}, inputs={"a": Memlet.simple("A", "j")},
        code="b = a", outputs={"b": Memlet.simple("B", "j")},
    )
    # Fed from inside both maps: the tasklet belongs to neither scope.
    both = s0.add_tasklet("both", ["p", "q"], [], "r = p + q + also_undeclared")
    s0.add_edge(e1, both, Memlet(), None, "p")
    s0.add_edge(e2, both, Memlet(), None, "q")
    s1 = sdfg.add_state("s1")
    sdfg.add_edge(s0, s1, InterstateEdge())
    s1.add_mapped_tasklet(
        "m3", {"k": "0:N"}, inputs={"a": Memlet.simple("A", "k")},
        code="b = a * ghost", outputs={"b": Memlet.simple("B", "k")},
    )
    diags = validate_sdfg(sdfg, collect_all=True)
    assert [(d.code, d.severity.name, d.state, d.node) for d in diags] == [
        ("V102", "ERROR", "s0", None),
        ("V202", "ERROR", "s1", "Tasklet(m3)"),
    ]
    assert diags[0].message.startswith(
        "malformed scopes: node Tasklet(both) has inconsistent scopes: "
    )
    assert diags[1].message == (
        "tasklet accesses name 'ghost' without a memlet "
        "(undeclared symbol or external memory)"
    )

"""Tests for the VF2-style subgraph matcher."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import OrderedMultiDiGraph, subgraph_monomorphisms
from repro.graph.matching import _connectivity_order, _reverse_lookup
from repro.transformations.base import REGISTRY, MultiStateTransformation
from repro.tuning import default_pool
from tests.sdfg.test_analysis_reuse import CORPUS, guarded_graphs


class L:
    """Labeled node."""

    def __init__(self, kind):
        self.kind = kind

    def __repr__(self):
        return f"L({self.kind})"


def kind_match(pn, hn):
    return pn.kind == hn.kind


class TestBasicMatching:
    def test_single_edge_pattern(self):
        host = OrderedMultiDiGraph()
        a, b, c = L("map"), L("tasklet"), L("data")
        host.add_edge(a, b, None)
        host.add_edge(b, c, None)

        pat = OrderedMultiDiGraph()
        pm, pt = L("map"), L("tasklet")
        pat.add_edge(pm, pt, None)

        matches = list(subgraph_monomorphisms(pat, host, node_match=kind_match))
        assert len(matches) == 1
        assert matches[0][pm] is a
        assert matches[0][pt] is b

    def test_no_match(self):
        host = OrderedMultiDiGraph()
        host.add_edge(L("a"), L("b"), None)
        pat = OrderedMultiDiGraph()
        pat.add_edge(L("x"), L("y"), None)
        assert list(subgraph_monomorphisms(pat, host, node_match=kind_match)) == []

    def test_path_pattern_in_chain(self):
        host = OrderedMultiDiGraph()
        ns = [L("n") for _ in range(5)]
        for i in range(4):
            host.add_edge(ns[i], ns[i + 1], None)
        pat = OrderedMultiDiGraph()
        p = [L("n") for _ in range(3)]
        pat.add_edge(p[0], p[1], None)
        pat.add_edge(p[1], p[2], None)
        matches = list(subgraph_monomorphisms(pat, host, node_match=kind_match))
        assert len(matches) == 3  # three consecutive windows

    def test_edge_match_callback(self):
        host = OrderedMultiDiGraph()
        a, b = L("n"), L("n")
        host.add_edge(a, b, "good")
        host.add_edge(a, b, "bad")
        pat = OrderedMultiDiGraph()
        pa, pb = L("n"), L("n")
        pat.add_edge(pa, pb, "good")
        matches = list(
            subgraph_monomorphisms(
                pat, host, node_match=kind_match, edge_match=lambda p, h: p == h
            )
        )
        assert len(matches) == 1

    def test_monomorphism_ignores_extra_host_edges(self):
        host = OrderedMultiDiGraph()
        a, b = L("n"), L("n")
        host.add_edge(a, b, None)
        host.add_edge(b, a, None)  # extra back edge
        pat = OrderedMultiDiGraph()
        pa, pb = L("n"), L("n")
        pat.add_edge(pa, pb, None)
        matches = list(subgraph_monomorphisms(pat, host, node_match=kind_match))
        assert len(matches) == 2  # both directions match the single-edge pattern

    def test_induced_rejects_extra_edges(self):
        host = OrderedMultiDiGraph()
        a, b = L("n"), L("n")
        host.add_edge(a, b, None)
        host.add_edge(b, a, None)
        pat = OrderedMultiDiGraph()
        pa, pb = L("n"), L("n")
        pat.add_edge(pa, pb, None)
        matches = list(
            subgraph_monomorphisms(pat, host, node_match=kind_match, induced=True)
        )
        assert matches == []

    def test_injective(self):
        # A two-node pattern must not map both nodes to the same host node.
        host = OrderedMultiDiGraph()
        a = L("n")
        host.add_edge(a, a, None)  # self-loop
        pat = OrderedMultiDiGraph()
        pa, pb = L("n"), L("n")
        pat.add_edge(pa, pb, None)
        assert list(subgraph_monomorphisms(pat, host, node_match=kind_match)) == []

    def test_disconnected_pattern(self):
        host = OrderedMultiDiGraph()
        a, b = L("x"), L("y")
        host.add_node(a)
        host.add_node(b)
        pat = OrderedMultiDiGraph()
        pat.add_node(L("x"))
        pat.add_node(L("y"))
        matches = list(subgraph_monomorphisms(pat, host, node_match=kind_match))
        assert len(matches) == 1


def _random_graph(data, n_min, n_max, max_edges):
    """Node labels from "ab" and distinct edges between distinct nodes,
    in either direction; the graph may be disconnected."""
    n = data.draw(st.integers(n_min, n_max))
    labels = [data.draw(st.sampled_from("ab")) for _ in range(n)]
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ab: ab[0] != ab[1]
            ),
            max_size=max_edges,
            unique=True,
        )
    )
    ours = OrderedMultiDiGraph()
    nodes = [L(label) for label in labels]
    for node in nodes:
        ours.add_node(node)
    theirs = nx.DiGraph()
    for i, label in enumerate(labels):
        theirs.add_node(i, kind=label)
    for a, b in edges:
        ours.add_edge(nodes[a], nodes[b], None)
        theirs.add_edge(a, b)
    return ours, nodes, theirs


class TestAgainstNetworkX:
    """Differential test: our matcher must find exactly the matches of
    networkx's DiGraphMatcher (monomorphisms, or induced subgraph
    isomorphisms) for random labeled 2-4-node patterns."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_networkx(self, data):
        host, hnodes, nx_host = _random_graph(data, 3, 7, 14)
        pat, pnodes, nx_pat = _random_graph(data, 2, 4, 6)
        induced = data.draw(st.booleans())

        hindex = {id(n): i for i, n in enumerate(hnodes)}
        ours = {
            frozenset((pnodes.index(p), hindex[id(h)]) for p, h in m.items())
            for m in subgraph_monomorphisms(
                pat, host, node_match=kind_match, induced=induced
            )
        }
        gm = nx.algorithms.isomorphism.DiGraphMatcher(
            nx_host, nx_pat, node_match=lambda a, b: a["kind"] == b["kind"]
        )
        found = gm.subgraph_isomorphisms_iter() if induced else gm.subgraph_monomorphisms_iter()
        theirs = {frozenset((p, h) for h, p in m.items()) for m in found}
        assert ours == theirs


def _all_host_nodes_monomorphisms(pattern, host, node_match, induced=False):
    """The matcher before candidate pairs: every pattern node tries every
    host node, in host insertion order.  The oracle for the order in
    which the anchored matcher yields its matches."""
    pnodes = [pn for pn, _ in _connectivity_order(pattern)]
    if not pnodes:
        return
    hnodes = host.nodes()
    mapping, used = {}, set()

    def edges_ok(pn, hn):
        for pe in pattern.out_edges(pn):
            if id(pe.dst) in mapping and not host.edges_between(hn, mapping[id(pe.dst)]):
                return False
        for pe in pattern.in_edges(pn):
            if id(pe.src) in mapping and not host.edges_between(mapping[id(pe.src)], hn):
                return False
        if induced:
            for hother in list(mapping.values()):
                pother = _reverse_lookup(mapping, pattern, hother)
                if host.edges_between(hn, hother) and not pattern.edges_between(pn, pother):
                    return False
                if host.edges_between(hother, hn) and not pattern.edges_between(pother, pn):
                    return False
        return True

    def backtrack(depth):
        if depth == len(pnodes):
            yield {pn: mapping[id(pn)] for pn in pnodes}
            return
        pn = pnodes[depth]
        for hn in hnodes:
            if (
                id(hn) in used
                or host.in_degree(hn) < pattern.in_degree(pn)
                or host.out_degree(hn) < pattern.out_degree(pn)
                or not node_match(pn, hn)
                or not edges_ok(pn, hn)
            ):
                continue
            mapping[id(pn)] = hn
            used.add(id(hn))
            yield from backtrack(depth + 1)
            del mapping[id(pn)]
            used.discard(id(hn))

    yield from backtrack(0)


def _ordered(matches):
    return [tuple((id(p), id(h)) for p, h in m.items()) for m in matches]


class TestAnchoredOrder:
    """Candidate pairs prune, they do not reorder: the anchored matcher
    yields exactly the old enumerator's list."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, data):
        host, _, _ = _random_graph(data, 3, 7, 14)
        pat, _, _ = _random_graph(data, 1, 4, 6)
        induced = data.draw(st.booleans())
        assert _ordered(
            subgraph_monomorphisms(pat, host, node_match=kind_match, induced=induced)
        ) == _ordered(_all_host_nodes_monomorphisms(pat, host, kind_match, induced))

    @pytest.mark.parametrize("name", CORPUS)
    def test_pool_patterns_on_the_corpus_and_its_guarded_children(self, name):
        def node_match(pn, hn):
            return pn.matches(hn)

        for sdfg in guarded_graphs(name):
            for xform in default_pool():
                cls = REGISTRY[xform]
                hosts = [sdfg] if issubclass(cls, MultiStateTransformation) else sdfg.nodes()
                for pattern in cls.patterns():
                    for host in hosts:
                        assert _ordered(
                            subgraph_monomorphisms(pattern, host, node_match=node_match)
                        ) == _ordered(
                            _all_host_nodes_monomorphisms(pattern, host, node_match)
                        ), (name, xform, host)


def test_each_class_builds_its_patterns_and_plans_once():
    """``Transformation.patterns`` builds ``expressions()`` once per
    class (a subclass builds its own), and the matcher plans each
    pattern once, keeping the plan on it."""
    from repro.workloads import kernels

    cls = REGISTRY["MapCollapse"]
    sub = type("MapCollapseAgain", (cls,), {})
    first = cls.patterns()
    assert cls.patterns() is first
    assert sub.patterns() is not first and sub.patterns() is sub.patterns()
    state = kernels.matmul_sdfg().start_state
    list(subgraph_monomorphisms(first[0], state, node_match=lambda pn, hn: pn.matches(hn)))
    plan = first[0].cached("vf2_plan", lambda: pytest.fail("the plan was not kept"))
    assert [step[0] for step in plan] == [pn for pn, _ in _connectivity_order(first[0])]

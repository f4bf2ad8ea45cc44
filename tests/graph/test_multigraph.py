"""Unit tests for the ordered multigraph."""

import copy
import pickle

import pytest

from repro.graph import CycleError, Edge, GraphError, OrderedMultiDiGraph, topological_sort


class Node:
    """Opaque hashable node for testing."""

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return f"Node({self.label})"


@pytest.fixture
def diamond():
    g = OrderedMultiDiGraph()
    a, b, c, d = (Node(x) for x in "abcd")
    g.add_edge(a, b, "ab")
    g.add_edge(a, c, "ac")
    g.add_edge(b, d, "bd")
    g.add_edge(c, d, "cd")
    return g, (a, b, c, d)


class TestBasics:
    def test_add_node_idempotent(self):
        g = OrderedMultiDiGraph()
        n = Node("x")
        g.add_node(n)
        g.add_node(n)
        assert g.number_of_nodes() == 1

    def test_insertion_order_preserved(self):
        g = OrderedMultiDiGraph()
        ns = [Node(i) for i in range(10)]
        for n in reversed(ns):
            g.add_node(n)
        assert g.nodes() == list(reversed(ns))

    def test_add_edge_adds_nodes(self, diamond):
        g, (a, b, c, d) = diamond
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4

    def test_parallel_edges(self):
        g = OrderedMultiDiGraph()
        a, b = Node("a"), Node("b")
        e1 = g.add_edge(a, b, "first")
        e2 = g.add_edge(a, b, "second")
        assert g.number_of_edges() == 2
        assert g.edges_between(a, b) == [e1, e2]

    def test_connectors(self):
        g = OrderedMultiDiGraph()
        a, b = Node("a"), Node("b")
        e = g.add_edge(a, b, None, src_conn="OUT_1", dst_conn="IN_1")
        assert e.src_conn == "OUT_1"
        assert e.dst_conn == "IN_1"
        r = e.reversed()
        assert r.src is b and r.dst_conn == "OUT_1"

    def test_degrees(self, diamond):
        g, (a, b, c, d) = diamond
        assert g.out_degree(a) == 2
        assert g.in_degree(d) == 2
        assert g.in_degree(a) == 0

    def test_successors_dedup(self):
        g = OrderedMultiDiGraph()
        a, b = Node("a"), Node("b")
        g.add_edge(a, b, 1)
        g.add_edge(a, b, 2)
        assert g.successors(a) == [b]

    def test_sources_sinks(self, diamond):
        g, (a, b, c, d) = diamond
        assert g.source_nodes() == [a]
        assert g.sink_nodes() == [d]


class TestRemoval:
    def test_remove_edge(self, diamond):
        g, (a, b, c, d) = diamond
        e = g.edges_between(a, b)[0]
        g.remove_edge(e)
        assert g.number_of_edges() == 3
        assert g.edges_between(a, b) == []

    def test_remove_edge_twice_raises(self, diamond):
        g, (a, b, c, d) = diamond
        e = g.edges_between(a, b)[0]
        g.remove_edge(e)
        with pytest.raises(GraphError):
            g.remove_edge(e)

    def test_remove_node_removes_incident_edges(self, diamond):
        g, (a, b, c, d) = diamond
        g.remove_node(b)
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2

    def test_remove_missing_node_raises(self):
        g = OrderedMultiDiGraph()
        with pytest.raises(GraphError):
            g.remove_node(Node("ghost"))


class TestQueries:
    def test_all_edges_dedup(self, diamond):
        g, (a, b, c, d) = diamond
        assert len(g.all_edges(b)) == 2
        assert len(g.all_edges(a, b)) == 3  # ab shared between both

    def test_copy_structure_is_independent(self, diamond):
        g, (a, b, c, d) = diamond
        h = g.copy_structure()
        h.remove_node(b)
        assert g.number_of_nodes() == 4
        assert h.number_of_nodes() == 3

    def test_contains_len_iter(self, diamond):
        g, (a, b, c, d) = diamond
        assert a in g
        assert len(g) == 4
        assert list(g) == [a, b, c, d]

    def test_out_edges_of_missing_node(self):
        g = OrderedMultiDiGraph()
        with pytest.raises(GraphError):
            g.out_edges(Node("ghost"))


def _fresh_order(g):
    """``topological_sort(g)`` computed from scratch."""
    g._caches = None
    return topological_sort(g)


class TestStructureVersion:
    def test_each_mutator_bumps_the_version_and_refreshes_the_order(self, diamond):
        g, (a, b, c, d) = diamond
        e = Node("e")
        steps = [
            lambda: g.add_node(e),
            lambda: g.add_edge(e, a, "ea"),
            lambda: g.add_edge_object(Edge(e, c, "ec")),
            lambda: g.remove_edge(g.edges_between(a, b)[0]),
            lambda: g.remove_node(a),
        ]
        orders = []
        for step in steps:
            topological_sort(g)  # cache the order the step must invalidate
            before = g.version
            step()
            assert g.version > before
            order = topological_sort(g)
            assert order == _fresh_order(g)
            orders.append([n.label for n in order])
        assert orders == [
            list("aebcd"), list("eabcd"), list("eabcd"), list("beacd"), list("becd"),
        ]

    def test_adding_a_present_node_keeps_the_version(self, diamond):
        g, (a, _, _, _) = diamond
        before = g.version
        g.add_node(a)
        assert g.version == before

    def test_callers_get_their_own_list(self, diamond):
        g, _ = diamond
        order = topological_sort(g)
        order.reverse()
        order.append(Node("stray"))
        assert [n.label for n in topological_sort(g)] == list("abcd")

    def test_a_cycle_is_reported_every_time(self, diamond):
        g, (a, _, _, d) = diamond
        back = g.add_edge(d, a, "da")
        for _ in range(2):
            with pytest.raises(CycleError):
                topological_sort(g)
        g.remove_edge(back)
        assert [n.label for n in topological_sort(g)] == list("abcd")

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
    def test_copies_start_without_cached_facts(self, diamond, clone):
        g, _ = diamond
        topological_sort(g)
        assert g._caches
        other = clone(g)
        assert not other._caches and other.version == g.version
        assert [n.label for n in topological_sort(other)] == list("abcd")
        assert g._caches

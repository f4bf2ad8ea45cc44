"""Graph algorithms over :class:`OrderedMultiDiGraph`.

All algorithms are deterministic: ties are broken by node insertion
order, never by hash order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, TypeVar

from repro.graph.multigraph import GraphError, OrderedMultiDiGraph

NodeT = TypeVar("NodeT", bound=Hashable)


class CycleError(GraphError):
    """Raised when an acyclic-only algorithm encounters a cycle."""


def dfs_preorder(
    graph: OrderedMultiDiGraph, sources: Optional[Iterable] = None
) -> List:
    """Depth-first preorder from ``sources`` (default: all source nodes)."""
    if sources is None:
        sources = graph.source_nodes() or graph.nodes()[:1]
    visited: Set[int] = set()
    order: List = []
    stack: List = list(sources)[::-1]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        order.append(node)
        # Reverse so that the first successor is visited first.
        stack.extend(reversed(graph.successors(node)))
    return order


def bfs_order(graph: OrderedMultiDiGraph, sources: Optional[Iterable] = None) -> List:
    """Breadth-first order from ``sources`` (default: all source nodes)."""
    if sources is None:
        sources = graph.source_nodes() or graph.nodes()[:1]
    visited: Set[int] = set()
    order: List = []
    queue: List = list(sources)
    for n in queue:
        visited.add(id(n))
    while queue:
        node = queue.pop(0)
        order.append(node)
        for succ in graph.successors(node):
            if id(succ) not in visited:
                visited.add(id(succ))
                queue.append(succ)
    return order


def topological_sort(graph: OrderedMultiDiGraph) -> List:
    """Kahn's algorithm; raises :class:`CycleError` on cycles.

    Among ready nodes, earlier-inserted nodes come first, which makes
    generated code stable across runs.  The order is kept on the graph
    until its structure changes; each call returns a fresh list.
    """
    return list(graph.cached("topological_sort", lambda: _kahn(graph)))


def _kahn(graph: OrderedMultiDiGraph) -> List:
    out, in_ = graph._out, graph._in
    indeg: Dict[int, int] = {id(n): len(in_[n]) for n in graph._nodes}
    # The order doubles as the FIFO queue of ready nodes.
    order: List = [n for n in graph._nodes if not in_[n]]
    for node in order:
        for e in out[node]:
            key = id(e.dst)
            indeg[key] -= 1
            if not indeg[key]:
                order.append(e.dst)
    if len(order) != graph.number_of_nodes():
        raise CycleError("graph contains a cycle; no topological order exists")
    return order


def weakly_connected_components(graph: OrderedMultiDiGraph) -> List[List]:
    """Weakly connected components in first-seen order.

    Distinct components of an SDFG state execute concurrently (§3.3); the
    code generators rely on this decomposition.
    """
    visited: Set[int] = set()
    components: List[List] = []
    for start in graph.nodes():
        if id(start) in visited:
            continue
        comp: List = []
        stack = [start]
        visited.add(id(start))
        while stack:
            node = stack.pop()
            comp.append(node)
            for other in graph.successors(node) + graph.predecessors(node):
                if id(other) not in visited:
                    visited.add(id(other))
                    stack.append(other)
        components.append(comp)
    return components


def dominators(graph: OrderedMultiDiGraph, entry) -> Dict:
    """Immediate-dominator-free full dominator sets (iterative data-flow).

    Returns a dict mapping each reachable node to the set of its
    dominators (including itself).  Simple O(N^2) iteration — state
    graphs are small.
    """
    nodes = [n for n in dfs_preorder(graph, [entry])]
    idx = {id(n): i for i, n in enumerate(nodes)}
    all_set = set(range(len(nodes)))
    dom: List[Set[int]] = [all_set.copy() for _ in nodes]
    dom[0] = {0}
    changed = True
    while changed:
        changed = False
        for i, n in enumerate(nodes):
            if i == 0:
                continue
            preds = [idx[id(p)] for p in graph.predecessors(n) if id(p) in idx]
            new = all_set.copy()
            for p in preds:
                new &= dom[p]
            new |= {i}
            if new != dom[i]:
                dom[i] = new
                changed = True
    return {n: {nodes[d] for d in dom[i]} for i, n in enumerate(nodes)}


def postdominators(graph: OrderedMultiDiGraph, exit_node) -> Dict:
    """Post-dominator sets, computed as dominators on the reversed graph."""
    rev = OrderedMultiDiGraph()
    for n in graph.nodes():
        rev.add_node(n)
    for e in graph.edges():
        rev.add_edge(e.dst, e.src, e.data)
    return dominators(rev, exit_node)

"""VF2-style subgraph matching for transformation pattern detection.

The paper (§4.1) locates transformation patterns with the VF2 subgraph
isomorphism algorithm [Cordella et al. 2004].  This module implements the
same state-space search: pattern nodes are matched one at a time in a
connectivity-driven order, and each node after the first of its
component draws its candidates from the host neighbours of an
already-matched pattern neighbour (VF2's candidate pairs), pruning those
that violate adjacency of already-matched pairs.  The order (the match
plan, with each pattern node's degrees and neighbours) depends on the
pattern alone and is kept on it (``OrderedMultiDiGraph.cached``), so a
pattern built once is planned once.

By default we search for *monomorphisms* (the host may have extra edges
around the matched nodes) because transformation patterns describe the
required structure, and ``can_be_applied`` checks impose the remaining
restrictions — mirroring how DaCe transformations are written
(Appendix D).  ``induced=True`` requests exact induced subgraphs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple, TypeVar

from repro.graph.multigraph import OrderedMultiDiGraph

NodeT = TypeVar("NodeT", bound=Hashable)

NodeMatchFn = Callable[[object, object], bool]
EdgeMatchFn = Callable[[object, object], bool]


def _default_match(a: object, b: object) -> bool:
    return True


def subgraph_monomorphisms(
    pattern: OrderedMultiDiGraph,
    host: OrderedMultiDiGraph,
    node_match: Optional[NodeMatchFn] = None,
    edge_match: Optional[EdgeMatchFn] = None,
    induced: bool = False,
) -> Iterator[Dict]:
    """Yield mappings {pattern node -> host node}, deterministically ordered.

    ``node_match(pattern_node, host_node)`` and
    ``edge_match(pattern_edge_data, host_edge_data)`` restrict candidate
    pairs; both default to always-true.
    """
    node_match = node_match or _default_match
    edge_match = edge_match or _default_match

    plan = pattern.cached("vf2_plan", lambda: _match_plan(pattern))
    if not plan:
        return
    pnodes = [step[0] for step in plan]
    hnodes = host.nodes()

    def index_hosts() -> Dict:
        return {hn: i for i, hn in enumerate(hnodes)}

    mapping: Dict[int, object] = {}  # id(pattern node) -> host node
    used: set = set()  # id(host node)

    def edges_ok(pn, hn, outs, ins) -> bool:
        """Check adjacency constraints between (pn, hn) and mapped pairs."""
        for pdst, pdata in outs:
            hdst = mapping.get(id(pdst))
            if hdst is not None:
                cands = host.edges_between(hn, hdst)
                if not any(edge_match(pdata, he.data) for he in cands):
                    return False
        for psrc, pdata in ins:
            hsrc = mapping.get(id(psrc))
            if hsrc is not None:
                cands = host.edges_between(hsrc, hn)
                if not any(edge_match(pdata, he.data) for he in cands):
                    return False
        if induced:
            # No host edges may exist between matched nodes unless the
            # pattern has a corresponding edge.
            for hother in list(mapping.values()):
                pother = _reverse_lookup(mapping, pattern, hother)
                if host.edges_between(hn, hother) and not pattern.edges_between(
                    pn, pother
                ):
                    return False
                if host.edges_between(hother, hn) and not pattern.edges_between(
                    pother, pn
                ):
                    return False
        return True

    def candidates(anchor) -> List:
        """Host nodes a pattern node may map to, in host insertion
        order: every host node for the first node of a component, else
        the host neighbours of its anchor's image on the anchor's side."""
        if anchor is None:
            return hnodes
        pm, is_successor = anchor
        hm = mapping[id(pm)]
        near = host.successors(hm) if is_successor else host.predecessors(hm)
        if len(near) > 1:
            near.sort(key=host.cached("node_index", index_hosts).__getitem__)
        return near

    def backtrack(depth: int) -> Iterator[Dict]:
        if depth == len(plan):
            yield {pn: mapping[id(pn)] for pn in pnodes}
            return
        pn, anchor, in_degree, out_degree, outs, ins = plan[depth]
        for hn in candidates(anchor):
            if id(hn) in used:
                continue
            if not node_match(pn, hn):
                continue
            if host.in_degree(hn) < in_degree or host.out_degree(hn) < out_degree:
                continue
            if not edges_ok(pn, hn, outs, ins):
                continue
            mapping[id(pn)] = hn
            used.add(id(hn))
            yield from backtrack(depth + 1)
            del mapping[id(pn)]
            used.discard(id(hn))

    yield from backtrack(0)


def _match_plan(pattern: OrderedMultiDiGraph) -> List[Tuple]:
    """The match plan: per pattern node in :func:`_connectivity_order`,
    ``(node, anchor, in-degree, out-degree, out-neighbours, in-neighbours)``
    with each neighbour as ``(pattern node, edge data)``."""
    return [
        (
            pn,
            anchor,
            pattern.in_degree(pn),
            pattern.out_degree(pn),
            tuple((pe.dst, pe.data) for pe in pattern.out_edges(pn)),
            tuple((pe.src, pe.data) for pe in pattern.in_edges(pn)),
        )
        for pn, anchor in _connectivity_order(pattern)
    ]


def _connectivity_order(pattern: OrderedMultiDiGraph) -> List[Tuple]:
    """Order pattern nodes so each (after the first of its component) is
    adjacent to an earlier one — the key VF2 pruning enabler.

    Each node comes with its anchor: ``(neighbour, is_successor)`` for
    the earliest-placed neighbour and whether the node is its successor,
    or None for the first node of a component."""
    remaining = {id(n): n for n in pattern.nodes()}
    order: List[Tuple] = []
    while remaining:
        # Start a new component at the first remaining node.
        frontier = [(next(iter(remaining.values())), None)]
        while frontier:
            n, anchor = frontier.pop(0)
            if id(n) not in remaining:
                continue
            del remaining[id(n)]
            order.append((n, anchor))
            for other in pattern.successors(n):
                if id(other) in remaining:
                    frontier.append((other, (n, True)))
            for other in pattern.predecessors(n):
                if id(other) in remaining:
                    frontier.append((other, (n, False)))
    return order


def _reverse_lookup(mapping: Dict[int, object], pattern: OrderedMultiDiGraph, hnode):
    for pn in pattern.nodes():
        if id(pn) in mapping and mapping[id(pn)] is hnode:
            return pn
    raise KeyError(hnode)

"""VF2-style subgraph matching for transformation pattern detection.

The paper (§4.1) locates transformation patterns with the VF2 subgraph
isomorphism algorithm [Cordella et al. 2004].  This module implements the
same state-space search: pattern nodes are matched one at a time in a
connectivity-driven order, and each node after the first of its
component draws its candidates from the host neighbours of an
already-matched pattern neighbour (VF2's candidate pairs), pruning those
that violate adjacency of already-matched pairs.

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

    plan = _connectivity_order(pattern)
    if not plan:
        return
    pnodes = [pn for pn, _ in plan]
    anchors = [anchor for _, anchor in plan]
    hnodes = host.nodes()

    def index_hosts() -> Dict:
        return {hn: i for i, hn in enumerate(hnodes)}

    mapping: Dict[int, object] = {}  # id(pattern node) -> host node
    used: set = set()  # id(host node)

    def edges_ok(pn, hn) -> bool:
        """Check adjacency constraints between (pn, hn) and mapped pairs."""
        for pe in pattern.out_edges(pn):
            if id(pe.dst) in mapping:
                hdst = mapping[id(pe.dst)]
                cands = host.edges_between(hn, hdst)
                if not any(edge_match(pe.data, he.data) for he in cands):
                    return False
        for pe in pattern.in_edges(pn):
            if id(pe.src) in mapping:
                hsrc = mapping[id(pe.src)]
                cands = host.edges_between(hsrc, hn)
                if not any(edge_match(pe.data, he.data) for he in cands):
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

    def degrees_ok(pn, hn) -> bool:
        return host.in_degree(hn) >= pattern.in_degree(pn) and host.out_degree(
            hn
        ) >= pattern.out_degree(pn)

    def candidates(depth: int) -> List:
        """Host nodes ``pnodes[depth]`` may map to, in host insertion
        order: every host node for the first node of a component, else
        the host neighbours of its anchor's image on the anchor's side."""
        anchor = anchors[depth]
        if anchor is None:
            return hnodes
        pm, is_successor = anchor
        hm = mapping[id(pm)]
        near = host.successors(hm) if is_successor else host.predecessors(hm)
        if len(near) > 1:
            near.sort(key=host.cached("node_index", index_hosts).__getitem__)
        return near

    def backtrack(depth: int) -> Iterator[Dict]:
        if depth == len(pnodes):
            yield {pn: mapping[id(pn)] for pn in pnodes}
            return
        pn = pnodes[depth]
        for hn in candidates(depth):
            if id(hn) in used:
                continue
            if not node_match(pn, hn):
                continue
            if not degrees_ok(pn, hn):
                continue
            if not edges_ok(pn, hn):
                continue
            mapping[id(pn)] = hn
            used.add(id(hn))
            yield from backtrack(depth + 1)
            del mapping[id(pn)]
            used.discard(id(hn))

    yield from backtrack(0)


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

"""Control-flow transformations: StateFusion and InlineSDFG (paper
Table 4).  Both are *strict* (only-beneficial) transformations applied
automatically after frontend parsing in DaCe; here they run through
``apply_strict_transformations``."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sdfg.data import Stream
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, NestedSDFG
from repro.sdfg.state import SDFGState
from repro.transformations.base import (
    MultiStateTransformation,
    PatternNode,
    Transformation,
    path_graph,
    register_transformation,
)


@register_transformation
class StateFusion(MultiStateTransformation):
    """Fuses two states joined by an unconditional, assignment-free
    transition when no data hazards arise."""

    strict = True

    _first = PatternNode(SDFGState)
    _second = PatternNode(SDFGState)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._first, cls._second)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        s1: SDFGState = candidate[cls._first]
        s2: SDFGState = candidate[cls._second]
        if sdfg.out_degree(s1) != 1 or sdfg.in_degree(s2) != 1:
            return False
        edge = sdfg.edges_between(s1, s2)[0]
        if not edge.data.is_unconditional() or edge.data.assignments:
            return False
        r1, w1 = s1.read_write_sets()
        r2, w2 = s2.read_write_sets()
        # Write-write and read-after-write-after-read hazards are avoided
        # conservatively; RAW is handled by access-node chaining below.
        if w1 & w2:
            return False
        if r1 & w2:
            return False
        return True

    def apply(self) -> None:
        sdfg = self.sdfg
        s1: SDFGState = self.node(self._first)
        s2: SDFGState = self.node(self._second)
        # Last write access node per container in s1.
        last_write: Dict[str, AccessNode] = {}
        for n in s1.nodes():
            if isinstance(n, AccessNode) and s1.in_edges(n):
                last_write[n.data] = n
        # Move nodes; source access nodes reading data written in s1 merge
        # into s1's write node (RAW ordering).
        node_map: Dict[int, object] = {}
        for n in s2.nodes():
            if (
                isinstance(n, AccessNode)
                and not s2.in_edges(n)
                and n.data in last_write
            ):
                node_map[id(n)] = last_write[n.data]
            else:
                s1.add_node(n)
                node_map[id(n)] = n
        for e in s2.edges():
            s1.add_edge(
                node_map[id(e.src)], node_map[id(e.dst)], e.data, e.src_conn, e.dst_conn
            )
        # Rewire the state machine.
        for e in list(sdfg.out_edges(s2)):
            sdfg.remove_edge(e)
            sdfg.add_edge(s1, e.dst, e.data)
        if sdfg.start_state is s2:
            sdfg.start_state = s1
        sdfg.remove_node(s2)


@register_transformation
class InlineSDFG(Transformation):
    """Inlines a single-state nested SDFG into its parent state."""

    strict = True

    _nested = PatternNode(NestedSDFG)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._nested)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        node: NestedSDFG = candidate[cls._nested]
        inner = node.sdfg
        if inner.number_of_nodes() != 1:
            return False
        if node.symbol_mapping and any(
            str(k) != str(v) for k, v in node.symbol_mapping.items()
        ):
            return False  # nontrivial symbol remapping is not inlined
        # Every connector's outer memlet must cover the whole inner
        # container with matching rank, so subsets transfer unchanged.
        for e in list(state.in_edges(node)) + list(state.out_edges(node)):
            if e.data.is_empty():
                continue
            conn = e.dst_conn if e.dst is node else e.src_conn
            if conn is None:
                continue
            other = e.src if e.dst is node else e.dst
            if not isinstance(other, AccessNode):
                return False  # inlining inside scopes is out of scope here
            idesc = inner.arrays.get(conn)
            if idesc is None:
                return False
            if e.data.subset.dims != idesc.dims:
                return False
            for r, s in zip(e.data.subset.ranges, idesc.shape):
                if r.num_elements() != s:
                    return False
        return True

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        node: NestedSDFG = self.node(self._nested)
        inner = node.sdfg
        inner_state = inner.nodes()[0]
        # Offsets of each connector's outer subset.
        outer_edges: Dict[str, object] = {}
        for e in state.in_edges(node):
            if e.dst_conn:
                outer_edges[e.dst_conn] = e
        for e in state.out_edges(node):
            if e.src_conn:
                outer_edges.setdefault(e.src_conn, e)
        # Rename inner containers: connectors map to outer containers,
        # transients get fresh outer names.
        rename: Dict[str, str] = {}
        offset: Dict[str, object] = {}
        for name, desc in inner.arrays.items():
            if name in outer_edges:
                oe = outer_edges[name]
                rename[name] = oe.data.data
                offset[name] = oe.data.subset
            else:
                fresh = sdfg.add_datadesc(
                    f"{node.name}_{name}", desc.clone(), find_new_name=True
                )
                rename[name] = fresh
        # Copy nodes.
        node_map: Dict[int, object] = {}
        for n in inner_state.nodes():
            if isinstance(n, AccessNode):
                new = AccessNode(rename[n.data])
                state.add_node(new)
                node_map[id(n)] = new
            else:
                state.add_node(n)
                node_map[id(n)] = n
        for e in inner_state.edges():
            m = e.data.clone()
            if not m.is_empty():
                orig = m.data
                m.data = rename[orig]
                if orig in offset and m.subset is not None:
                    m.subset = offset[orig].compose(m.subset)
            state.add_edge(
                node_map[id(e.src)], node_map[id(e.dst)], m, e.src_conn, e.dst_conn
            )
        # Merge inlined boundary access nodes with the outer nodes feeding
        # the connectors (no self-copies).
        for e in list(state.in_edges(node)):
            state.remove_edge(e)
            if e.dst_conn is None or not isinstance(e.src, AccessNode):
                continue
            for n in inner_state.nodes():
                if (
                    isinstance(n, AccessNode)
                    and n.data == e.dst_conn
                    and not inner_state.in_edges(n)
                ):
                    inlined = node_map[id(n)]
                    for oe in list(state.out_edges(inlined)):
                        state.remove_edge(oe)
                        state.add_edge(e.src, oe.dst, oe.data, oe.src_conn, oe.dst_conn)
                    state.remove_node(inlined)
        for e in list(state.out_edges(node)):
            state.remove_edge(e)
            if e.src_conn is None or not isinstance(e.dst, AccessNode):
                continue
            for n in inner_state.nodes():
                if (
                    isinstance(n, AccessNode)
                    and n.data == e.src_conn
                    and inner_state.in_edges(n)
                    and not inner_state.out_edges(n)
                ):
                    inlined = node_map[id(n)]
                    for ie in list(state.in_edges(inlined)):
                        state.remove_edge(ie)
                        state.add_edge(ie.src, e.dst, ie.data, ie.src_conn, ie.dst_conn)
                    state.remove_node(inlined)
        state.remove_node(node)

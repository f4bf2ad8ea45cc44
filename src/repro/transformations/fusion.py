"""Fusion transformations: MapFusion and MapReduceFusion (paper Table 4,
Fig. 11a)."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codegen.python_gen import (
    _analyze_subset,
    _memlet_params,
    _rename_identifiers,
)
from repro.sdfg.dtypes import ReductionType, detect_reduction_type
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    ExitNode,
    MapEntry,
    MapExit,
    Reduce,
    Tasklet,
)
from repro.sdfg.data import Stream
from repro.symbolic import Subset
from repro.transformations.base import (
    PatternNode,
    Transformation,
    path_graph,
    register_transformation,
)


def _occurrence_count(sdfg, data: str) -> int:
    return sum(
        1
        for st in sdfg.nodes()
        for n in st.nodes()
        if isinstance(n, AccessNode) and n.data == data
    )


def _scope_accesses(state, entry):
    """What one iteration of ``entry``'s map touches: the memlets inside
    its scope by container, and the containers among them it writes."""
    nodes = state.scope_subgraph(entry, include_scope_nodes=False)
    nodes += [entry, state.exit_node(entry)]
    inside = set(nodes)
    memlets: Dict[str, List[Memlet]] = {}
    written = set()
    for node in nodes:
        for e in state.out_edges(node):
            if e.dst not in inside or e.data.is_empty():
                continue
            memlets.setdefault(e.data.data, []).append(e.data)
            if isinstance(e.dst, (ExitNode, AccessNode)):
                written.add(e.data.data)
    return memlets, written


def _one_point_per_iteration(memlets: List[Memlet], params) -> bool:
    """All of ``memlets`` name the same element, a different one in every
    iteration of a map over ``params``."""
    first = memlets[0]
    if any(m.subset != first.subset for m in memlets):
        return False
    analysis = _analyze_subset(first, params)
    return analysis is not None and _memlet_params(analysis) == set(params)


@register_transformation
class MapFusion(Transformation):
    """Fuses two consecutive maps with identical iteration domains that
    communicate through a transient array, turning the per-iteration
    element into a scalar transient inside one fused scope."""

    _first_exit = PatternNode(MapExit)
    _array = PatternNode(AccessNode)
    _second_entry = PatternNode(MapEntry)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._first_exit, cls._array, cls._second_entry)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        exit1: MapExit = candidate[cls._first_exit]
        arr: AccessNode = candidate[cls._array]
        entry2: MapEntry = candidate[cls._second_entry]
        desc = sdfg.arrays.get(arr.data)
        if desc is None or not desc.transient or isinstance(desc, Stream):
            return False
        if state.in_degree(arr) != 1 or state.out_degree(arr) != 1:
            return False
        if _occurrence_count(sdfg, arr.data) != 1:
            return False
        m1, m2 = exit1.map, entry2.map
        if len(m1.params) != len(m2.params):
            return False
        rename = dict(zip(m2.params, m1.params))
        if m2.range.subs(rename) != m1.range:
            return False
        # Producer writes and consumer reads the same point per iteration.
        prod = cls._producer_edge(state, exit1, arr)
        if prod is None or prod.data.wcr is not None:
            return False
        if not prod.data.subset.is_point():
            return False
        cons_edges = cls._consumer_edges(state, entry2, arr)
        if not cons_edges:
            return False
        for ce in cons_edges:
            if not ce.data.subset.is_point():
                return False
            if ce.data.subset.subs(rename) != prod.data.subset:
                return False
        # Scopes must be flat tasklet bodies (no nested maps) for this
        # simplified fusion.
        sd = state.scope_dict()
        for n, s in sd.items():
            if s is entry2 and isinstance(n, MapEntry):
                return False
        # Fusion interleaves the two maps' iterations.  Any other container
        # one map writes and the other touches must therefore be the same
        # element in both, and a different one in every iteration.
        first, w1 = _scope_accesses(state, state.entry_node_of(exit1))
        second, w2 = _scope_accesses(state, entry2)
        for data in (w1 & set(second)) | (w2 & set(first)):
            if data == arr.data:
                continue
            renamed = [m.subs(rename) for m in second[data]]
            if not _one_point_per_iteration(first[data] + renamed, m1.params):
                return False
        return True

    @classmethod
    def _producer_edge(cls, state, exit1, arr):
        for e_out in state.out_edges(exit1):
            if e_out.dst is arr and e_out.src_conn:
                conn = "IN_" + e_out.src_conn[4:]
                inner = state.in_edges_by_connector(exit1, conn)
                if inner:
                    return inner[0]
        return None

    @classmethod
    def _consumer_edges(cls, state, entry2, arr):
        out = []
        for e_in in state.in_edges(entry2):
            if e_in.src is arr and e_in.dst_conn:
                conn = "OUT_" + e_in.dst_conn[3:]
                out.extend(state.out_edges_by_connector(entry2, conn))
        return out

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        exit1: MapExit = self.node(self._first_exit)
        arr: AccessNode = self.node(self._array)
        entry2: MapEntry = self.node(self._second_entry)
        entry1 = state.entry_node_of(exit1)
        exit2 = state.exit_node(entry2)
        m1, m2 = exit1.map, entry2.map
        rename = dict(zip(m2.params, m1.params))

        # Rename second-map parameters in its scope's memlets and tasklets.
        scope2 = state.scope_subgraph(entry2, include_scope_nodes=True)
        for node in scope2:
            for e in state.out_edges(node):
                if not e.data.is_empty():
                    e.data = e.data.subs(rename)
            if isinstance(node, Tasklet) and any(
                p in node.code for p in rename
            ):
                node.code = _rename_identifiers(node.code, rename)

        # Scalar transient carrying the per-iteration element.
        elem_name, elem_desc = sdfg.add_transient(
            f"{arr.data}_elem", (1,), sdfg.arrays[arr.data].dtype
        )
        elem_acc = state.add_access(elem_name)

        prod = self._producer_edge(state, exit1, arr)
        cons_edges = self._consumer_edges(state, entry2, arr)
        # Producer tasklet now writes the scalar.
        state.add_edge(
            prod.src, elem_acc, Memlet.simple(elem_name, "0"), prod.src_conn, None
        )
        state.remove_edge(prod)
        # Consumers read the scalar.
        for ce in cons_edges:
            state.add_edge(
                elem_acc, ce.dst, Memlet.simple(elem_name, "0"), None, ce.dst_conn
            )
            state.remove_edge(ce)

        # Re-route second-scope external inputs through the first entry.
        for e_in in list(state.in_edges(entry2)):
            if e_in.src is arr:
                state.remove_edge(e_in)
                continue
            state.remove_edge(e_in)
            if e_in.data.is_empty():
                continue
            conn_idx = e_in.dst_conn[3:] if e_in.dst_conn else None
            inner_edges = (
                state.out_edges_by_connector(entry2, f"OUT_{conn_idx}")
                if conn_idx
                else []
            )
            fresh = entry1.next_in_connector()[3:]
            entry1.add_in_connector(f"IN_{fresh}")
            entry1.add_out_connector(f"OUT_{fresh}")
            state.add_edge(e_in.src, entry1, e_in.data, e_in.src_conn, f"IN_{fresh}")
            for ie in inner_edges:
                state.add_edge(entry1, ie.dst, ie.data, f"OUT_{fresh}", ie.dst_conn)
                state.remove_edge(ie)
        # Remaining relay edges of entry2 (already consumed) are dropped with
        # the node itself; re-route second-scope outputs through exit1.
        for e_out in list(state.out_edges(exit2)):
            state.remove_edge(e_out)
            if e_out.data.is_empty():
                continue
            conn_idx = e_out.src_conn[4:] if e_out.src_conn else None
            inner_edges = (
                state.in_edges_by_connector(exit2, f"IN_{conn_idx}") if conn_idx else []
            )
            fresh = exit1.next_in_connector()[3:]
            exit1.add_in_connector(f"IN_{fresh}")
            exit1.add_out_connector(f"OUT_{fresh}")
            state.add_edge(exit1, e_out.dst, e_out.data, f"OUT_{fresh}", e_out.dst_conn)
            for ie in inner_edges:
                state.add_edge(ie.src, exit1, ie.data, ie.src_conn, f"IN_{fresh}")
                state.remove_edge(ie)
        state.remove_node(entry2)
        state.remove_node(exit2)
        # The intermediate array node: drop the exit1 relay edge and node.
        for e in list(state.in_edges(arr)):
            state.remove_edge(e)
            if e.src is exit1 and e.src_conn:
                idx = e.src_conn[4:]
                exit1.remove_in_connector(f"IN_{idx}")
                exit1.remove_out_connector(f"OUT_{idx}")
        state.remove_node(arr)
        del sdfg.arrays[arr.data]
        # Keep the exit connected if the producer was its only input.
        if state.in_degree(exit1) == 0:
            state.add_edge(elem_acc, exit1, Memlet.empty(), None, None)


_IDENTITY = {
    ReductionType.Sum: 0,
    ReductionType.Product: 1,
    ReductionType.Min: np.inf,
    ReductionType.Max: -np.inf,
}


@register_transformation
class MapReduceFusion(Transformation):
    """Fuses a map with an immediately-following Reduce over its output
    (paper Fig. 11a): the transient tensor disappears, the tasklet output
    becomes a write-conflict-resolution memlet, and the reduction output
    is initialized to the reduction identity."""

    _exit = PatternNode(MapExit)
    _array = PatternNode(AccessNode)
    _reduce = PatternNode(Reduce)
    _out = PatternNode(AccessNode)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._exit, cls._array, cls._reduce, cls._out)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        exit1: MapExit = candidate[cls._exit]
        arr: AccessNode = candidate[cls._array]
        red: Reduce = candidate[cls._reduce]
        desc = sdfg.arrays.get(arr.data)
        if desc is None or not desc.transient:
            return False
        if state.in_degree(arr) != 1 or state.out_degree(arr) != 1:
            return False
        if _occurrence_count(sdfg, arr.data) != 1:
            return False
        if detect_reduction_type(red.wcr) not in _IDENTITY:
            return False
        inner = state.in_edges(exit1)
        if len(inner) != 1 or inner[0].data.wcr is not None:
            return False
        if not inner[0].data.subset.is_point():
            return False
        axes = red.axes if red.axes is not None else tuple(range(desc.dims))
        if max(axes) >= desc.dims:
            return False
        return True

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        exit1: MapExit = self.node(self._exit)
        arr: AccessNode = self.node(self._array)
        red: Reduce = self.node(self._reduce)
        out: AccessNode = self.node(self._out)
        entry1 = state.entry_node_of(exit1)
        out_desc = sdfg.arrays[out.data]
        rtype = detect_reduction_type(red.wcr)
        axes = set(red.axes if red.axes is not None else range(sdfg.arrays[arr.data].dims))

        inner = state.in_edges(exit1)[0]
        kept = [
            r for d, r in enumerate(inner.data.subset.ranges) if d not in axes
        ]
        new_subset = Subset(kept) if kept else Subset.from_string("0")
        inner.data = Memlet(
            data=out.data, subset=new_subset, wcr=red.wcr
        )
        # Exit relay writes the (initialized) output with conflict resolution.
        relay = state.out_edges(exit1)
        for e in list(relay):
            if e.dst is arr:
                state.remove_edge(e)
                state.add_edge(
                    exit1,
                    out,
                    Memlet(
                        data=out.data,
                        subset=out_desc.full_subset(),
                        wcr=red.wcr,
                    ),
                    e.src_conn,
                    None,
                )
        # Remove the reduce node and the transient tensor.
        state.remove_node(red)
        state.remove_node(arr)
        del sdfg.arrays[arr.data]

        # Initialize the output to the reduction identity before the
        # accumulation scope runs (ordering via an empty memlet).
        identity = _IDENTITY[rtype]
        init_out = state.add_access(out.data)
        params = {
            f"__init{d}": f"0:{s}" for d, s in enumerate(out_desc.shape)
        }
        idx = ", ".join(params)
        state.add_mapped_tasklet(
            "_reduce_init_",
            params,
            inputs={},
            code=f"__o = {identity!r}",
            outputs={"__o": Memlet.simple(out.data, idx)},
            output_nodes={out.data: init_out},
        )
        state.add_edge(init_out, entry1, Memlet.empty(), None, None)

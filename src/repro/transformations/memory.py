"""Data transformations: LocalStorage, LocalStream, DoubleBuffering, and
the strict RedundantArray cleanup (paper Table 4 + Appendix D)."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.sdfg.data import Array, Stream
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    EntryNode,
    ExitNode,
    MapEntry,
    MapExit,
    Tasklet,
)
from repro.symbolic import Subset
from repro.transformations.base import (
    PatternNode,
    Transformation,
    path_graph,
    register_transformation,
)


@register_transformation
class LocalStorage(Transformation):
    """Introduces a transient for caching data between two scope levels
    (paper Fig. 11b): the edge's footprint becomes a scratchpad array and
    inner memlets are re-indexed relative to it.

    Matches both directions: MapEntry→MapEntry (read caching / packing)
    and MapExit→MapExit (write caching / tile stores).

    An edge is cached only if no dimension of its buffer names a
    parameter of the outer map or of a scope enclosing it: the
    generators allocate transients outside every scope, where such a
    size is unbound.  After MapTiling the inner map's footprint is sized
    per tile (``min(M, 32 + __tile_i) - __tile_i``), so tile buffers are
    refused; sizing one by the tile's largest extent is not done.

    An outward edge with a WCR is refused too: the buffer would
    accumulate across outer iterations without being reset to the WCR's
    identity, and its copy-back would drop the WCR.
    """

    _outer_in = PatternNode(MapEntry)
    _inner_in = PatternNode(MapEntry)
    _inner_out = PatternNode(MapExit)
    _outer_out = PatternNode(MapExit)

    #: Override to restrict which container gets cached.
    array: Optional[str] = None

    @classmethod
    def expressions(cls):
        return [
            path_graph(cls._outer_in, cls._inner_in),
            path_graph(cls._inner_out, cls._outer_out),
        ]

    @classmethod
    def _cacheable_edges(cls, state, candidate, sdfg) -> List:
        """The edges between the candidate's two scope nodes whose
        footprint can become a local buffer."""
        inward = cls._outer_in in candidate
        if inward:
            src, dst = candidate[cls._outer_in], candidate[cls._inner_in]
        else:
            src, dst = candidate[cls._inner_out], candidate[cls._outer_out]
        params = None
        out = []
        for e in state.edges_between(src, dst):
            if e.data.is_empty() or e.data.subset is None or e.data.dynamic:
                continue
            if e.data.wcr is not None:
                continue
            desc = sdfg.arrays.get(e.data.data)
            if desc is None or isinstance(desc, Stream):
                continue
            if params is None:
                outer = src if inward else state.entry_node_of(dst)
                params = _enclosing_params(state, outer)
            if cls._names_scope_parameter(e.data.subset, params):
                continue
            out.append(e)
        return out

    @staticmethod
    def _names_scope_parameter(subset: Subset, params) -> bool:
        """Whether a dimension of the buffer caching ``subset`` names one
        of the scope parameters ``params``."""
        return any(
            s.name in params
            for r in subset.ranges
            for s in r.num_elements().free_symbols
        )

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        return bool(cls._cacheable_edges(state, candidate, sdfg))

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        inward = self._outer_in in self.candidate
        if inward:
            src, dst = self.node(self._outer_in), self.node(self._inner_in)
        else:
            src, dst = self.node(self._inner_out), self.node(self._outer_out)
        edge = next(
            (
                e for e in self._cacheable_edges(state, self.candidate, sdfg)
                if self.array is None or e.data.data == self.array
            ),
            None,
        )
        if edge is None:
            raise RuntimeError("LocalStorage: no cacheable edge (set .array)")
        data = edge.data.data
        desc = sdfg.arrays[data]
        subset = edge.data.subset
        shape = [r.num_elements() for r in subset.ranges]
        tmp_name, tmp_desc = sdfg.add_transient(f"local_{data}", shape, desc.dtype)
        acc = state.add_access(tmp_name)
        origin = subset

        if inward:
            # outer --copy--> local --full--> inner; inner-scope memlets
            # re-index into the local buffer.
            state.remove_edge(edge)
            state.add_edge(
                src,
                acc,
                Memlet(data=data, subset=subset, other_subset=tmp_desc.full_subset()),
                edge.src_conn,
                None,
            )
            state.add_edge(
                acc, dst, Memlet.simple(tmp_name, str(tmp_desc.full_subset())),
                None, edge.dst_conn,
            )
            self._reindex_downstream(state, dst, edge.dst_conn, data, tmp_name, origin)
        else:
            state.remove_edge(edge)
            state.add_edge(
                src, acc, Memlet.simple(tmp_name, str(tmp_desc.full_subset())),
                edge.src_conn, None,
            )
            state.add_edge(
                acc,
                dst,
                Memlet(data=tmp_name, subset=tmp_desc.full_subset(), other_subset=subset),
                None,
                edge.dst_conn,
            )
            self._reindex_upstream(state, src, edge.src_conn, data, tmp_name, origin)

    def _reindex_downstream(self, state, entry, in_conn, data, tmp, origin) -> None:
        """Rewrite memlets below ``entry``'s relay connector to the local
        buffer's coordinate system."""
        out_conn = "OUT_" + in_conn[3:]
        stack = list(state.out_edges_by_connector(entry, out_conn))
        while stack:
            e = stack.pop()
            if not e.data.is_empty() and e.data.data == data:
                e.data.data = tmp
                e.data.subset = e.data.subset.offset(origin, negative=True)
            if isinstance(e.dst, EntryNode) and e.dst_conn:
                stack.extend(
                    state.out_edges_by_connector(e.dst, "OUT_" + e.dst_conn[3:])
                )

    def _reindex_upstream(self, state, exit_, out_conn, data, tmp, origin) -> None:
        in_conn = "IN_" + out_conn[4:]
        stack = list(state.in_edges_by_connector(exit_, in_conn))
        while stack:
            e = stack.pop()
            if not e.data.is_empty() and e.data.data == data:
                e.data.data = tmp
                e.data.subset = e.data.subset.offset(origin, negative=True)
            if isinstance(e.src, ExitNode) and e.src_conn:
                stack.extend(
                    state.in_edges_by_connector(e.src, "IN_" + e.src_conn[4:])
                )


def _enclosing_params(state, entry) -> Set[str]:
    """The parameters of ``entry``'s scope and of every scope around it."""
    scopes = state.scope_dict()
    params: Set[str] = set()
    while entry is not None:
        if isinstance(entry, MapEntry):
            params.update(entry.map.params)
        else:
            params.add(entry.consume.pe_param)
        entry = scopes.get(entry)
    return params


@register_transformation
class LocalStream(Transformation):
    """Accumulates stream writes into a scope-local transient stream,
    draining it in bulk at scope exit (paper §6.3 ❷: turns per-element
    atomic pushes to a global stream into bulk updates).

    Two shapes are matched: a tasklet pushing through one map exit
    directly to a stream, and the nested form where an inner map exit
    relays through an outer exit (the BFS Fig. 16 structure) — there the
    local stream accumulates per outer iteration.
    """

    _tasklet = PatternNode(Tasklet)
    _exit = PatternNode(MapExit)
    _stream = PatternNode(AccessNode)
    _inner_exit = PatternNode(MapExit)
    _outer_exit = PatternNode(MapExit)
    _stream2 = PatternNode(AccessNode)

    @classmethod
    def expressions(cls):
        return [
            path_graph(cls._inner_exit, cls._outer_exit, cls._stream2),
            path_graph(cls._tasklet, cls._exit, cls._stream),
        ]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        if cls._stream2 in candidate:
            stream_node = candidate[cls._stream2]
            src, dst = candidate[cls._inner_exit], candidate[cls._outer_exit]
        else:
            stream_node = candidate[cls._stream]
            src, dst = candidate[cls._tasklet], candidate[cls._exit]
        desc = sdfg.arrays.get(stream_node.data)
        if not isinstance(desc, Stream):
            return False
        return any(
            not e.data.is_empty() and e.data.data == stream_node.data
            for e in state.edges_between(src, dst)
        )

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        nested = self._stream2 in self.candidate
        if nested:
            stream_node: AccessNode = self.node(self._stream2)
            src, dst = self.node(self._inner_exit), self.node(self._outer_exit)
        else:
            stream_node = self.node(self._stream)
            src, dst = self.node(self._tasklet), self.node(self._exit)
        desc = sdfg.arrays[stream_node.data]
        lname, _ = sdfg.add_stream(
            f"L{stream_node.data}", desc.dtype, transient=True
        )
        lacc = state.add_access(lname)
        for e in list(state.edges_between(src, dst)):
            if e.data.is_empty() or e.data.data != stream_node.data:
                continue
            # Retarget the upstream producing memlet path at the local stream.
            path = state.memlet_path(e)
            for pe in path[: path.index(e)]:
                if not pe.data.is_empty() and pe.data.data == stream_node.data:
                    pe.data.data = lname
            state.remove_edge(e)
            # producer -> local stream (inside the scope)
            state.add_edge(
                src, lacc, Memlet(data=lname, subset="0", dynamic=True),
                e.src_conn, None,
            )
            # local stream -> exit -> global stream: other_subset flags the
            # bulk drain into the relay path's final destination.
            idx = dst.next_in_connector()[3:]
            dst.add_in_connector(f"IN_{idx}")
            dst.add_out_connector(f"OUT_{idx}")
            state.add_edge(
                lacc, dst,
                Memlet(data=lname, subset="0", other_subset="0", dynamic=True),
                None, f"IN_{idx}",
            )
            state.add_edge(
                dst, stream_node,
                Memlet(data=stream_node.data, subset="0", dynamic=True),
                f"OUT_{idx}", None,
            )


@register_transformation
class DoubleBuffering(Transformation):
    """Doubles a scope-local transient so that filling buffer ``k % 2``
    can overlap processing buffer ``(k-1) % 2`` (paper Table 4).

    Sequential backends execute the two buffers degenerately (both phases
    of an iteration use the same half), preserving semantics; the GPU and
    FPGA machine models credit copy/compute overlap for descriptors
    marked ``double_buffered``.
    """

    _entry = PatternNode(MapEntry)
    _local = PatternNode(AccessNode)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._entry, cls._local)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        entry: MapEntry = candidate[cls._entry]
        local: AccessNode = candidate[cls._local]
        desc = sdfg.arrays.get(local.data)
        if not isinstance(desc, Array) or not desc.transient or desc.double_buffered:
            return False
        # The transient must live inside the (sequential) scope.
        return state.scope_dict().get(local) is entry and len(entry.map.params) >= 1

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        entry: MapEntry = self.node(self._entry)
        local: AccessNode = self.node(self._local)
        desc: Array = sdfg.arrays[local.data]
        param = entry.map.params[0]
        from repro.symbolic import sympify

        desc.shape = (sympify(2),) + tuple(desc.shape)
        desc.strides = Array.default_strides(desc.shape)
        desc.double_buffered = True
        phase = f"{param} % 2"
        for st in sdfg.nodes():
            for e in st.edges():
                m = e.data
                if m.is_empty():
                    continue
                if m.data == local.data and m.subset is not None:
                    m.subset = Subset.from_string(f"{phase}, {m.subset}")
                elif m.other_subset is not None:
                    # other_subset reindexes the opposite endpoint.
                    touches_local = any(
                        isinstance(n, AccessNode) and n.data == local.data
                        for n in (e.src, e.dst)
                    )
                    if touches_local:
                        m.other_subset = Subset.from_string(
                            f"{phase}, {m.other_subset}"
                        )


@register_transformation
class RedundantArray(Transformation):
    """Removes a transient array copied directly into another array and
    used nowhere else (paper Appendix D, reproduced faithfully)."""

    strict = True

    _in_array = PatternNode(AccessNode)
    _out_array = PatternNode(AccessNode)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._in_array, cls._out_array)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        in_array: AccessNode = candidate[cls._in_array]
        out_array: AccessNode = candidate[cls._out_array]
        if in_array.data == out_array.data:
            return False
        in_desc = sdfg.arrays.get(in_array.data)
        out_desc = sdfg.arrays.get(out_array.data)
        if in_desc is None or out_desc is None:
            return False
        if isinstance(in_desc, Stream) or isinstance(out_desc, Stream):
            return False
        # Ensure out degree is one (only one target, out_array).
        if state.out_degree(in_array) != 1:
            return False
        # Make sure that the candidate is a transient variable.
        if not in_desc.transient:
            return False
        # Both arrays must use the same storage location.
        if in_desc.storage != out_desc.storage:
            return False
        # The connecting edge must be a plain copy.
        e = state.edges_between(in_array, out_array)
        if not e or e[0].data.wcr is not None:
            return False
        # Only one occurrence of the array in this and other states.
        occurrences = [
            n
            for st in sdfg.nodes()
            for n in st.nodes()
            if isinstance(n, AccessNode) and n.data == in_array.data
        ]
        if len(occurrences) > 1:
            return False
        # Same shape (no need to modify memlet subsets).
        if len(in_desc.shape) != len(out_desc.shape) or any(
            i != o for i, o in zip(in_desc.shape, out_desc.shape)
        ):
            return False
        return True

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        in_array: AccessNode = self.node(self._in_array)
        out_array: AccessNode = self.node(self._out_array)
        # Modify all incoming edges (and their relay paths) to point to
        # out_array, then redirect the edges.
        for e in list(state.in_edges(in_array)):
            for pe in state.memlet_path(e):
                if not pe.data.is_empty() and pe.data.data == in_array.data:
                    pe.data.data = out_array.data
            state.remove_edge(e)
            state.add_edge(e.src, out_array, e.data, e.src_conn, e.dst_conn)
        state.remove_node(in_array)
        del sdfg.arrays[in_array.data]

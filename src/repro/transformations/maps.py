"""Map-scope transformations (paper Table 4, "Map transformations" +
Vectorization and MapToForLoop).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.sdfg.dtypes import ScheduleType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, EntryNode, ExitNode, Map, MapEntry, MapExit, Tasklet
from repro.sdfg.propagation import scope_param_ranges
from repro.sdfg.state import SDFGState
from repro.symbolic import Min, Range, Subset, sympify
from repro.transformations.base import (
    PatternNode,
    Transformation,
    path_graph,
    register_transformation,
)


def wrap_scope(
    state: SDFGState, entry: MapEntry, exit_: MapExit, new_map: Map
) -> Tuple[MapEntry, MapExit]:
    """Insert a new scope immediately around an existing one, relaying
    every boundary edge through fresh connectors (used by tiling)."""
    new_entry, new_exit = MapEntry(new_map), MapExit(new_map)
    state.add_node(new_entry)
    state.add_node(new_exit)
    for e in list(state.in_edges(entry)):
        state.remove_edge(e)
        if e.data.is_empty():
            state.add_edge(e.src, new_entry, Memlet.empty(), e.src_conn, None)
            state.add_edge(new_entry, entry, Memlet.empty(), None, e.dst_conn)
            continue
        idx = new_entry.next_in_connector()[3:]
        new_entry.add_in_connector(f"IN_{idx}")
        new_entry.add_out_connector(f"OUT_{idx}")
        state.add_edge(e.src, new_entry, e.data, e.src_conn, f"IN_{idx}")
        state.add_edge(new_entry, entry, e.data.clone(), f"OUT_{idx}", e.dst_conn)
    if state.in_degree(new_entry) == 0 and state.in_degree(entry) == 0:
        state.add_edge(new_entry, entry, Memlet.empty(), None, None)
    for e in list(state.out_edges(exit_)):
        state.remove_edge(e)
        if e.data.is_empty():
            state.add_edge(exit_, new_exit, Memlet.empty(), e.src_conn, None)
            state.add_edge(new_exit, e.dst, Memlet.empty(), None, e.dst_conn)
            continue
        idx = new_exit.next_in_connector()[3:]
        new_exit.add_in_connector(f"IN_{idx}")
        new_exit.add_out_connector(f"OUT_{idx}")
        state.add_edge(exit_, new_exit, e.data.clone(), e.src_conn, f"IN_{idx}")
        state.add_edge(new_exit, e.dst, e.data, f"OUT_{idx}", e.dst_conn)
    if state.out_degree(new_exit) == 0 and state.out_degree(exit_) == 0:
        state.add_edge(exit_, new_exit, Memlet.empty(), None, None)
    return new_entry, new_exit


@register_transformation
class MapCollapse(Transformation):
    """Collapses two directly-nested maps into one map whose dimensions
    are the union of the originals'."""

    _outer = PatternNode(MapEntry)
    _inner = PatternNode(MapEntry)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._outer, cls._inner)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        outer: MapEntry = candidate[cls._outer]
        inner: MapEntry = candidate[cls._inner]
        # Directly nested: all inner-entry inputs come from the outer entry,
        # and the outer exit is fed only by the inner exit.
        if any(e.src is not outer for e in state.in_edges(inner)):
            return False
        try:
            outer_exit = state.exit_node(outer)
            inner_exit = state.exit_node(inner)
        except KeyError:
            return False
        if any(e.dst is not outer_exit for e in state.out_edges(inner_exit)):
            return False
        if any(e.src is not inner_exit for e in state.in_edges(outer_exit)):
            return False
        # No data-dependent range connectors on the inner map.
        if any(not c.startswith("IN_") for c in inner.in_connectors):
            return False
        # Inner ranges must not depend on outer parameters.
        outer_params = set(outer.map.params)
        for r in inner.map.range.ranges:
            if {s.name for s in r.free_symbols} & outer_params:
                return False
        return True

    def apply(self) -> None:
        state = self.state
        outer: MapEntry = self.node(self._outer)
        inner: MapEntry = self.node(self._inner)
        outer_exit = state.exit_node(outer)
        inner_exit = state.exit_node(inner)
        m = outer.map
        m.params = m.params + inner.map.params
        m.range = Subset(tuple(m.range.ranges) + tuple(inner.map.range.ranges))
        _splice_out_scope_node(state, inner, forward=True)
        _splice_out_scope_node(state, inner_exit, forward=False)


def _splice_out_scope_node(state: SDFGState, node, forward: bool) -> None:
    """Remove a relay scope node, reconnecting IN_k/OUT_k edge pairs."""
    in_edges = state.in_edges(node)
    out_edges = state.out_edges(node)
    for ie in in_edges:
        if ie.dst_conn is None:
            # Pure ordering edge; reconnect to every successor.
            for oe in out_edges:
                state.add_edge(ie.src, oe.dst, oe.data, ie.src_conn, oe.dst_conn)
            continue
        idx = ie.dst_conn[3:]
        for oe in out_edges:
            if oe.src_conn == f"OUT_{idx}":
                # Keep the inner (more precise) memlet.
                keep = oe.data if forward else ie.data
                state.add_edge(ie.src, oe.dst, keep, ie.src_conn, oe.dst_conn)
    state.remove_node(node)


@register_transformation
class MapExpansion(Transformation):
    """Expands a multi-dimensional map into two nested maps: the first
    dimension outside, the remaining dimensions inside."""

    _entry = PatternNode(MapEntry)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._entry)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        return len(candidate[cls._entry].map.params) >= 2

    def apply(self) -> None:
        state = self.state
        entry: MapEntry = self.node(self._entry)
        exit_ = state.exit_node(entry)
        m = entry.map
        inner_map = Map(
            m.label + "_inner",
            m.params[1:],
            Subset(m.range.ranges[1:]),
            ScheduleType.Sequential,
        )
        outer_map = Map(
            m.label, m.params[:1], Subset(m.range.ranges[:1]), m.schedule, m.unroll
        )
        entry.map = outer_map
        exit_.map = outer_map
        inner_entry, inner_exit = MapEntry(inner_map), MapExit(inner_map)
        state.add_node(inner_entry)
        state.add_node(inner_exit)
        for e in list(state.out_edges(entry)):
            state.remove_edge(e)
            if e.src_conn is None:
                state.add_edge(entry, inner_entry, Memlet.empty(), None, None)
                state.add_edge(inner_entry, e.dst, e.data, None, e.dst_conn)
                continue
            idx = e.src_conn[4:]
            inner_entry.add_in_connector(f"IN_{idx}")
            inner_entry.add_out_connector(f"OUT_{idx}")
            state.add_edge(entry, inner_entry, e.data.clone(), e.src_conn, f"IN_{idx}")
            state.add_edge(inner_entry, e.dst, e.data, f"OUT_{idx}", e.dst_conn)
        for e in list(state.in_edges(exit_)):
            state.remove_edge(e)
            if e.dst_conn is None:
                state.add_edge(e.src, inner_exit, e.data, e.src_conn, None)
                state.add_edge(inner_exit, exit_, Memlet.empty(), None, None)
                continue
            idx = e.dst_conn[3:]
            inner_exit.add_in_connector(f"IN_{idx}")
            inner_exit.add_out_connector(f"OUT_{idx}")
            state.add_edge(e.src, inner_exit, e.data, e.src_conn, f"IN_{idx}")
            state.add_edge(inner_exit, exit_, e.data.clone(), f"OUT_{idx}", e.dst_conn)


@register_transformation
class MapInterchange(Transformation):
    """Interchanges the position (loop order) of two nested maps."""

    _outer = PatternNode(MapEntry)
    _inner = PatternNode(MapEntry)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._outer, cls._inner)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        outer: MapEntry = candidate[cls._outer]
        inner: MapEntry = candidate[cls._inner]
        if any(e.src is not outer for e in state.in_edges(inner)):
            return False
        # Inner range independent of outer parameters (perfect nest).
        outer_params = set(outer.map.params)
        for r in inner.map.range.ranges:
            if {s.name for s in r.free_symbols} & outer_params:
                return False
        try:
            state.exit_node(outer)
            state.exit_node(inner)
        except KeyError:
            return False
        return True

    def apply(self) -> None:
        state = self.state
        outer: MapEntry = self.node(self._outer)
        inner: MapEntry = self.node(self._inner)
        outer_exit = state.exit_node(outer)
        inner_exit = state.exit_node(inner)
        outer.map, inner.map = inner.map, outer.map
        outer_exit.map, inner_exit.map = inner_exit.map, outer_exit.map


@register_transformation
class MapTiling(Transformation):
    """Applies orthogonal tiling to a map: an outer tile map strides over
    tiles, the original map iterates within each tile."""

    _entry = PatternNode(MapEntry)

    #: Default tile edge length per dimension (overridable per instance).
    tile_sizes: Sequence[int] = (32,)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._entry)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        return True

    def apply(self) -> None:
        state = self.state
        entry: MapEntry = self.node(self._entry)
        exit_ = state.exit_node(entry)
        m = entry.map
        sizes = list(self.tile_sizes)
        while len(sizes) < len(m.params):
            sizes.append(sizes[-1])
        # A tile parameter must not shadow a parameter of an enclosing
        # scope (tiling a map a second time): its range reads that one.
        taken, sd = set(m.params), state.scope_dict()
        anc = sd.get(entry)
        while anc is not None:
            taken.update(scope_param_ranges(anc))
            anc = sd.get(anc)
        tile_params = []
        for p in m.params:
            tp = f"__tile_{p}"
            while tp in taken:
                tp += "_"
            tile_params.append(tp)
        outer_ranges = []
        inner_ranges = []
        for p, tp, rng, ts in zip(m.params, tile_params, m.range.ranges, sizes):
            ts_e = sympify(int(ts))
            stride = rng.step * ts_e
            outer_ranges.append(Range(rng.start, rng.end, stride))
            inner_ranges.append(
                Range(
                    sympify(tp),
                    Min.make(rng.end, sympify(tp) + stride),
                    rng.step,
                )
            )
        tile_map = Map(m.label + "_tiled", tile_params, Subset(outer_ranges), m.schedule)
        m.range = Subset(inner_ranges)
        m.schedule = ScheduleType.Sequential
        wrap_scope(state, entry, exit_, tile_map)


@register_transformation
class Vectorization(Transformation):
    """Marks an innermost map for vector lowering.

    In the paper this alters data accesses to use vector types.  Here the
    mark is the Fig. 15 step the tuner searches for and it is serialized
    with the map; no backend reads it.  The Python backend chooses every
    tier, the ``@`` contraction included, from the map's shape alone.
    """

    _entry = PatternNode(MapEntry)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._entry)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        from repro.codegen.pytranslate import is_vectorizable_tasklet
        from repro.sdfg.dtypes import Language

        entry: MapEntry = candidate[cls._entry]
        if entry.map.vectorized:
            return False  # already applied
        sd = state.scope_dict()
        body = [n for n, s in sd.items() if s is entry and not isinstance(n, ExitNode)]
        tasklets = [n for n in body if isinstance(n, Tasklet)]
        if len(body) != len(tasklets) or len(tasklets) != 1:
            return False
        t = tasklets[0]
        # Only straight-line bodies: the vector lowerings the mark stands for.
        return t.language == Language.Python and is_vectorizable_tasklet(
            t.code, allow_branch=False
        )

    def apply(self) -> None:
        self.node(self._entry).map.vectorized = True


@register_transformation
class MapToForLoop(Transformation):
    """Converts a one-dimensional top-level map into a for-loop over
    states (sequentialization; the inverse direction of parallelism)."""

    _entry = PatternNode(MapEntry)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._entry)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        entry: MapEntry = candidate[cls._entry]
        if len(entry.map.params) != 1:
            return False
        sd = state.scope_dict()
        if sd.get(entry) is not None:
            return False
        # The state must contain only this scope plus boundary access nodes.
        scope_nodes = set(map(id, state.scope_subgraph(entry)))
        for n in state.nodes():
            if id(n) not in scope_nodes and not isinstance(n, AccessNode):
                return False
        return True

    def apply(self) -> None:
        sdfg = self.sdfg
        state = self.state
        entry: MapEntry = self.node(self._entry)
        exit_ = state.exit_node(entry)
        param = entry.map.params[0]
        rng = entry.map.range.ranges[0]
        # Remove the scope nodes, reconnecting through-paths with the
        # inner (precise) memlets.
        _splice_out_scope_node(state, entry, forward=True)
        _splice_out_scope_node(state, exit_, forward=False)
        # Wrap the state in a loop over the parameter.
        before = sdfg.add_state_before(state, f"{param}_init")
        guard = sdfg.add_state(f"{param}_guard")
        after = sdfg.add_state(f"{param}_end")
        from repro.sdfg.sdfg import InterstateEdge
        from repro.symbolic import parse_expr
        from repro.symbolic.expr import Not

        # before -> guard (init), guard -> state (cond), state -> guard (inc),
        # guard -> after (!cond); re-route state's old outgoing edges to after.
        for e in list(sdfg.out_edges(state)):
            sdfg.remove_edge(e)
            sdfg.add_edge(after, e.dst, e.data)
        for e in list(sdfg.out_edges(before)):
            sdfg.remove_edge(e)
        sdfg.add_edge(before, guard, InterstateEdge(assignments={param: rng.start}))
        cond = parse_expr(f"{param} < {rng.end}")
        sdfg.add_edge(guard, state, InterstateEdge(condition=cond))
        sdfg.add_edge(
            state,
            guard,
            InterstateEdge(assignments={param: sympify(param) + rng.step}),
        )
        sdfg.add_edge(guard, after, InterstateEdge(condition=Not.make(cond)))

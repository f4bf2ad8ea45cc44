"""Subgraph fusion transformations: TaskletFusion and OnTheFlyMapFusion.

These are the finer-grained fusions the cutout tuner exploits
(:mod:`repro.tuning.cutout`): once :class:`MapFusion` has merged two map
scopes, the producer/consumer tasklet pair it leaves behind is a
:class:`TaskletFusion` candidate; and where MapFusion's identical-domain
requirement fails (stencil consumers reading shifted elements),
:class:`OnTheFlyMapFusion` fuses anyway by *recomputing* the producer
element inside the consumer scope — the classic recompute-vs-store
trade that removes the transient tensor entirely.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List

from repro.sdfg.data import Stream
from repro.sdfg.dtypes import Language
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Tasklet
from repro.symbolic.sets import Range
from repro.transformations.base import (
    PatternNode,
    Transformation,
    path_graph,
    register_transformation,
)
from repro.transformations.fusion import _occurrence_count, _scope_accesses


def _identifier_used(code: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", code) is not None


class _InlineName(ast.NodeTransformer):
    """Replace every load of ``name`` with a (parenthesized) expression."""

    def __init__(self, name: str, replacement: ast.expr):
        self.name = name
        self.replacement = replacement

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if node.id == self.name and isinstance(node.ctx, ast.Load):
            return ast.copy_location(self.replacement, node)
        return node


@register_transformation
class TaskletFusion(Transformation):
    """Fuses a producer tasklet into its consumer when they communicate
    through a single-element transient: the producer's right-hand side is
    inlined into the consumer's code and the intermediate container
    disappears.  This is exactly the shape :class:`MapFusion` leaves
    behind (``<arr>_elem`` scalars), so the two compose in a search."""

    _first = PatternNode(Tasklet)
    _array = PatternNode(AccessNode)
    _second = PatternNode(Tasklet)

    @classmethod
    def expressions(cls):
        return [path_graph(cls._first, cls._array, cls._second)]

    @classmethod
    def can_be_applied(cls, state, candidate, sdfg, strict=False) -> bool:
        t1: Tasklet = candidate[cls._first]
        arr: AccessNode = candidate[cls._array]
        t2: Tasklet = candidate[cls._second]
        desc = sdfg.arrays.get(arr.data)
        if desc is None or not desc.transient or isinstance(desc, Stream):
            return False
        if state.in_degree(arr) != 1 or state.out_degree(arr) != 1:
            return False
        if _occurrence_count(sdfg, arr.data) != 1:
            return False
        if t1.language is not Language.Python or t2.language is not Language.Python:
            return False
        if t1.code_global or t2.code_global:
            return False
        if len(t1.out_connectors) != 1:
            return False
        e1 = state.in_edges(arr)[0]
        e2 = state.out_edges(arr)[0]
        if e1.src is not t1 or e2.dst is not t2:
            return False
        if e1.data.wcr is not None or e2.data.wcr is not None:
            return False
        for m in (e1.data, e2.data):
            if m.subset is None or not m.subset.is_point() or m.dynamic:
                return False
        if not e1.src_conn or not e2.dst_conn:
            return False
        if e2.dst_conn not in t2.in_connectors:
            return False
        # Same scope: the pair executes in lockstep per iteration.
        sd = state.scope_dict()
        if sd.get(t1) is not sd.get(t2) or sd.get(arr) is not sd.get(t1):
            return False
        # The producer must be a single pure assignment to its output.
        rhs = cls._producer_rhs(t1, e1.src_conn)
        if rhs is None:
            return False
        # Inlining must not capture: producer input names may not collide
        # with any name the consumer already uses.
        for conn in t1.in_connectors:
            if conn in t2.in_connectors or conn in t2.out_connectors:
                return False
            if _identifier_used(t2.code, conn):
                return False
        return True

    @staticmethod
    def _producer_rhs(t1: Tasklet, out_conn: str):
        """The RHS AST of ``out_conn = <expr>`` if that is all of t1."""
        try:
            tree = ast.parse(t1.code)
        except SyntaxError:
            return None
        if len(tree.body) != 1 or not isinstance(tree.body[0], ast.Assign):
            return None
        assign = tree.body[0]
        if len(assign.targets) != 1:
            return None
        target = assign.targets[0]
        if not isinstance(target, ast.Name) or target.id != out_conn:
            return None
        return assign.value

    def apply(self) -> None:
        sdfg, state = self.sdfg, self.state
        t1: Tasklet = self.node(self._first)
        arr: AccessNode = self.node(self._array)
        t2: Tasklet = self.node(self._second)
        e1 = state.in_edges(arr)[0]
        e2 = state.out_edges(arr)[0]
        bridge = e2.dst_conn

        rhs = self._producer_rhs(t1, e1.src_conn)
        tree = ast.parse(t2.code)
        tree = _InlineName(bridge, rhs).visit(tree)
        ast.fix_missing_locations(tree)
        t2.code = ast.unparse(tree)

        t2.remove_in_connector(bridge)
        for e in list(state.in_edges(t1)):
            state.remove_edge(e)
            if e.dst_conn:
                t2.add_in_connector(e.dst_conn)
            state.add_edge(e.src, t2, e.data, e.src_conn, e.dst_conn)
        state.remove_edge(e1)
        state.remove_edge(e2)
        state.remove_node(t1)
        state.remove_node(arr)
        del sdfg.arrays[arr.data]


@register_transformation
class OnTheFlyMapFusion(Transformation):
    """Fuses a producer map into a consumer map by *recomputing* the
    producer tasklet at every consumer read site ("on the fly"), so the
    iteration domains need not match — the stencil case MapFusion
    rejects.  The transient tensor between the maps disappears; each
    consumer read of ``tmp[f(j)]`` becomes a private producer-tasklet
    instance computing that element into a scalar."""

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
        entry1 = state.entry_node_of(exit1)
        sd = state.scope_dict()
        if sd.get(entry1) is not sd.get(entry2):
            return False
        # Producer body: exactly one flat tasklet.
        body = [
            n
            for n in state.scope_subgraph(entry1, include_scope_nodes=False)
        ]
        if len(body) != 1 or not isinstance(body[0], Tasklet):
            return False
        t1 = body[0]
        if t1.language is not Language.Python or t1.code_global:
            return False
        m1 = exit1.map
        # Producer writes exactly arr[params...] (the canonical identity
        # write) with no conflict resolution.
        writes = state.in_edges(exit1)
        if len(writes) != 1 or writes[0].src is not t1 or writes[0].data.wcr:
            return False
        wsub = writes[0].data.subset
        if wsub is None or not wsub.is_point() or wsub.dims != len(m1.params):
            return False
        for rng, param in zip(wsub.ranges, m1.params):
            if str(rng.start) != param:
                return False
        # Producer params must live only in memlets, never in the code.
        if any(_identifier_used(t1.code, p) for p in m1.params):
            return False
        # Producer inputs: point reads relayed from outside access nodes.
        for e in state.in_edges(t1):
            if e.data.is_empty():
                continue
            if e.src is not entry1 or not e.src_conn or not e.dst_conn:
                return False
            if e.data.wcr is not None or e.data.dynamic:
                return False
            if e.data.subset is None or not e.data.subset.is_point():
                return False
            outer = state.in_edges_by_connector(entry1, "IN_" + e.src_conn[4:])
            if len(outer) != 1 or not isinstance(outer[0].src, AccessNode):
                return False
        # Recomputing a producer element reads its inputs after consumer
        # iterations have run: none of them may be written there.
        _, written = _scope_accesses(state, entry2)
        if any(
            e.data.data in written
            for e in state.in_edges(t1)
            if not e.data.is_empty()
        ):
            return False
        # Consumer scope must be flat and every read of arr a point read
        # into a tasklet.
        for n, s in sd.items():
            if s is entry2 and isinstance(n, MapEntry):
                return False
        reads = cls._consumer_reads(state, entry2, arr)
        if not reads:
            return False
        m2 = entry2.map
        for re_ in reads:
            sub = re_.data.subset
            if (
                not isinstance(re_.dst, Tasklet)
                or not re_.dst_conn
                or re_.data.wcr is not None
                or re_.data.dynamic
                or sub is None
                or not sub.is_point()
                or sub.dims != len(m1.params)
            ):
                return False
            # Every recomputed index must lie inside the producer's
            # domain (monotone index expressions; endpoint bounds).
            lo = {p: r.start for p, r in zip(m2.params, m2.range.ranges)}
            hi = {p: r.max_element() for p, r in zip(m2.params, m2.range.ranges)}
            for d, rng in enumerate(sub.ranges):
                read_lo = rng.start.subs(lo)
                read_hi = rng.start.subs(hi)
                if not m1.range.ranges[d].covers(Range(read_lo, read_hi + 1)):
                    return False
        return True

    @classmethod
    def _consumer_reads(cls, state, entry2, arr):
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
        t1 = next(
            n
            for n in state.scope_subgraph(entry1, include_scope_nodes=False)
            if isinstance(n, Tasklet)
        )
        m1 = exit1.map
        out_conn = state.in_edges(exit1)[0].src_conn

        # Producer inputs: (tasklet connector, inner memlet, source node).
        feeds = []
        for e in state.in_edges(t1):
            if e.data.is_empty():
                continue
            outer = state.in_edges_by_connector(entry1, "IN_" + e.src_conn[4:])[0]
            feeds.append((e.dst_conn, e.data, outer.src))

        reads = self._consumer_reads(state, entry2, arr)
        for re_ in reads:
            rename: Dict[str, object] = {
                p: rng.start for p, rng in zip(m1.params, re_.data.subset.ranges)
            }
            sname, _ = sdfg.add_transient(
                f"{arr.data}_otf", (1,), sdfg.arrays[arr.data].dtype
            )
            clone = state.add_tasklet(
                f"{t1.name}_otf",
                [c for c, _, _ in feeds],
                [out_conn],
                t1.code,
                t1.language,
            )
            for conn, inner, src in feeds:
                fresh = entry2.next_in_connector()[3:]
                entry2.add_in_connector(f"IN_{fresh}")
                entry2.add_out_connector(f"OUT_{fresh}")
                state.add_edge(
                    src,
                    entry2,
                    Memlet(
                        data=inner.data,
                        subset=sdfg.arrays[inner.data].full_subset(),
                    ),
                    None,
                    f"IN_{fresh}",
                )
                state.add_edge(
                    entry2,
                    clone,
                    Memlet(data=inner.data, subset=inner.subset.subs(rename)),
                    f"OUT_{fresh}",
                    conn,
                )
            if not feeds:
                state.add_nedge(entry2, clone)
            sacc = state.add_access(sname)
            state.add_edge(clone, sacc, Memlet.simple(sname, "0"), out_conn, None)
            state.add_edge(sacc, re_.dst, Memlet.simple(sname, "0"), None, re_.dst_conn)
            state.remove_edge(re_)

        # Detach arr from the consumer entry.
        for e_in in list(state.in_edges(entry2)):
            if e_in.src is arr:
                idx = e_in.dst_conn[3:]
                state.remove_edge(e_in)
                entry2.remove_in_connector(f"IN_{idx}")
                entry2.remove_out_connector(f"OUT_{idx}")

        # Remove the producer scope and the transient tensor.
        doomed: List = [entry1, t1, exit1, arr]
        edges = {}
        for n in doomed:
            for e in state.in_edges(n) + state.out_edges(n):
                edges[id(e)] = e
        for e in edges.values():
            state.remove_edge(e)
        for n in doomed:
            state.remove_node(n)
        del sdfg.arrays[arr.data]

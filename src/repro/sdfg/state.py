"""SDFG states: named acyclic dataflow multigraphs (paper §3, App. A.1).

A state's nodes are containers and computation; its edges carry memlets.
Execution order within a state is constrained only by dataflow.  This
module provides the builder API used by frontends and transformations
(`add_tasklet`, `add_map`, `add_memlet_path`, `add_mapped_tasklet`, ...)
and the structural queries the rest of the system relies on
(`scope_dict`, `memlet_path`, `scope_subgraph`).
"""

from __future__ import annotations

from operator import attrgetter, is_
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.graph import Edge, OrderedMultiDiGraph, topological_sort
from repro.instrumentation.types import InstrumentationType
from repro.sdfg.dtypes import Language, ScheduleType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    Consume,
    ConsumeEntry,
    ConsumeExit,
    EntryNode,
    ExitNode,
    Map,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    Reduce,
    Tasklet,
    _node_counter,
)
from repro.symbolic import Subset


class SDFGState(OrderedMultiDiGraph[Node, Memlet]):
    """One state of an SDFG: an acyclic multigraph of dataflow."""

    def __init__(self, name: str, sdfg=None):
        super().__init__()
        self.name = name
        self.sdfg = sdfg
        #: Instrumentation attached to this state (timed per execution).
        self.instrument = InstrumentationType.NONE

    # ------------------------------------------------------------------ builders
    def add_access(self, data: str) -> AccessNode:
        node = AccessNode(data)
        self.add_node(node)
        return node

    # Reads and writes are both plain access nodes; separate helpers keep
    # call sites self-documenting and allow reuse of an existing node.
    add_read = add_access
    add_write = add_access

    def add_tasklet(
        self,
        name: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        code: str,
        language: Language = Language.Python,
        code_global: str = "",
    ) -> Tasklet:
        t = Tasklet(name, tuple(inputs), tuple(outputs), code, language, code_global)
        self.add_node(t)
        return t

    def add_map(
        self,
        name: str,
        ndrange: Union[Mapping[str, Union[str, object]], str],
        schedule: ScheduleType = ScheduleType.Default,
        unroll: bool = False,
    ) -> Tuple[MapEntry, MapExit]:
        """Create a Map scope.  ``ndrange`` maps parameter names to range
        strings (``{"i": "0:N", "j": "0:M"}``)."""
        if isinstance(ndrange, str):
            raise TypeError("ndrange must be a mapping of param -> range string")
        params = list(ndrange.keys())
        rng = Subset.from_string(", ".join(str(v) for v in ndrange.values()))
        m = Map(name, params, rng, schedule, unroll)
        entry, exit_ = MapEntry(m), MapExit(m)
        self.add_node(entry)
        self.add_node(exit_)
        return entry, exit_

    def add_consume(
        self,
        name: str,
        pe_tuple: Tuple[str, Union[int, str]],
        condition: Optional[str] = None,
        schedule: ScheduleType = ScheduleType.Default,
    ) -> Tuple[ConsumeEntry, ConsumeExit]:
        param, num_pes = pe_tuple
        c = Consume(name, param, num_pes, condition, schedule)
        entry, exit_ = ConsumeEntry(c), ConsumeExit(c)
        self.add_node(entry)
        self.add_node(exit_)
        return entry, exit_

    def add_reduce(
        self,
        wcr: str,
        axes: Optional[Sequence[int]] = None,
        identity=None,
        label: str = "reduce",
    ) -> Reduce:
        r = Reduce(wcr, axes, identity, label)
        self.add_node(r)
        return r

    def add_nested_sdfg(
        self,
        sdfg,
        inputs: Iterable[str],
        outputs: Iterable[str],
        symbol_mapping: Optional[Mapping] = None,
        name: Optional[str] = None,
    ) -> NestedSDFG:
        node = NestedSDFG(
            name or sdfg.name, sdfg, tuple(inputs), tuple(outputs), symbol_mapping
        )
        sdfg.parent = self
        self.add_node(node)
        return node

    def add_nedge(self, src: Node, dst: Node, memlet: Optional[Memlet] = None) -> Edge:
        """Connector-less edge (e.g. empty-memlet ordering dependencies)."""
        return self.add_edge(src, dst, memlet or Memlet.empty(), None, None)

    def add_memlet_path(
        self,
        *path_nodes: Node,
        memlet: Memlet,
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ) -> List[Edge]:
        """Connect ``path_nodes`` with a chain of edges carrying ``memlet``.

        Scope nodes along the path automatically receive fresh paired
        ``IN_k``/``OUT_k`` connectors so the memlet is relayed across
        scope boundaries; outer segments are later tightened by memlet
        propagation.
        """
        if len(path_nodes) < 2:
            raise ValueError("memlet path needs at least two nodes")
        edges: List[Edge] = []
        # Connector to leave each intermediate scope node through.
        pending_out_conn: Optional[str] = None
        for i in range(len(path_nodes) - 1):
            s, d = path_nodes[i], path_nodes[i + 1]
            sc: Optional[str] = None
            dc: Optional[str] = None
            if i == 0:
                sc = src_conn
            elif isinstance(s, (EntryNode, ExitNode)):
                sc = pending_out_conn
                if sc is not None:
                    s.add_out_connector(sc)
            if i == len(path_nodes) - 2:
                dc = dst_conn
                if isinstance(d, (EntryNode, ExitNode)) and dc is None:
                    # Terminating at a scope node: allocate a fresh pair so a
                    # later path segment can continue from OUT_k.
                    inc = d.next_in_connector()
                    d.add_in_connector(inc)
                    dc = inc
            if isinstance(d, (EntryNode, ExitNode)) and i < len(path_nodes) - 2:
                inc = d.next_in_connector()
                d.add_in_connector(inc)
                dc = inc
                pending_out_conn = "OUT_" + inc[len("IN_") :]
            edges.append(self.add_edge(s, d, memlet.clone(), sc, dc))
        return edges

    def add_mapped_tasklet(
        self,
        name: str,
        map_ranges: Mapping[str, str],
        inputs: Mapping[str, Memlet],
        code: str,
        outputs: Mapping[str, Memlet],
        schedule: ScheduleType = ScheduleType.Default,
        external_edges: bool = True,
        input_nodes: Optional[Mapping[str, AccessNode]] = None,
        output_nodes: Optional[Mapping[str, AccessNode]] = None,
        language: Language = Language.Python,
    ) -> Tuple[Tasklet, MapEntry, MapExit]:
        """One-call construction of the ubiquitous map-over-tasklet motif."""
        entry, exit_ = self.add_map(name, map_ranges, schedule)
        tasklet = self.add_tasklet(name, inputs.keys(), outputs.keys(), code, language)
        input_nodes = dict(input_nodes or {})
        output_nodes = dict(output_nodes or {})

        if not inputs:
            self.add_nedge(entry, tasklet)
        for conn, mem in inputs.items():
            if external_edges:
                src = input_nodes.get(mem.data) or self.add_read(mem.data)
                input_nodes.setdefault(mem.data, src)
                self.add_memlet_path(src, entry, tasklet, memlet=mem, dst_conn=conn)
            else:
                self.add_memlet_path(entry, tasklet, memlet=mem, dst_conn=conn)
        if not outputs:
            self.add_nedge(tasklet, exit_)
        for conn, mem in outputs.items():
            if external_edges:
                dst = output_nodes.get(mem.data) or self.add_write(mem.data)
                output_nodes.setdefault(mem.data, dst)
                self.add_memlet_path(tasklet, exit_, dst, memlet=mem, src_conn=conn)
            else:
                self.add_memlet_path(tasklet, exit_, memlet=mem, src_conn=conn)
        return tasklet, entry, exit_

    # ------------------------------------------------------------------- queries
    def data_nodes(self) -> List[AccessNode]:
        return [n for n in self.nodes() if isinstance(n, AccessNode)]

    def read_write_sets(self) -> Tuple[Set[str], Set[str]]:
        """The containers this state reads (an access node with an
        out-edge) and writes (an access node with an in-edge: the
        destination of a memlet).  A nested SDFG's outputs show up
        through its outer access node."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        for n in self.nodes():
            if isinstance(n, AccessNode):
                if self.out_edges(n):
                    reads.add(n.data)
                if self.in_edges(n):
                    writes.add(n.data)
        return reads, writes

    def entry_nodes(self) -> List[EntryNode]:
        return [n for n in self.nodes() if isinstance(n, EntryNode)]

    def exit_node(self, entry: EntryNode) -> ExitNode:
        """The unique exit node closing ``entry``'s scope."""
        exit_ = self._scopes().exits.get(_scope_of(entry))
        if exit_ is None:
            raise KeyError(f"no exit node for {entry!r}")
        return exit_

    def entry_node_of(self, exit_: ExitNode) -> EntryNode:
        entry = self._scopes().entries.get(_scope_of(exit_))
        if entry is None:
            raise KeyError(f"no entry node for {exit_!r}")
        return entry

    def _scopes(self) -> "_ScopeIndex":
        index = self.cached("scopes", lambda: _ScopeIndex(self.nodes()))
        if not index.is_current():  # MapExpansion, MapInterchange
            index.build(self.nodes())
        return index

    def scope_dict(self) -> Dict[Node, Optional[EntryNode]]:
        """Map each node to its innermost enclosing scope entry (or None).

        Scope membership follows the paper's definition: the subgraph
        dominated by the entry and post-dominated by the exit.  Exit
        nodes belong to their own scope (scope_dict[exit] = entry).
        The tree is kept until the structure or a scope object changes;
        each call returns a fresh dict.
        """
        index = self._scopes()
        if index.tree is None:
            index.tree = self._compute_scope_dict(index.entries)
        return dict(index.tree)

    def _compute_scope_dict(
        self, entries: Dict[object, EntryNode]
    ) -> Dict[Node, Optional[EntryNode]]:
        scope: Dict[Node, Optional[EntryNode]] = {}
        for node in topological_sort(self):
            in_edges = self._in[node]
            if not in_edges:
                scope.setdefault(node, None)
                continue
            parents = set()
            for e in in_edges:
                src = e.src
                if isinstance(src, EntryNode):
                    if isinstance(node, ExitNode) and self._matching(src, node):
                        parents.add(scope.get(src))
                    else:
                        parents.add(src)
                elif isinstance(src, ExitNode):
                    key = _scope_of(src)
                    if key not in entries:
                        raise KeyError(f"no entry node for {src!r}")
                    parents.add(scope.get(entries[key]))
                else:
                    parents.add(scope.get(src))
            if len(parents) > 1:
                raise ValueError(
                    f"node {node!r} has inconsistent scopes: {parents}"
                )
            scope[node] = parents.pop() if parents else None
        return scope

    @staticmethod
    def _matching(entry: EntryNode, exit_: ExitNode) -> bool:
        return _scope_of(entry) is _scope_of(exit_)

    def scope_children(self) -> Dict[Optional[EntryNode], List[Node]]:
        """Inverse of :meth:`scope_dict`: entry -> nodes directly inside."""
        out: Dict[Optional[EntryNode], List[Node]] = {None: []}
        sd = self.scope_dict()
        for node in self.nodes():
            out.setdefault(sd.get(node), []).append(node)
        for entry in self.entry_nodes():
            out.setdefault(entry, [])
        return out

    def scope_subgraph(
        self, entry: EntryNode, include_scope_nodes: bool = True, scope_dict=None
    ) -> List[Node]:
        """All nodes in ``entry``'s scope, nested scopes included.

        ``scope_dict`` is this state's :meth:`scope_dict`, when the caller
        already holds it."""
        sd = scope_dict if scope_dict is not None else self.scope_dict()
        result: List[Node] = []
        for node in self.nodes():
            anc = sd.get(node)
            while anc is not None:
                if anc is entry:
                    result.append(node)
                    break
                anc = sd.get(anc)
        if include_scope_nodes:
            return [entry] + result
        exit_ = self.exit_node(entry)
        return [n for n in result if n is not exit_]

    def memlet_path(self, edge: Edge) -> List[Edge]:
        """The full relay chain of ``edge`` through scope connectors.

        Walks backward over ``OUT_k -> IN_k`` pairs to the originating
        node and forward to the final consumer.  Raises on ambiguous
        fan-out (use the per-branch edges directly in that case).
        """
        chain: List[Edge] = [edge]
        # Backward.
        cur = edge
        while isinstance(cur.src, (EntryNode, ExitNode)) and cur.src_conn:
            if not cur.src_conn.startswith("OUT_"):
                break
            in_conn = "IN_" + cur.src_conn[len("OUT_") :]
            cands = [e for e in self.in_edges(cur.src) if e.dst_conn == in_conn]
            if not cands:
                break
            cur = cands[0]
            chain.insert(0, cur)
        # Forward.
        cur = edge
        while isinstance(cur.dst, (EntryNode, ExitNode)) and cur.dst_conn:
            if not cur.dst_conn.startswith("IN_"):
                break
            out_conn = "OUT_" + cur.dst_conn[len("IN_") :]
            cands = [e for e in self.out_edges(cur.dst) if e.src_conn == out_conn]
            if not cands:
                break
            if len(cands) > 1:
                raise ValueError(
                    f"memlet path of {edge!r} fans out at {cur.dst!r}; "
                    "treat branches individually"
                )
            cur = cands[0]
            chain.append(cur)
        return chain

    def in_edges_by_connector(self, node: Node, conn: str) -> List[Edge]:
        return [e for e in self.in_edges(node) if e.dst_conn == conn]

    def out_edges_by_connector(self, node: Node, conn: str) -> List[Edge]:
        return [e for e in self.out_edges(node) if e.src_conn == conn]

    def copy(self, sdfg=None) -> "SDFGState":
        """A structural copy of this state, owned by ``sdfg``.

        Nodes, their connector sets, memlets and nested SDFGs are new,
        and so is each scope's Map or Consume object (one per scope,
        shared by the copied entry and exit).  Symbolic values (subsets,
        ranges, expressions) are immutable and shared.  Node order and
        every node's edge order are kept."""
        new = SDFGState(self.name, sdfg)
        new.instrument = self.instrument
        scopes: Dict[int, object] = {}
        nodes = {n: _copy_node(n, scopes, new) for n in self._nodes}
        self._copy_topology_into(new, nodes, Memlet.clone)
        return new

    def __repr__(self) -> str:
        return f"SDFGState({self.name!r})"


def _shallow(obj):
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    return new


def _copy_node(node: Node, scopes: Dict[int, object], state: SDFGState) -> Node:
    """``node`` copied into ``state`` (see :meth:`SDFGState.copy`);
    ``scopes`` maps each Map/Consume object already copied to its copy."""
    new = _shallow(node)
    new.in_connectors = set(node.in_connectors)
    new.out_connectors = set(node.out_connectors)
    new._creation_id = next(_node_counter)
    if isinstance(node, (MapEntry, MapExit, ConsumeEntry, ConsumeExit)):
        scope = _scope_of(node)
        copied = scopes.get(id(scope))
        if copied is None:
            copied = scopes[id(scope)] = _shallow(scope)
            if isinstance(scope, Map):
                copied.params = list(scope.params)
        if isinstance(node, (MapEntry, MapExit)):
            new.map = copied
        else:
            new.consume = copied
    elif isinstance(node, NestedSDFG):
        new.symbol_mapping = dict(node.symbol_mapping)
        new.sdfg = node.sdfg.copy()
        new.sdfg.parent = state
        new.sdfg.parent_node = new
    return new


def _scope_of(node: Union[EntryNode, ExitNode]) -> Union[Map, Consume]:
    """The Map or Consume object a scope node opens or closes."""
    return node.map if isinstance(node, (MapEntry, MapExit)) else node.consume


class _ScopeIndex:
    """A state's scope nodes with the Map/Consume object each held when
    indexed (compared by identity: MapExpansion and MapInterchange
    reassign ``.map`` without a structural change), the first entry
    and the first exit node of each object in node order, and the scope
    tree once :meth:`SDFGState.scope_dict` has built it."""

    __slots__ = (
        "maps", "map_objects", "consumes", "consume_objects", "entries", "exits", "tree"
    )

    def __init__(self, nodes: List[Node]):
        self.build(nodes)

    def build(self, nodes: List[Node]) -> None:
        self.maps = tuple(n for n in nodes if isinstance(n, (MapEntry, MapExit)))
        self.map_objects = tuple(n.map for n in self.maps)
        self.consumes = tuple(
            n for n in nodes if isinstance(n, (ConsumeEntry, ConsumeExit))
        )
        self.consume_objects = tuple(n.consume for n in self.consumes)
        self.entries: Dict[object, EntryNode] = {}
        self.exits: Dict[object, ExitNode] = {}
        for n in nodes:
            if isinstance(n, EntryNode):
                self.entries.setdefault(_scope_of(n), n)
            elif isinstance(n, ExitNode):
                self.exits.setdefault(_scope_of(n), n)
        self.tree: Optional[Dict[Node, Optional[EntryNode]]] = None

    def is_current(self) -> bool:
        # Maps and consumes apart, so the check runs in C: it runs on
        # every scope query.
        return all(map(is_, self.map_objects, map(_MAP, self.maps))) and (
            not self.consumes
            or all(map(is_, self.consume_objects, map(_CONSUME, self.consumes)))
        )


_MAP = attrgetter("map")
_CONSUME = attrgetter("consume")

"""Ordered directed multigraph with connector-labeled edges."""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

NodeT = TypeVar("NodeT", bound=Hashable)
EdgeDataT = TypeVar("EdgeDataT")


class GraphError(Exception):
    """Raised on structurally invalid graph operations."""


class Edge(Generic[NodeT, EdgeDataT]):
    """A directed edge with optional source/destination connectors.

    Connectors are the SDFG's attachment points (paper Appendix A.1):
    dataflow edges attach to named connectors on scope nodes and tasklets
    (``IN_x`` / ``OUT_x``, tasklet parameter names, stream ``push``/``pop``).
    """

    __slots__ = ("src", "src_conn", "dst", "dst_conn", "data")

    def __init__(
        self,
        src: NodeT,
        dst: NodeT,
        data: EdgeDataT,
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ):
        self.src = src
        self.dst = dst
        self.data = data
        self.src_conn = src_conn
        self.dst_conn = dst_conn

    def reversed(self) -> "Edge[NodeT, EdgeDataT]":
        return Edge(self.dst, self.src, self.data, self.dst_conn, self.src_conn)

    def __repr__(self) -> str:
        sc = f".{self.src_conn}" if self.src_conn else ""
        dc = f".{self.dst_conn}" if self.dst_conn else ""
        return f"Edge({self.src!r}{sc} -> {self.dst!r}{dc}: {self.data!r})"


class OrderedMultiDiGraph(Generic[NodeT, EdgeDataT]):
    """Directed multigraph preserving node and edge insertion order.

    Nodes may be any hashable objects; identity of a node in the graph is
    the object itself.  Parallel edges (same endpoints) are allowed and
    kept distinct as :class:`Edge` instances.

    The five mutators (:meth:`add_node` of a new node, :meth:`remove_node`,
    :meth:`add_edge`, :meth:`add_edge_object`, :meth:`remove_edge`) are
    the only code that changes the structure, apart from the copies,
    which fill an empty graph.  Each bumps :attr:`version` and drops the
    facts :meth:`cached` kept for the old structure (they would pin
    removed nodes and edges).
    """

    def __init__(self) -> None:
        # dict preserves insertion order; values unused.
        self._nodes: Dict[NodeT, None] = {}
        self._out: Dict[NodeT, List[Edge[NodeT, EdgeDataT]]] = {}
        self._in: Dict[NodeT, List[Edge[NodeT, EdgeDataT]]] = {}
        #: Structural version: bumped by every mutator.
        self.version = 0
        self._caches: Optional[Dict[str, Any]] = None

    def cached(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()``, kept until the structure changes.

        The value is shared between callers: hand out a copy of anything
        mutable.  A copied or unpickled graph starts with no cached facts.
        """
        caches = self._caches
        if caches is None:
            caches = self._caches = {}
        elif name in caches:
            return caches[name]
        value = caches[name] = compute()
        return value

    def _changed(self) -> None:
        self.version += 1
        self._caches = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_caches"] = None
        return state

    # -- nodes -----------------------------------------------------------------
    def add_node(self, node: NodeT) -> NodeT:
        if node not in self._nodes:
            self._nodes[node] = None
            self._out[node] = []
            self._in[node] = []
            self._changed()
        return node

    def remove_node(self, node: NodeT) -> None:
        if node not in self._nodes:
            raise GraphError(f"node {node!r} not in graph")
        for e in list(self._out[node]):
            self.remove_edge(e)
        for e in list(self._in[node]):
            self.remove_edge(e)
        del self._nodes[node]
        del self._out[node]
        del self._in[node]
        self._changed()

    def nodes(self) -> List[NodeT]:
        return list(self._nodes)

    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeT) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[NodeT]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- edges ------------------------------------------------------------------
    def add_edge(
        self,
        src: NodeT,
        dst: NodeT,
        data: EdgeDataT,
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ) -> Edge[NodeT, EdgeDataT]:
        self.add_node(src)
        self.add_node(dst)
        edge = Edge(src, dst, data, src_conn, dst_conn)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._changed()
        return edge

    def add_edge_object(self, edge: Edge[NodeT, EdgeDataT]) -> Edge[NodeT, EdgeDataT]:
        """Insert a pre-built Edge (used when re-wiring during transformations)."""
        self.add_node(edge.src)
        self.add_node(edge.dst)
        self._out[edge.src].append(edge)
        self._in[edge.dst].append(edge)
        self._changed()
        return edge

    def remove_edge(self, edge: Edge[NodeT, EdgeDataT]) -> None:
        self._changed()
        try:
            self._out[edge.src].remove(edge)
            self._in[edge.dst].remove(edge)
        except (KeyError, ValueError) as err:
            raise GraphError(f"edge {edge!r} not in graph") from err

    def edges(self) -> List[Edge[NodeT, EdgeDataT]]:
        out: List[Edge[NodeT, EdgeDataT]] = []
        for node in self._nodes:
            out.extend(self._out[node])
        return out

    def number_of_edges(self) -> int:
        return sum(len(v) for v in self._out.values())

    def out_edges(self, node: NodeT) -> List[Edge[NodeT, EdgeDataT]]:
        if node not in self._nodes:
            raise GraphError(f"node {node!r} not in graph")
        return list(self._out[node])

    def in_edges(self, node: NodeT) -> List[Edge[NodeT, EdgeDataT]]:
        if node not in self._nodes:
            raise GraphError(f"node {node!r} not in graph")
        return list(self._in[node])

    def all_edges(self, *nodes: NodeT) -> List[Edge[NodeT, EdgeDataT]]:
        """All edges incident to any of ``nodes`` (deduplicated, ordered)."""
        seen: Dict[int, Edge[NodeT, EdgeDataT]] = {}
        for n in nodes:
            for e in self.in_edges(n) + self.out_edges(n):
                seen.setdefault(id(e), e)
        return list(seen.values())

    def edges_between(self, src: NodeT, dst: NodeT) -> List[Edge[NodeT, EdgeDataT]]:
        if src not in self._nodes:
            return []
        return [e for e in self._out[src] if e.dst is dst or e.dst == dst]

    def out_degree(self, node: NodeT) -> int:
        return len(self._out[node])

    def in_degree(self, node: NodeT) -> int:
        return len(self._in[node])

    def successors(self, node: NodeT) -> List[NodeT]:
        seen: Dict[NodeT, None] = {}
        for e in self._out[node]:
            seen.setdefault(e.dst)
        return list(seen)

    def predecessors(self, node: NodeT) -> List[NodeT]:
        seen: Dict[NodeT, None] = {}
        for e in self._in[node]:
            seen.setdefault(e.src)
        return list(seen)

    # -- queries -----------------------------------------------------------------
    def source_nodes(self) -> List[NodeT]:
        return [n for n in self._nodes if not self._in[n]]

    def sink_nodes(self) -> List[NodeT]:
        return [n for n in self._nodes if not self._out[n]]

    def _copy_topology_into(
        self,
        other: "OrderedMultiDiGraph",
        nodes: Dict[NodeT, Any],
        copy_data: Callable[[EdgeDataT], Any],
    ) -> None:
        """Give ``other`` this graph's structure, replacing whatever it
        held, over the node copies ``nodes`` (original -> copy), each
        edge's data passed through ``copy_data``.  Node order and the
        order of every node's in- and out-edges are kept."""
        copies: Dict[int, Edge] = {}
        other._nodes = dict.fromkeys(nodes[n] for n in self._nodes)
        other._out = {}
        for n, out in self._out.items():
            row = other._out[nodes[n]] = []
            for e in out:
                new = Edge(nodes[e.src], nodes[e.dst], copy_data(e.data),
                           e.src_conn, e.dst_conn)
                copies[id(e)] = new
                row.append(new)
        other._in = {
            nodes[n]: [copies[id(e)] for e in ins] for n, ins in self._in.items()
        }
        other._changed()

    def copy_structure(self) -> "OrderedMultiDiGraph[NodeT, EdgeDataT]":
        """Shallow copy: same node/edge-data objects, fresh topology."""
        g: OrderedMultiDiGraph[NodeT, EdgeDataT] = OrderedMultiDiGraph()
        self._copy_topology_into(g, {n: n for n in self._nodes}, lambda data: data)
        return g

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )

"""Structured control flow for every generator: :class:`_ControlFlow`
recovers the loops, branches and dispatched regions of an SDFG's state
machine, and :class:`FlowEmitter` walks them in each generator's
:class:`Syntax` (Python; C++ and its CUDA and HLS dialects).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.codegen.common import CodeBuffer
from repro.graph import OrderedMultiDiGraph, postdominators
from repro.instrumentation import InstrumentationType
from repro.sdfg.data import Scalar, Stream
from repro.symbolic import Expr, Integer
from repro.symbolic.expr import Ge, Gt, Le, Lt, Not


class _Block(NamedTuple):
    """One state, then the edge leaving it (None: the program ends)."""

    state: object
    edge: object


class _Loop(NamedTuple):
    """``guard`` tests ``body_edge``'s condition: ``body`` runs back to
    ``guard`` while it holds, ``exit_edge`` (its complement) leaves."""

    guard: object
    body_edge: object
    exit_edge: object
    body: list


class _Branch(NamedTuple):
    """``if``/``else`` on ``state``'s two complementary edges; both arms
    run to the same join state."""

    state: object
    then_edge: object
    else_edge: object
    then: list
    orelse: list


class _Dispatch(NamedTuple):
    """The fallback: ``states``, entered at ``entry``, under the ``__next``
    dispatcher until an edge reaches ``exit`` (None: the program ends)."""

    states: list
    entry: object
    exit: object


class _Unstructured(Exception):
    """A region has no ``while``/``if`` form."""


#: Orderings whose negation is *not* exhaustive on NaN operands.
_ORDERINGS = (Lt, Le, Gt, Ge)


class _ControlFlow:
    """Recovers structured regions from an SDFG's interstate graph, the way
    the paper's code generator detects loops and branches (§4.3) and
    falls back to goto-style transitions only where it must.

    * straight-line chains: a state and its single unconditional edge;
    * natural loops whose head (the guard) has two complementary
      out-edges, one into the loop and one out of it, and whose body
      leaves only back to the guard — what ``SDFG.add_loop`` and the
      frontend's ``range``/``while`` loops build;
    * if/else diamonds: two complementary edges whose arms meet again at
      the branch state's immediate post-dominator (the frontend's ``if``).

    Edges are *complementary* when one condition is the negation of the
    other and exactly one of them holds for every input; ``a < b`` and
    ``a >= b`` are both false on NaN, so such a pair only qualifies over
    names that cannot hold NaN.  Any other region — a loop with a second
    exit, an irreducible graph, an edge set that is not exhaustive —
    becomes a :class:`_Dispatch` over the smallest enclosing region with a
    single entry and a single exit, up to the whole graph.
    """

    def __init__(self, sdfg):
        self.sdfg = sdfg
        #: States already placed in a region; a second visit means the
        #: region does not nest.
        self.seen: Set = set()

    def regions(self) -> list:
        # Never raises: at worst, every live state under one dispatcher.
        return self._sequence(self.sdfg.start_state, None)

    # ---------------------------------------------------------- analysis
    @functools.cached_property
    def live(self) -> Set:
        return self._reach(self.sdfg.start_state, ())

    @functools.cached_property
    def nan_free(self) -> Set[str]:
        return _nan_free_names(self.sdfg)

    def _reach(self, s, barrier) -> Set:
        """States reachable from ``s`` (included) without entering one of
        ``barrier``."""
        out = {s}
        work = [s]
        while work:
            for e in self.sdfg.out_edges(work.pop()):
                if e.dst not in out and e.dst not in barrier:
                    out.add(e.dst)
                    work.append(e.dst)
        return out

    @functools.cached_property
    def ipdom(self) -> Dict:
        """Immediate post-dominator of every state from which a terminal
        state is reachable (None: the program's end).  A state whose edges
        may all fail also ends the program, but that exit is left out:
        the dispatcher handles it in place."""
        graph = OrderedMultiDiGraph()
        graph.add_node(_END)
        for e in self.sdfg.edges():
            graph.add_edge(e.src, e.dst, None)
        for s in self.sdfg.nodes():
            if not self.sdfg.out_edges(s):
                graph.add_edge(s, _END, None)
        pdom = postdominators(graph, _END)
        ipdom = {}
        for n, doms in pdom.items():
            if n is not _END:
                strict = doms - {n}
                # The nearest is the one post-dominated by all the others.
                near = next(d for d in strict if pdom[d] == strict)
                ipdom[n] = None if near is _END else near
        return ipdom

    def _complementary(self, edges) -> bool:
        if len(edges) != 2:
            return False
        a, b = (e.data.condition for e in edges)
        if Not.make(a) != b and Not.make(b) != a:
            return False
        if isinstance(a, _ORDERINGS) and isinstance(b, _ORDERINGS):
            return all(s.name in self.nan_free for s in a.free_symbols)
        return True

    # --------------------------------------------------------- structure
    def _sequence(self, s, stop) -> list:
        """Regions from ``s`` until control reaches ``stop``.  A state that
        heads no structured region heads a dispatched one; when no region
        entered there is closed, the dispatcher starts at an earlier head
        of this sequence instead (and covers the state that failed)."""
        out: list = []
        heads: list = []  # (head state, states placed before it) per region
        while s is not None and s is not stop:
            heads.append((s, set(self.seen)))
            try:
                region, s = self._region(s, stop)
            except _Unstructured:
                failed = s
                while True:
                    head, placed = heads[-1]
                    self.seen = set(placed)
                    try:
                        region, s = self._dispatch(head, stop, failed)
                        break
                    except _Unstructured:
                        heads.pop()
                        if not heads:
                            raise
                del out[len(heads) - 1:]
            out.append(region)
        return out

    def _region(self, s, stop):
        """The structured region headed by ``s`` and the state after it."""
        if s in self.seen:
            raise _Unstructured(s)
        self.seen.add(s)
        edges = self.sdfg.out_edges(s)
        body = self._natural_loop(s, stop)
        if body is not None:
            inside = body | {s}
            if not self._complementary(edges):
                raise _Unstructured(s)
            enter, leave = edges if edges[0].dst in inside else edges[::-1]
            if enter.dst not in inside or leave.dst in inside or any(
                e.dst not in inside for n in body for e in self.sdfg.out_edges(n)
            ):
                raise _Unstructured(s)
            return _Loop(s, enter, leave, self._sequence(enter.dst, s)), leave.dst
        if not edges:
            if stop is not None:
                raise _Unstructured(s)
            return _Block(s, None), None
        if len(edges) == 1 and edges[0].data.is_unconditional():
            return _Block(s, edges[0]), edges[0].dst
        join = self.ipdom.get(s, _END)
        if not self._complementary(edges) or join is _END or (
            join is not stop and join not in self._reach(s, (stop,))
        ):
            raise _Unstructured(s)
        then, orelse = edges
        return _Branch(
            s, then, orelse,
            self._sequence(then.dst, join), self._sequence(orelse.dst, join),
        ), join

    def _natural_loop(self, s, stop) -> Optional[Set]:
        """The states of the loop ``s`` heads (without ``s``), or None when
        no edge returns to ``s`` inside the current region."""
        preds = self.sdfg.predecessors(s)
        if all(p in self.seen and p is not s for p in preds):
            return None  # entered only from placed states: straight-line
        ahead = self._reach(s, (stop,))
        latches = [p for p in preds if p in ahead]
        if not latches:
            return None
        body: Set = set()
        work = [p for p in latches if p is not s]
        while work:
            n = work.pop()
            if n not in body:
                body.add(n)
                work.extend(
                    p for p in self.sdfg.predecessors(n)
                    if p is not s and p in self.live
                )
        if not body <= ahead:
            raise _Unstructured(s)  # entered other than through ``s``
        return body

    def _dispatch(self, s, stop, cover):
        """The smallest region containing ``cover``, entered only at ``s``
        and left only to one post-dominator of ``s`` (at most ``stop``), as
        a dispatcher."""
        exits = []
        x = self.ipdom.get(s, stop)
        while x is not stop and x is not None:
            exits.append(x)
            x = self.ipdom.get(x, stop)
        exits.append(stop)
        for x in exits:
            region = self._reach(s, (x,))
            if cover not in region or region & self.seen or (
                stop is not None and stop in region
            ):
                continue
            if self._closed(region, s, x, stop):
                self.seen |= region
                states = [n for n in self.sdfg.nodes() if n in region]
                return _Dispatch(states, s, x), x
        raise _Unstructured(s)

    def _closed(self, region, s, x, stop) -> bool:
        """Control enters ``region`` only at ``s`` — and, once it has left,
        not again short of ``stop`` — and leaves it only to ``x``."""
        again = None
        for n in region:
            for e in self.sdfg.in_edges(n):
                if e.src in region or e.src not in self.live:
                    continue
                if n is not s:
                    return False
                again = again or self._reach(s, (stop,))
                if e.src in again:
                    return False
            if any(e.dst not in region and e.dst is not x
                   for e in self.sdfg.out_edges(n)):
                return False
        return True


#: The program's end, as a node of the reversed interstate graph.
_END = object()


def _nan_free_names(sdfg) -> Set[str]:
    """Names whose value cannot be NaN: integer/boolean symbols, containers
    and constants, and interstate symbols assigned only from such names."""
    free = {n for n, t in sdfg.symbols.items() if t.nptype.kind in "biu"}
    free |= {n for n, d in sdfg.arrays.items() if d.dtype.nptype.kind in "biu"}
    free |= {
        n for n, v in sdfg.constants.items()
        if isinstance(v, (int, np.integer))
    }
    assigned: Dict[str, List[Expr]] = {}
    for e in sdfg.edges():
        for name, value in e.data.assignments.items():
            assigned.setdefault(name, []).append(value)
    free -= set(assigned)
    pending = set(assigned)
    while True:
        bad = {
            n for n in pending
            if any(s.name not in free | pending
                   for v in assigned[n] for s in v.free_symbols)
        }
        if not bad:
            return free | pending
        pending -= bad


class Syntax(NamedTuple):
    """A language's statements for :class:`FlowEmitter`, as ``str.format``
    templates; ``expr(e, rename)`` renders a condition or a value."""

    expr: Callable
    while_: str
    true: str
    until: str  # leave the loop when condition {} is false
    if_: str
    else_: str
    end: str  # closes a block; "" where indentation does
    break_: str
    empty: str  # the body of an empty ``if`` arm
    iteration: str  # runs first in every loop iteration
    assign: str
    assign_all: str  # several assignments, all reading the old bindings
    scalar: str  # a one-element container, read in a condition
    enter: str  # a dispatcher starts at state {}
    case: Tuple[str, str]  # a dispatcher's first, and every later, state {} named {}
    jump: str  # to state {} of the dispatcher
    halt: str  # no edge is taken: the program ends


class FlowEmitter:
    """The one walk over :class:`_ControlFlow`'s regions.  A generator
    mixes it in with its ``_syntax`` and ``_emit_state_body``."""

    _syntax: Syntax
    #: Loops (structured or dispatched) around the code being emitted.
    _loop_depth = 0

    def _emit_states(self, sdfg, buf: CodeBuffer) -> None:
        if sdfg.start_state is not None:
            regions = _ControlFlow(sdfg).regions()
            self._emit_flow(sdfg, regions, buf, self._scalar_rename(sdfg))

    def _scalar_rename(self, sdfg) -> Dict[str, str]:
        """Rename map for conditions: scalar containers read elementwise."""
        out = {}
        for name, desc in sdfg.arrays.items():
            if isinstance(desc, Scalar) or (
                not isinstance(desc, Stream)
                and all(s == Integer(1) for s in desc.shape)
            ):
                out[name] = self._syntax.scalar.format(name)
        return out

    def _emit_flow(self, sdfg, regions, buf: CodeBuffer, rename) -> None:
        for r in regions:
            if isinstance(r, _Block):
                self._emit_state_body(sdfg, r.state, buf)
                if r.edge is not None:
                    self._emit_assignments(r.edge, buf, rename)
            elif isinstance(r, _Loop):
                self._emit_loop(sdfg, r, buf, rename)
            elif isinstance(r, _Branch):
                self._emit_branch(sdfg, r, buf, rename)
            else:
                self._emit_dispatch(sdfg, r, buf, rename)

    def _emit_loop(self, sdfg, loop: _Loop, buf: CodeBuffer, rename) -> None:
        """``while <cond>`` — or, when the guard state has dataflow of its
        own, ``while true`` running it before every test.  The exit
        edge's assignments follow the loop, so the loop variable keeps its
        exit value."""
        syn = self._syntax
        guard = loop.guard
        cond = syn.expr(loop.body_edge.data.condition, rename)
        bare = guard.number_of_nodes() == 0 and guard.instrument == InstrumentationType.NONE
        self._loop_depth += 1
        with buf.block(syn.while_.format(cond if bare else syn.true), syn.end):
            buf.lines(syn.iteration)
            if not bare:
                self._emit_state_body(sdfg, guard, buf)
                buf.lines(syn.until.format(cond))
            self._emit_assignments(loop.body_edge, buf, rename)
            self._emit_flow(sdfg, loop.body, buf, rename)
        self._loop_depth -= 1
        self._emit_assignments(loop.exit_edge, buf, rename)

    def _emit_branch(self, sdfg, br: _Branch, buf: CodeBuffer, rename) -> None:
        syn = self._syntax
        self._emit_state_body(sdfg, br.state, buf)
        arms = []
        for edge, regions in ((br.then_edge, br.then), (br.else_edge, br.orelse)):
            arm = CodeBuffer()
            self._emit_assignments(edge, arm, rename)
            self._emit_flow(sdfg, regions, arm, rename)
            arms.append(arm.getvalue().strip("\n"))
        then_src, else_src = arms
        if not then_src and not else_src:
            return
        cond = syn.expr(br.then_edge.data.condition, rename)
        with buf.block(syn.if_.format(cond), syn.end):
            buf.lines(then_src or syn.empty)
        if else_src:
            with buf.block(syn.else_, syn.end):
                buf.lines(else_src)

    def _emit_dispatch(self, sdfg, d: _Dispatch, buf: CodeBuffer, rename) -> None:
        """The fallback for a region with no structured form: one case per
        state, entered at ``d.entry``; an edge to the region's exit leaves
        the dispatcher, and a state none of whose edges is taken ends the
        program (the interpreter's semantics)."""
        syn = self._syntax
        index = {s: i for i, s in enumerate(sdfg.nodes())}
        buf.line(syn.enter.format(index[d.entry]))
        self._loop_depth += 1
        with buf.block(syn.while_.format(syn.true), syn.end):
            buf.lines(syn.iteration)
            for k, s in enumerate(d.states):
                with buf.block(syn.case[k > 0].format(index[s], s.name), syn.end):
                    self._emit_state_body(sdfg, s, buf)
                    for e in sdfg.out_edges(s):
                        exits = e.dst is d.exit
                        jump = syn.break_ if exits else syn.jump.format(index[e.dst])
                        if e.data.is_unconditional():
                            self._emit_assignments(e, buf, rename)
                            buf.line(jump)
                            break
                        cond = syn.expr(e.data.condition, rename)
                        with buf.block(syn.if_.format(cond), syn.end):
                            self._emit_assignments(e, buf, rename)
                            buf.line(jump)
                    else:
                        buf.line(syn.halt)
        self._loop_depth -= 1

    def _emit_assignments(self, edge, buf: CodeBuffer, rename) -> None:
        """An interstate edge's assignments as one statement: every
        right-hand side reads the old bindings, as in the interpreter."""
        assigns = edge.data.assignments
        if assigns:
            syn = self._syntax
            form = syn.assign if len(assigns) == 1 else syn.assign_all
            rhs = ", ".join(syn.expr(v, rename) for v in assigns.values())
            buf.line(form.format(", ".join(assigns), rhs))

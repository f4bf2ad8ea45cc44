"""Python/NumPy code generation — the primary executable backend.

Lowers an SDFG to a Python module with one function per (nested) SDFG.
Every map scope takes the first lowering whose preconditions its memlets
and tasklet meet, mirroring how the paper's CPU backend exploits the
representation's inherent parallelism (DESIGN.md §9 has the full ladder):

* **contraction** — a (scaled) product of two strided views summed into
  one sum-WCR output over exactly one parameter, marked or not: a single
  ``@`` (``np.matmul``, which dispatches to BLAS), planned from the
  operands' parameters alone (:func:`_contraction_plan`).
* **slice / gather** — one elementwise tasklet over point memlets affine
  in the map parameters: the whole domain evaluates at once over strided
  *views* (index arrays only for operands no basic slice can express).
  This is why *unoptimized* SDFGs still perform reasonably (paper §5).
* **predicated** — the same with a trailing ``if``/``else``: a mask,
  ``np.where`` merges and masked stores (also into streams).
* **scatter** — ``view[idx] op= val`` (histogram): ``np.<ufunc>.at``.
* **ragged** — a map nest with data-dependent inner bounds (SpMV): one
  evaluation over flat index vectors.
* **loop** — plain Python loops executing tasklet code verbatim;
  semantically complete (streams, consume scopes, dynamic ranges,
  indirection) and the only tier under ``sanitize=True``.

A large top-level map on the scatter tier runs in cache-sized strips of
its first parameter (:meth:`PythonGenerator._strip_plan`).  The tier
each map took is recorded in :attr:`PythonGenerator.lowering`.  Single
elements are reached as Python numbers where that computes what NumPy
scalars did (:mod:`repro.codegen.scalarpath`).
The interstate graph becomes structured ``while``/``if`` code wherever
its regions have that shape, and a ``__next`` state dispatcher where
they do not (:mod:`repro.codegen.controlflow`, shared with C++).
"""

from __future__ import annotations

import ast
import itertools
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codegen.common import (
    CodeBuffer,
    CodegenError,
    consumes,
    pycode,
    subset_to_py_index,
)
from repro.codegen import pytranslate, scalarpath
from repro.codegen.scalarpath import Element
from repro.codegen.chunking import Unchunkable, chunk_plan
from repro.codegen.controlflow import FlowEmitter, Syntax
from repro.graph import topological_sort
from repro.instrumentation import (
    InstrumentationType,
    scope_volume_expr,
    state_volume_expr,
    tasklet_volume_expr,
)
from repro.sdfg.data import Stream
from repro.sdfg.dtypes import Language, ReductionType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    EntryNode,
    ExitNode,
    MapEntry,
    NestedSDFG,
    Node,
    Reduce,
    Tasklet,
)
from repro.symbolic import Expr, Integer, Symbol
from repro.symbolic.expr import Add, Mul
from repro.symbolic.sets import Range as SymRange, linear_coefficient

#: Strips (DESIGN.md §9): a top-level scatter-tier map whose domain exceeds
#: ``STRIP_FLOOR`` points runs its one lowering once per strip of about
#: ``STRIP_POINTS`` points along its first parameter, so its temporaries
#: stay cache-sized; below the floor it runs as one strip.
STRIP_FLOOR = 1 << 18
STRIP_POINTS = 1 << 15


class PythonGenerator(FlowEmitter):
    """Generates a Python module implementing one SDFG."""

    #: Structured control flow, and the ``__next`` dispatcher where it has
    #: none; every iteration is a checkpoint the watchdog can cancel at.
    _syntax = Syntax(
        expr=pycode, while_="while {}:", true="True", until="if not {}:\n    break",
        if_="if {}:", else_="else:", end="", break_="break", empty="pass",
        iteration="if __guard is not None: __guard.checkpoint()",
        assign="{} = {}", assign_all="{} = {}", scalar="{}.flat[0]", enter="__next = {}",
        case=("if __next == {}:  # state {}", "elif __next == {}:  # state {}"),
        jump="__next = {}; continue", halt="return None",
    )

    def __init__(self, sdfg, vectorize: bool = True, sanitize: bool = False):
        from repro.diagnostics import Severity, make_diagnostic

        self.sdfg = sdfg
        #: ``sanitize=True`` routes every memlet access through the
        #: per-call ``__guard`` (see :mod:`repro.runtime.sanitizer`); the
        #: guards are per-element, so vectorized lowerings are disabled
        #: (a W702 explains the degradation).
        self.sanitize = sanitize
        #: ``vectorize=False`` forces the loop lowering everywhere — used
        #: by benchmarks to measure the vectorized paths' speedups.
        self.vectorize = vectorize and not sanitize
        #: Non-fatal lowering notes (e.g. W701 degradations); surfaced on
        #: the CompiledSDFG and in the compile report.
        self.diagnostics: List = []
        if sanitize and vectorize:
            self.diagnostics.append(
                make_diagnostic(
                    "W702",
                    "vectorized map lowerings are disabled under "
                    "sanitize=True (per-element access guards require the "
                    "loop tier); expect serial-loop performance",
                    Severity.WARNING,
                    sdfg=sdfg,
                )
            )
        self.wcr_ids: Dict[str, str] = {}
        self._fn_counter = itertools.count()
        self._tmp_counter = itertools.count()
        self._functions: List[str] = []
        self._nested_names: Dict[int, str] = {}
        self._need_custom_reduce = False
        self._current_fn = "main"
        self._lowering: Dict[int, Dict[str, Optional[str]]] = {}
        #: Scope -> (reads, writes) its NumPy tier analysed, as
        #: :class:`_Access` lists: the facts
        #: :func:`repro.codegen.chunking.chunk_plan` reads to decide strips.
        self._accesses: Dict[int, Tuple[List[_Access], List[_Access]]] = {}
        #: Scope -> the parameter its scatter lowering strips along.
        self._strip: Dict[int, str] = {}
        #: Map scope -> (lowered text, entry) of the fresh fill waiting for
        #: it (:meth:`_fill_target`); None once the map folded the fill away.
        self._fills: Dict[int, Optional[Tuple[str, MapEntry]]] = {}
        #: SDFG -> its transient Scalars that are Python locals.
        self._locals: Dict[int, Set[str]] = {}
        #: SDFG -> :func:`scalarpath.symbol_types`.
        self._symbol_types: Dict[int, Dict[str, str]] = {}

    # ------------------------------------------------------------------ API
    def generate(self) -> str:
        main = self._emit_sdfg_function(self.sdfg, "main", toplevel=True)
        if self._fills:  # every held-back fill precedes its map in one state
            raise CodegenError("a held-back fill was never emitted")
        buf = CodeBuffer()
        buf.line('"""Generated by repro.codegen.python_gen — do not edit."""')
        buf.line("import math")
        buf.line("import time")
        buf.line("import numpy as np")
        buf.line("from repro.runtime.streams import StreamArray, StreamQueue")
        if self._strip:
            buf.line("from repro.runtime.strips import strips as _strips")
        buf.line()
        buf.line("class _Unassigned:")
        buf.line("    pass")
        buf.line("_UNASSIGNED = _Unassigned()")
        buf.line()
        # Instrumentation quantities are symbolic expressions; a referenced
        # symbol may be unbound at the emission point (e.g. a loop symbol
        # before the first transition), matching the interpreter's guard.
        buf.line("def _instr_eval(fn):")
        buf.line("    try:")
        buf.line("        return int(fn())")
        buf.line("    except Exception:")
        buf.line("        return None")
        buf.line()
        if self._need_custom_reduce:
            # Loop fallback for Reduce nodes with a custom (non-ufunc) WCR;
            # fold order matches the reference interpreter.
            buf.line("def _custom_reduce(wcr, data, axes):")
            buf.line("    flat = np.moveaxis(data, axes, tuple(range(len(axes))))")
            buf.line("    flat = flat.reshape(-1, *flat.shape[len(axes):])")
            buf.line("    result = None")
            buf.line("    for row in flat:")
            buf.line("        result = row.copy() if result is None else wcr(result, row)")
            buf.line("    return result")
            buf.line()
        for wcr, name in self.wcr_ids.items():
            buf.line(f"{name} = {wcr}")
        buf.line()
        for fn in self._functions:
            buf.lines(fn)
            buf.line()
        buf.lines(main)
        return buf.getvalue()

    # ----------------------------------------------------------- helpers
    def _wcr_name(self, wcr: str) -> str:
        if wcr not in self.wcr_ids:
            self.wcr_ids[wcr] = f"_wcr_{len(self.wcr_ids)}"
        return self.wcr_ids[wcr]

    def _tmp(self, base: str = "t") -> str:
        return f"__{base}{next(self._tmp_counter)}"

    # ------------------------------------------------------ sanitizer helpers
    def _tkey(self, sdfg, data: str) -> Optional[str]:
        """Shadow-mask key for a transient array (None otherwise)."""
        desc = sdfg.arrays.get(data)
        if desc is None or not desc.transient or isinstance(desc, Stream):
            return None
        return f"{self._current_fn}.{data}"

    def _loc(self, sdfg, state=None, node=None) -> str:
        """Source literal of an (sdfg, state, node) location tuple."""
        parts = (
            sdfg.name,
            state.name if state is not None else None,
            getattr(node, "name", None) if node is not None else None,
        )
        return repr(parts)

    def _guard_load_src(self, sdfg, state, node, memlet: Memlet) -> str:
        idx = _subset_to_py_tuple(memlet.subset)
        mstr = f"{memlet.data}[{subset_to_py_index(memlet.subset)}]"
        return (
            f"__guard.load({memlet.data!r}, {memlet.data}, {idx}, {mstr!r}, "
            f"{self._loc(sdfg, state, node)}, {self._tkey(sdfg, memlet.data)!r})"
        )

    def _emit_guarded_store(
        self, buf, sdfg, state, node, memlet: Memlet, value: str, store: str
    ):
        """Emit a store gated on ``pre_store``: in raise mode a finding
        aborts inside the call; in collect mode False drops an
        out-of-bounds store instead of crashing on numpy's IndexError."""
        idx = _subset_to_py_tuple(memlet.subset)
        mstr = f"{memlet.data}[{subset_to_py_index(memlet.subset)}]"
        call = (
            f"__guard.pre_store({memlet.data!r}, {memlet.data}, {idx}, {value}, "
            f"{mstr!r}, {self._loc(sdfg, state, node)}, "
            f"{self._tkey(sdfg, memlet.data)!r}, "
            f"wcr={memlet.wcr is not None}, dynamic={memlet.dynamic})"
        )
        with buf.block(f"if {call}:"):
            buf.line(store)

    def _emit_mark_written(self, buf, sdfg, data: str) -> None:
        """Copies/reductions write whole subsets at once; mark the target
        transient written (conservatively, the full container) so later
        reads do not trip R803."""
        if not self.sanitize:
            return
        tkey = self._tkey(sdfg, data)
        if tkey is not None:
            buf.line(f"__guard.mark_written({tkey!r})")

    # --------------------------------------------------------- element access
    def _local_scalars(self, sdfg) -> Set[str]:
        """:func:`scalarpath.local_scalars` of ``sdfg``; none under
        ``sanitize`` (whose guards check arrays)."""
        if self.sanitize:
            return set()
        return scalarpath.per_sdfg(self._locals, sdfg, scalarpath.local_scalars)

    def _element(self, sdfg, data: str, index: str, python: bool = True) -> Element:
        """The one way generated code reaches a single element of ``data``
        (``index`` is its index source), in one of three forms:

        * a Scalar of :meth:`_local_scalars` is a Python local, which a
          caller computing on NumPy scalars (not ``python``) reads as
          ``np.float64(x)``;
        * a float64 container accessed inside a loop, where ``python``
          allows Python numbers, goes through ``__mv_<data>``, the
          memoryview the function makes once (:meth:`_emit_sdfg_function`);
        * anything else indexes the array as NumPy does."""
        if data in self._local_scalars(sdfg):
            return Element(data if python else f"np.float64({data})", data, True)
        desc = sdfg.arrays[data]
        mv = python and self._loop_depth and not self.sanitize
        if mv and desc.dtype.name == "float64" and not isinstance(desc, Stream):
            src = f"__mv_{data}[{index}]"
        else:
            src = f"{data}[{index}]"
        return Element(src, src, False)

    def _scalar_rename(self, sdfg) -> Dict[str, str]:
        """Conditions and interstate assignments read one-element
        containers as NumPy scalars, a Python local through
        ``np.float64``."""
        out = super()._scalar_rename(sdfg)
        for name in self._local_scalars(sdfg):
            out[name] = self._element(sdfg, name, "0", python=False).load
        return out

    # --------------------------------------------------------- SDFG function
    def _emit_sdfg_function(self, sdfg, fname: str, toplevel: bool) -> str:
        prev_fn, prev_depth = self._current_fn, self._loop_depth
        self._current_fn, self._loop_depth = fname, 0
        buf = CodeBuffer()
        arg_arrays, syms = sdfg.entry_abi()
        params = arg_arrays + [f"{s}" for s in syms] + [
            "__instr=None", "__guard=None",
        ]
        buf.line(f"def {fname}({', '.join(params)}):")
        buf.indent()
        for cname, cval in sdfg.constants.items():
            buf.line(f"{cname} = {cval!r}")
        # Allocate transients and internal streams.
        local = self._local_scalars(sdfg)
        for name, desc in sdfg.arrays.items():
            if not desc.transient and not isinstance(desc, Stream):
                continue
            if not desc.transient and isinstance(desc, Stream):
                continue  # externally-provided stream
            shape = "(" + ", ".join(pycode(s) for s in desc.shape) + ",)"
            if isinstance(desc, Stream):
                cap = pycode(desc.buffer_size)
                buf.line(f"{name} = StreamArray({shape}, {cap}, name={name!r})")
            elif name in local:
                buf.line(f"{name} = 0.0")
            else:
                buf.line(f"{name} = np.zeros({shape}, dtype=np.{desc.dtype.name})")
                buf.line(
                    f"if __guard is not None: "
                    f"__guard.on_alloc({f'{fname}.{name}'!r}, {name!r}, {name})"
                )
        body = CodeBuffer()
        self._emit_states(sdfg, body)
        buf.lines(scalarpath.memoryviews(sdfg, body.getvalue()))
        buf.lines(body.getvalue())
        buf.line("return None")
        buf.dedent()
        self._current_fn, self._loop_depth = prev_fn, prev_depth
        return buf.getvalue()

    # ------------------------------------------------- instrumentation helpers
    def _instr_expr_src(self, expr) -> str:
        """Render a symbolic quantity as a guarded runtime evaluation."""
        if expr is None:
            return "None"
        try:
            src = pycode(expr)
        except CodegenError:
            return "None"
        return f"_instr_eval(lambda: {src})"

    def _emit_instr_enter(self, buf, kind: str, label: str, itype) -> None:
        buf.line(
            f"if __instr is not None: "
            f"__instr.enter({kind!r}, {label!r}, {itype.name!r})"
        )

    def _emit_instr_exit(self, buf, itype, iterations_expr=None, volume_expr=None):
        iters = (
            self._instr_expr_src(iterations_expr)
            if itype.records_iterations()
            else "None"
        )
        vol = (
            self._instr_expr_src(volume_expr) if itype.records_volume() else "None"
        )
        buf.line(
            f"if __instr is not None: __instr.exit(iterations={iters}, volume={vol})"
        )

    # ------------------------------------------------------------ state body
    def _emit_state_body(self, sdfg, state, buf: CodeBuffer) -> None:
        itype = state.instrument
        instrumented = itype != InstrumentationType.NONE
        if instrumented:
            self._emit_instr_enter(buf, "state", state.name, itype)
        if state.number_of_nodes():
            order = topological_sort(state)
            scope_dict = state.scope_dict()
            top = [n for n in order if scope_dict.get(n) is None]
            self._emit_nodes(sdfg, state, top, buf, order, scope_dict, params=())
        if instrumented:
            self._emit_instr_exit(
                buf, itype, volume_expr=state_volume_expr(sdfg, state)
            )

    def _emit_nodes(
        self, sdfg, state, nodes: Sequence[Node], buf, order, scope_dict, params
    ) -> None:
        for node in nodes:
            if isinstance(node, ExitNode):
                continue
            if isinstance(node, EntryNode):
                # A fresh fill waits for the map it feeds, which may drop it.
                target = self._fill_target(state, node, scope_dict)
                pending = id(node) in self._fills
                scope = CodeBuffer() if target is not None or pending else buf
                self._emit_scope(sdfg, state, node, scope, order, scope_dict, params)
                if target is not None:
                    self._fills[id(target)] = (scope.getvalue(), node)
                elif pending:
                    fill = self._fills.pop(id(node))
                    buf.lines(fill[0] if fill else "")
                    buf.lines(scope.getvalue())
            elif isinstance(node, Tasklet):
                self._emit_tasklet(sdfg, state, node, buf, params)
            elif isinstance(node, Reduce):
                self._emit_reduce(sdfg, state, node, buf)
            elif isinstance(node, NestedSDFG):
                self._emit_nested_call(sdfg, state, node, buf)
            elif isinstance(node, AccessNode):
                self._emit_copies(sdfg, state, node, buf)
            else:
                raise CodegenError(f"python backend cannot lower {node!r}")

    # ----------------------------------------------------------------- scopes
    def _emit_scope(self, sdfg, state, entry, buf, order, scope_dict, params):
        body = [n for n in order if scope_dict.get(n) is entry]
        if isinstance(entry, MapEntry):
            # Load data-dependent range inputs first.
            for conn in sorted(entry.in_connectors):
                if conn.startswith("IN_"):
                    continue
                edges = state.in_edges_by_connector(entry, conn)
                if edges:
                    mem = edges[0].data
                    idx = subset_to_py_index(mem.subset)
                    src = self._element(sdfg, mem.data, idx, python=False).load
                    buf.line(f"{conn} = {src}")
            itype = entry.map.instrument
            instrumented = itype != InstrumentationType.NONE
            if instrumented:
                self._emit_instr_enter(buf, "map", entry.map.label, itype)
            self._emit_map(sdfg, state, entry, body, buf, order, scope_dict, params)
            if instrumented:
                self._emit_instr_exit(
                    buf,
                    itype,
                    iterations_expr=entry.map.num_iterations(),
                    volume_expr=scope_volume_expr(sdfg, state, entry),
                )
        else:
            self._emit_consume(sdfg, state, entry, body, buf, order, scope_dict, params)

    def _emit_map(self, sdfg, state, entry, body, buf, order, scope_dict, params) -> None:
        """Map lowering: vectorized tiers, then the loop."""
        if self._try_vectorized_map(
            sdfg, state, entry, body, buf, order, scope_dict, strip=not params
        ):
            return
        new_params = params + tuple(entry.map.params)
        inner: CodeBuffer = buf
        if self.sanitize:
            inner.line(f"__guard.map_enter({entry.map.label!r})")
        for depth, (p, rng) in enumerate(entry.map.param_ranges().items()):
            start, stop, step = pycode(rng.start), pycode(rng.end), pycode(rng.step)
            inner.line(f"for {p} in range({start}, {stop}, {step}):")
            inner.indent()
            if depth == 0 and not self.sanitize:
                # Watchdog checkpoint per outermost map iteration.
                inner.line("if __guard is not None: __guard.checkpoint()")
        if self.sanitize:
            iters = ", ".join(entry.map.params)
            inner.line(f"__guard.map_iter(({iters},))")
        self._loop_depth += 1
        self._emit_nodes(sdfg, state, body, inner, order, scope_dict, new_params)
        self._loop_depth -= 1
        if not body or all(isinstance(n, ExitNode) for n in body):
            inner.line("pass")
        for _ in entry.map.params:
            inner.dedent()
        if self.sanitize:
            inner.line("__guard.map_exit()")

    def _emit_consume(self, sdfg, state, entry, body, buf, order, scope_dict, params):
        consume = entry.consume
        stream_edge = state.in_edges_by_connector(entry, "IN_stream")[0]
        sname = stream_edge.data.data
        itype = consume.instrument
        instrumented = itype != InstrumentationType.NONE
        cnt = self._tmp("consumed")
        if instrumented:
            self._emit_instr_enter(buf, "consume", consume.label, itype)
            buf.line(f"{cnt} = 0")
        qvar = self._tmp("queue")
        buf.line(f"{qvar} = {sname}[0] if isinstance({sname}, StreamArray) else {sname}")
        if consume.condition:
            from repro.symbolic import parse_expr

            cond = parse_expr(consume.condition)
            rename = self._scalar_rename(sdfg)
            rename[f"len_{sname}"] = f"len({qvar})"
            cond_src = pycode(cond, rename)
        else:
            cond_src = f"len({qvar}) == 0"
        elem_var = f"__elem_{sname}"
        with buf.block(f"while not ({cond_src}):"):
            buf.line("if __guard is not None: __guard.checkpoint()")
            with buf.block(f"for {consume.pe_param} in range({pycode(consume.num_pes)}):"):
                buf.line(f"if not {qvar}: break")
                buf.line(f"{elem_var} = {qvar}.pop()")
                if instrumented:
                    buf.line(f"{cnt} += 1")
                self._loop_depth += 1
                self._emit_nodes(
                    sdfg,
                    state,
                    body,
                    buf,
                    order,
                    scope_dict,
                    params + (consume.pe_param,),
                )
                self._loop_depth -= 1
        if instrumented:
            iters = cnt if itype.records_iterations() else "None"
            vol = (
                self._instr_expr_src(scope_volume_expr(sdfg, state, entry))
                if itype.records_volume()
                else "None"
            )
            buf.line(
                f"if __instr is not None: "
                f"__instr.exit(iterations={iters}, volume={vol})"
            )

    # -------------------------------------------------------------- tasklets
    def _emit_tasklet(self, sdfg, state, node: Tasklet, buf, params) -> None:
        if node.language != Language.Python:
            raise CodegenError("python backend requires Python tasklets")
        itype = node.instrument
        if itype != InstrumentationType.NONE:
            self._emit_instr_enter(buf, "tasklet", node.name, itype)
        # Rename connectors that collide with container/symbol/param names.
        taken = set(sdfg.arrays) | set(sdfg.symbols) | set(params)
        rename: Dict[str, str] = {}
        for conn in sorted(node.in_connectors | node.out_connectors):
            if conn in taken:
                rename[conn] = f"__c_{conn}"
        code = node.code
        if rename:
            code = _rename_identifiers(code, rename)

        def cname(c: str) -> str:
            return rename.get(c, c)

        out_stream_vars: Dict[str, str] = {}
        number = None if self.sanitize else scalarpath.tasklet_numbers(
            sdfg, state, node, code, cname, params,
            scalarpath.per_sdfg(self._symbol_types, sdfg, scalarpath.symbol_types),
        )
        python = number is not None
        # Inputs.
        for e in state.in_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            if isinstance(desc, Stream):
                if consumes(state, node, e.data.data):
                    buf.line(f"{cname(e.dst_conn)} = __elem_{e.data.data}")
                else:
                    buf.line(
                        f"{cname(e.dst_conn)} = {self._queue_expr(e.data)}"
                    )
            elif self.sanitize:
                buf.line(
                    f"{cname(e.dst_conn)} = "
                    f"{self._guard_load_src(sdfg, state, node, e.data)}"
                )
            else:
                load = self._tasklet_element(sdfg, e.data, python).load
                buf.line(f"{cname(e.dst_conn)} = {load}")
        # Pre-bind outputs for dynamic-write detection / stream push.
        for e in state.out_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            conn = cname(e.src_conn)
            if isinstance(desc, Stream):
                qv = self._tmp("q")
                buf.line(f"{qv} = {self._queue_expr(e.data)}")
                buf.line(f"{conn} = {qv}")
                out_stream_vars[e.src_conn] = qv
            elif e.data.dynamic:
                buf.line(f"{conn} = _UNASSIGNED")
        # Inline tasklet code: a statement that may raise on Python numbers
        # recomputes on NumPy scalars when it does.
        stmts, types = number or ((), {})
        buf.lines(scalarpath.body_source(code, stmts))
        # Outputs.
        for e in state.out_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            conn = cname(e.src_conn)
            if isinstance(desc, Stream):
                qv = out_stream_vars[e.src_conn]
                buf.line(f"if {conn} is not {qv}: {qv}.push({conn})")
                continue
            el = self._tasklet_element(sdfg, e.data, python)
            vtype = types.get(conn)
            if e.data.wcr is not None:
                rtype = e.data.reduction_type()
                exact = vtype is not None
                if rtype == ReductionType.Sum:
                    store = el.store(conn, "+", exact)
                elif rtype == ReductionType.Product:
                    store = el.store(conn, "*", exact)
                else:
                    w = self._wcr_name(e.data.wcr)
                    store = el.store(f"{w}({el.load}, {conn})")
            else:
                store = el.store(conn, exact=vtype == "f")
            if e.data.dynamic:
                if self.sanitize:
                    with buf.block(f"if {conn} is not _UNASSIGNED:"):
                        self._emit_guarded_store(
                            buf, sdfg, state, node, e.data, conn, store
                        )
                else:
                    buf.line(f"if {conn} is not _UNASSIGNED: {store}")
            elif self.sanitize:
                self._emit_guarded_store(buf, sdfg, state, node, e.data, conn, store)
            else:
                buf.line(store)
        if itype != InstrumentationType.NONE:
            self._emit_instr_exit(
                buf, itype, volume_expr=tasklet_volume_expr(sdfg, state, node)
            )

    def _tasklet_element(self, sdfg, memlet: Memlet, python: bool) -> Element:
        """A tasklet connector's memlet: one element (:meth:`_element`),
        or the NumPy view of a range."""
        idx = subset_to_py_index(memlet.subset)
        if memlet.subset.is_point():
            return self._element(sdfg, memlet.data, idx, python)
        src = f"{memlet.data}[{idx}]"
        return Element(src, src, False)

    def _queue_expr(self, memlet: Memlet) -> str:
        if memlet.subset is not None and memlet.subset.is_point():
            idx = ", ".join(pycode(r.start) for r in memlet.subset.ranges)
            return f"{memlet.data}[({idx},)]"
        return f"{memlet.data}[0]"

    # ---------------------------------------------------------------- reduce
    _UFUNC = {
        ReductionType.Sum: "np.add",
        ReductionType.Product: "np.multiply",
        ReductionType.Min: "np.minimum",
        ReductionType.Max: "np.maximum",
    }

    def _emit_reduce(self, sdfg, state, node: Reduce, buf) -> None:
        in_e = state.in_edges(node)[0]
        out_e = state.out_edges(node)[0]
        from repro.sdfg.dtypes import detect_reduction_type

        rtype = detect_reduction_type(node.wcr)
        ufunc = self._UFUNC.get(rtype)
        src = f"{in_e.data.data}[{subset_to_py_index(in_e.data.subset)}]"
        axes = node.axes
        ndim = in_e.data.subset.dims
        if axes is None:
            axes = tuple(range(ndim))
        axes_src = "(" + ", ".join(map(str, axes)) + ",)"
        dst_idx = subset_to_py_index(out_e.data.subset)
        if ufunc is None:
            # Custom WCR: no ufunc equivalent — degrade to the scalar
            # fold loop instead of failing the whole compilation.
            from repro.diagnostics import Severity, make_diagnostic

            self.diagnostics.append(
                make_diagnostic(
                    "W701",
                    f"custom reduction {node.wcr!r} has no ufunc lowering; "
                    "using the scalar loop path",
                    Severity.WARNING,
                    sdfg=sdfg,
                    state=state,
                    node=node,
                    data=out_e.data.data,
                )
            )
            self._need_custom_reduce = True
            w = self._wcr_name(node.wcr)
            red = f"_custom_reduce({w}, np.asarray({src}), {axes_src})"
            if node.identity is not None:
                red = (
                    f"{w}(np.asarray({node.identity!r}, "
                    f"dtype=np.asarray({src}).dtype), {red})"
                )
        else:
            red = f"{ufunc}.reduce(np.asarray({src}), axis={axes_src})"
        if out_e.data.wcr is not None:
            w_rtype = out_e.data.reduction_type()
            uf = self._UFUNC.get(w_rtype)
            if uf is None:
                w = self._wcr_name(out_e.data.wcr)
                buf.line(
                    f"{out_e.data.data}[{dst_idx}] = "
                    f"{w}({out_e.data.data}[{dst_idx}], {red})"
                )
            else:
                buf.line(f"{out_e.data.data}[{dst_idx}] = {uf}({out_e.data.data}[{dst_idx}], {red})")
        else:
            buf.line(f"{out_e.data.data}[{dst_idx}] = {red}")
        self._emit_mark_written(buf, sdfg, out_e.data.data)

    # ------------------------------------------------------------ nested SDFG
    def _emit_nested_call(self, sdfg, state, node: NestedSDFG, buf) -> None:
        key = id(node.sdfg)
        if key not in self._nested_names:
            fname = f"_nested_{node.sdfg.name}_{next(self._fn_counter)}"
            self._nested_names[key] = fname
            self._functions.append(
                self._emit_sdfg_function(node.sdfg, fname, toplevel=False)
            )
        fname = self._nested_names[key]
        conn_views: Dict[str, str] = {}
        for e in state.in_edges(node):
            if e.data.is_empty() or e.dst_conn is None:
                continue
            conn_views[e.dst_conn] = (
                f"{e.data.data}[{_slices_only(e.data)}]"
            )
        for e in state.out_edges(node):
            if e.data.is_empty() or e.src_conn is None:
                continue
            conn_views.setdefault(
                e.src_conn, f"{e.data.data}[{_slices_only(e.data)}]"
            )
        inner = node.sdfg
        arg_arrays, syms = inner.entry_abi()
        args = []
        for a in arg_arrays:
            if a not in conn_views:
                raise CodegenError(
                    f"nested SDFG argument {a!r} has no connected memlet"
                )
            args.append(conn_views[a])
        for s in syms:
            if s in node.symbol_mapping:
                args.append(pycode(node.symbol_mapping[s]))
            else:
                args.append(s)
        args.append("__instr=__instr")
        args.append("__guard=__guard")
        itype = node.sdfg.instrument
        if itype != InstrumentationType.NONE:
            self._emit_instr_enter(buf, "sdfg", node.sdfg.name, itype)
        buf.line(f"{fname}({', '.join(args)})")
        if itype != InstrumentationType.NONE:
            self._emit_instr_exit(buf, itype)

    # ----------------------------------------------------------------- copies
    def _emit_copies(self, sdfg, state, node: AccessNode, buf) -> None:
        for e in state.in_edges(node):
            if e.data.is_empty():
                continue
            if isinstance(e.src, EntryNode) and e.data.data != node.data:
                # Scope-boundary fill copy (LocalStorage).
                didx = _slices_only(
                    Memlet(
                        data=node.data,
                        subset=e.data.other_subset
                        or sdfg.arrays[node.data].full_subset(),
                    )
                )
                sidx = _slices_only(e.data)
                buf.line(
                    f"{node.data}[{didx}] = np.asarray({e.data.data}[{sidx}])"
                    f".reshape({node.data}[{didx}].shape)"
                )
                self._emit_mark_written(buf, sdfg, node.data)
                continue
            if not isinstance(e.src, AccessNode):
                continue
            src, dst = e.src, e.dst
            src_desc, dst_desc = sdfg.arrays[src.data], sdfg.arrays[dst.data]
            m = e.data
            if m.data == src.data:
                ssub, dsub = m.subset, m.other_subset
            else:
                ssub, dsub = m.other_subset, m.subset
            sidx = _slices_only(Memlet(data=src.data, subset=ssub or src_desc.full_subset()))
            didx = _slices_only(Memlet(data=dst.data, subset=dsub or dst_desc.full_subset()))
            if isinstance(src_desc, Stream) and isinstance(dst_desc, Stream):
                buf.line(f"{dst.data}[0].push_many({src.data}[0].drain())")
                continue
            if isinstance(src_desc, Stream) and not isinstance(dst_desc, Stream):
                vv = self._tmp("vals")
                buf.line(f"{vv} = {src.data}[0].drain()")
                msg = (
                    f"stream {src.data!r} drains %d elements into "
                    f"{dst.data!r}, which holds %d"
                )
                with buf.block(f"if len({vv}) > {dst.data}.size:"):
                    buf.line(
                        f"raise ValueError({msg!r} % (len({vv}), {dst.data}.size))"
                    )
                # ``flat`` writes through for any layout; ``reshape(-1)`` of
                # a non-contiguous array is a copy and drops every element.
                buf.line(f"{dst.data}.flat[:len({vv})] = {vv}")
                self._emit_mark_written(buf, sdfg, dst.data)
                continue
            if isinstance(dst_desc, Stream) and not isinstance(src_desc, Stream):
                buf.line(
                    f"{dst.data}[0].push_many("
                    f"np.asarray({src.data}[{sidx}]).reshape(-1))"
                )
                continue
            src_expr = f"np.asarray({src.data}[{sidx}])"
            if m.wcr is not None:
                w = self._wcr_name(m.wcr)
                buf.line(
                    f"{dst.data}[{didx}] = {w}({dst.data}[{didx}], "
                    f"{src_expr}.reshape({dst.data}[{didx}].shape))"
                )
            else:
                buf.line(
                    f"{dst.data}[{didx}] = {src_expr}.reshape({dst.data}[{didx}].shape)"
                )
            self._emit_mark_written(buf, sdfg, dst.data)
        # Scope-boundary copy-back (LocalStorage store): other_subset
        # addresses the relay path's final destination access node.
        for e in state.out_edges(node):
            if (
                e.data.is_empty()
                or not isinstance(e.dst, ExitNode)
                or e.data.other_subset is None
                or e.data.data != node.data
            ):
                continue
            path = state.memlet_path(e)
            final = path[-1].dst
            if not isinstance(final, AccessNode):
                continue
            if isinstance(sdfg.arrays[node.data], Stream) and isinstance(
                sdfg.arrays[final.data], Stream
            ):
                buf.line(f"{final.data}[0].push_many({node.data}[0].drain())")
                continue
            sidx = _slices_only(e.data)
            didx = _slices_only(Memlet(data=final.data, subset=e.data.other_subset))
            src_expr = f"np.asarray({node.data}[{sidx}])"
            if e.data.wcr is not None:
                w = self._wcr_name(e.data.wcr)
                buf.line(
                    f"{final.data}[{didx}] = {w}({final.data}[{didx}], "
                    f"{src_expr}.reshape({final.data}[{didx}].shape))"
                )
            else:
                buf.line(
                    f"{final.data}[{didx}] = {src_expr}"
                    f".reshape({final.data}[{didx}].shape)"
                )
            self._emit_mark_written(buf, sdfg, final.data)

    # ------------------------------------------------- whole-domain lowerings
    @property
    def lowering(self) -> List[Dict[str, Optional[str]]]:
        """The tier census: one ``{map, state, tier, reason}`` row per map
        scope, in emission order (``reason`` is set for ``loop`` only)."""
        return list(self._lowering.values())

    def _record_tier(self, state, entry, tier: str, reason: Optional[str] = None):
        # Keyed by scope: a ragged map records its absorbed inner map too.
        self._lowering[id(entry)] = {
            "map": entry.map.label,
            "state": state.name,
            "tier": tier,
            "reason": reason,
        }

    def _try_vectorized_map(
        self, sdfg, state, entry, body, buf, order, scope_dict, strip=False
    ) -> bool:
        """Emit a whole-domain NumPy evaluation of the map if one applies,
        and record the tier taken (or ``loop`` and the first precondition
        that failed) in the census.  ``strip`` lets the scatter tier strip
        the map (:meth:`_strip_plan`)."""
        scratch = CodeBuffer()
        try:
            tier = self._lower_whole_domain(
                sdfg, state, entry, body, scratch, order, scope_dict, strip
            )
        except (_Reject, CodegenError) as why:
            self._strip.pop(id(entry), None)
            self._record_tier(state, entry, "loop", str(why))
            return False
        buf.lines(scratch.getvalue())
        self._record_tier(state, entry, tier)
        return True

    def _lower_whole_domain(
        self, sdfg, state, entry, body, buf, order, scope_dict, strip=False
    ) -> str:
        """Emit the map into ``buf`` and return its tier, or raise
        :class:`_Reject`.  Nothing emitted before a rejection survives.
        ``strip`` lets the scatter tier strip the map (:meth:`_strip_plan`)."""
        if not self.vectorize:
            raise _Reject(
                "sanitize=True keeps the per-element loop tier"
                if self.sanitize
                else "vectorize=False"
            )
        inner = [n for n in body if not isinstance(n, ExitNode)]
        if len(inner) == 1 and isinstance(inner[0], MapEntry):
            tier = self._lower_ragged(
                sdfg, state, entry, inner[0], buf, order, scope_dict
            )
            # The absorbed inner map gets its own row, after its parent's.
            self._record_tier(state, entry, tier)
            self._record_tier(state, inner[0], tier)
            return tier
        if len(inner) != 1 or not isinstance(inner[0], Tasklet):
            raise _Reject(
                f"scope body is {len(inner)} nodes, not one tasklet or one "
                "ragged inner map"
            )
        return self._lower_tasklet_map(sdfg, state, entry, inner[0], buf, strip)

    @staticmethod
    def _check_tasklet(tasklet: Tasklet, params) -> None:
        if tasklet.language != Language.Python:
            raise _Reject(f"tasklet {tasklet.name!r} is not Python")
        # Instrumented tasklets need per-firing events, so that counts
        # match the reference interpreter.
        if tasklet.instrument != InstrumentationType.NONE:
            raise _Reject(f"tasklet {tasklet.name!r} is instrumented")
        # Parameters become index arrays that loads and stores share.
        tree = pytranslate.parse_tasklet(tasklet.code)
        if pytranslate.assigned_names(tree) & set(params):
            raise _Reject(f"tasklet {tasklet.name!r} assigns a map parameter")

    @staticmethod
    def _affine_point(memlet: Memlet, mparams):
        a = _analyze_subset(memlet, mparams)
        if a is None:
            raise _Reject(
                f"memlet {_memlet_str(memlet)} is not a point affine in one "
                "map parameter per dimension"
            )
        return a

    def _strip_plan(self, sdfg, entry, pranges, strip: bool):
        """The strip decision the scatter tier takes right after it
        recorded the map's accesses: ``(ranges to emit with, whole
        ranges)``.  A map
        that strips emits with its first parameter bound to ``__lo:__hi``
        and passes ``pranges`` on as the whole ranges; any other map gets
        ``(pranges, None)``.  Only a top-level map (``strip``) strips, and
        only along its first parameter, when
        :func:`~repro.codegen.chunking.chunk_plan` accepts that parameter:
        its strips store disjoint points, none reads what another stores,
        and nothing reads what the map accumulates into, so strips run in
        order equal the whole domain at once.  A domain of at most
        ``STRIP_FLOOR`` constant points never strips."""
        if not strip:
            return pranges, None
        m = entry.map
        sizes = [
            len(range(r.start.value, r.end.value, r.step.value))
            for r in m.range.ranges
            if all(isinstance(x, Integer) for x in (r.start, r.end, r.step))
        ]
        if len(sizes) == len(m.params) and math.prod(sizes) <= STRIP_FLOOR:
            return pranges, None
        try:
            param = chunk_plan(sdfg, m, *self._accesses[id(entry)])
        except Unchunkable:
            return pranges, None
        if param != m.params[0]:
            return pranges, None
        self._strip[id(entry)] = param
        stripped = dict(pranges)
        stripped[param] = SymRange(Symbol("__lo"), Symbol("__hi"), pranges[param].step)
        return stripped, pranges

    def _emit_domain_header(self, buf, mparams, pranges, index_params, whole=None) -> None:
        """Trip counts, the emptiness guard (left open: the caller
        dedents) and the index arrays of ``index_params``.  Empty domains
        are no-ops, which also keeps reductions without identity and
        wrapped slice bounds unevaluated.  A stripped map
        (:meth:`_strip_plan`) counts its ``whole`` ranges and opens the
        strip loop inside the guard (left open too): one strip up to
        ``STRIP_FLOOR`` points, strips of the first parameter above."""
        for p in mparams:
            r = (whole or pranges)[p]
            lo, hi = pycode(r.start), pycode(r.end)
            if r.step != Integer(1):
                count = f"len(range({lo}, {hi}, {pycode(r.step)}))"
            else:  # the guard below drops a negative count
                count = hi if r.start == Integer(0) else f"{hi} - {lo}"
            buf.line(f"__n_{p} = {count}")
        buf.line("if " + " and ".join(f"__n_{p} > 0" for p in mparams) + ":")
        buf.indent()
        if whole is not None:
            p0, r = mparams[0], whole[mparams[0]]
            lo, hi, step = pycode(r.start), pycode(r.end), pycode(r.step)
            points = " * ".join(f"__n_{p}" for p in mparams)
            inner = " * ".join(f"__n_{p}" for p in mparams[1:]) or "1"
            buf.line(
                f"for __lo, __hi, __n_{p0} in (({lo}, {hi}, __n_{p0}),) "
                f"if {points} <= {STRIP_FLOOR} else "
                f"_strips({lo}, {hi}, {step}, {inner}, {STRIP_POINTS}):"
            )
            buf.indent()
        for axis, p in enumerate(mparams):
            if p not in index_params:
                continue
            r = pranges[p]
            shape = ["1"] * len(mparams)
            shape[axis] = "-1"
            buf.line(
                f"__ix_{p} = np.arange({pycode(r.start)}, {pycode(r.end)}, "
                f"{pycode(r.step)})"
            )
            buf.line(f"__bix_{p} = __ix_{p}.reshape({', '.join(shape)})")

    def _domain_load(
        self, sdfg, memlet: Memlet, analysis, mparams, pranges, gathers: Set[str],
        python: bool = False,
    ) -> Tuple[str, bool]:
        """Source of a memlet's value over the whole domain, axes in
        map-parameter order with a size-1 axis per unused parameter, and
        whether it is a view.  Strided views wherever the analysis proves
        ``c*p + d`` with positive integer ``c``; the parameters of any
        other memlet join ``gathers`` and it indexes through their arrays.
        A point is one element (:meth:`_element`, as a Python number where
        ``python`` allows)."""
        sl = _slice_index(analysis, pranges)
        if sl is None:
            gathers.update(_memlet_params(analysis))
            bcast = {p: f"__bix_{p}" for p in mparams}
            return self._bcast_index_expr(memlet, analysis, bcast), False
        idx, axes = sl
        if not axes:
            return self._element(sdfg, memlet.data, idx, python).load, False
        transpose, expand = _axes_suffix(axes, mparams)
        # A transposed operand that is also reused along a parameter it
        # lacks would be re-read with a long stride once per reuse: one
        # contiguous copy (what a gather produced) is cheaper.
        copy = ".copy()" if transpose and expand else ""
        src = f"{memlet.data}[{idx}]{transpose}{copy}{expand}"
        return src, bool(axes) and not copy

    def _lower_tasklet_map(
        self, sdfg, state, entry, tasklet: Tasklet, buf, strip=False
    ) -> str:
        """Single-tasklet maps: contraction, slice/gather, predicated, or —
        for indexed updates — the WCR scatter."""
        mparams = entry.map.params
        self._check_tasklet(tasklet, mparams)
        if not pytranslate.is_vectorizable_tasklet(tasklet.code):
            return self._lower_wcr_scatter(sdfg, state, entry, tasklet, buf, strip)
        pranges = entry.map.param_ranges()
        in_edges = [e for e in state.in_edges(tasklet) if not e.data.is_empty()]
        out_edges = [e for e in state.out_edges(tasklet) if not e.data.is_empty()]
        if not out_edges:
            raise _Reject(f"tasklet {tasklet.name!r} has no outputs")
        always, conditional = pytranslate.assignment_summary(tasklet.code)
        analyses = {}
        streams: Set[str] = set()
        for e in in_edges:
            if e.data.dynamic or isinstance(sdfg.arrays[e.data.data], Stream):
                raise _Reject(f"input {_memlet_str(e.data)} is dynamic or a stream")
            analyses[id(e.data)] = self._affine_point(e.data, mparams)
        for e in out_edges:
            mem, conn = e.data, e.src_conn
            if conn not in always and conn not in conditional:
                raise _Reject(f"output {conn!r} is never assigned")
            if conn in conditional and not mem.dynamic:
                raise _Reject(
                    f"output {conn!r} is assigned on one branch only but "
                    f"{_memlet_str(mem)} is not dynamic"
                )
            a = analyses[id(mem)] = self._affine_point(mem, mparams)
            used = _memlet_params(a)
            if isinstance(sdfg.arrays[mem.data], Stream):
                if mem.wcr is not None or used:
                    raise _Reject(
                        f"stream push {_memlet_str(mem)} has a WCR or a "
                        "per-iteration queue index"
                    )
                # One bulk push per connector: two connectors into one
                # stream would lose the per-iteration interleaving.
                if mem.data in streams:
                    raise _Reject(f"more than one output pushes to {mem.data!r}")
                streams.add(mem.data)
                continue
            if mem.wcr is not None and mem.reduction_type() not in self._UFUNC:
                raise _Reject(f"custom WCR on {_memlet_str(mem)} has no ufunc")
            # The loop casts an integer accumulator after every iteration;
            # a whole-domain sum or product casts once, so it may only
            # carry values that need no cast.
            if (
                mem.reduction_type() in (ReductionType.Sum, ReductionType.Product)
                and sdfg.arrays[mem.data].dtype.nptype.kind in "biu"
                and not pytranslate.integer_valued(sdfg, tasklet.code, conn, in_edges, mparams)
            ):
                raise _Reject(
                    f"{mem.reduction_type().name.lower()} into integer "
                    f"{_memlet_str(mem)} of a value that is not integer by "
                    "construction"
                )
            if len(used) < len(mparams) and mem.wcr is None:
                raise _Reject(
                    f"write {_memlet_str(mem)} repeats across iterations "
                    "without a WCR"
                )
            if conn in conditional and used:
                if len(used) < len(mparams):
                    raise _Reject(
                        f"masked partial reduction into {_memlet_str(mem)}"
                    )
                if _slice_index(a, pranges) is None:
                    raise _Reject(
                        f"masked store {_memlet_str(mem)} is not a strided view"
                    )

        self._accesses[id(entry)] = (
            [_Access(e.data, analyses[id(e.data)]) for e in in_edges],
            [
                _Access(e.data, analyses[id(e.data)], e.data.reduction_type())
                for e in out_edges
            ],
        )
        if self._try_contraction(sdfg, entry, tasklet, in_edges, out_edges, analyses, buf):
            return "contraction"

        gathers: Set[str] = set()
        index = {p: f"__bix_{p}" for p in mparams}
        rename: Dict[str, str] = dict(index)
        for e in in_edges:
            rename[e.dst_conn] = f"__in_{e.dst_conn}"
        out_rename = {e.src_conn: f"__out_{e.src_conn}" for e in out_edges}
        rename.update(out_rename)
        # Python numbers (symbol-only ``if``/``else`` values, point loads)
        # only meet arrays that promote them as NumPy scalars, and points
        # only where no division or power of Python numbers alone may raise.
        python = scalarpath.promote_alike(sdfg, in_edges + out_edges)
        stmts = pytranslate.vectorize_tasklet(tasklet.code, rename, python)
        point_python = python and scalarpath.points_stay_numbers(stmts, [
            (rename[e.dst_conn], _memlet_params(analyses[id(e.data)])) for e in in_edges
        ], index.values())
        loads = []
        written = {e.data.data for e in out_edges}
        aliases = set()
        for e in in_edges:
            src, is_view = self._domain_load(
                sdfg, e.data, analyses[id(e.data)], mparams, pranges, gathers,
                point_python,
            )
            var = rename[e.dst_conn]
            loads.append(f"{var} = {src}")
            if is_view and e.data.data in written:
                aliases.add(var)
        predicated = any(tgt == pytranslate.MASK for tgt, _ in stmts)
        # Index arrays only where a parameter's *value* is needed: read by
        # the tasklet, or by a memlet no basic slice can express.
        values = _params_read(tasklet.code, rename, index)
        # Loads are views and every statement runs before the first
        # store, so an output that is a bare alias of a view into a
        # container this map writes must be materialized first.
        for i, (tgt, expr) in enumerate(stmts):
            if expr not in aliases:
                aliases.discard(tgt)
            elif tgt in out_rename.values():
                stmts[i] = (tgt, f"{expr}.copy()")
            else:
                aliases.add(tgt)
        # The parameters whose axis each value spans at full extent, for
        # outputs reduced over parameters their subset omits: a load spans
        # its memlet's parameters, an index array its own, an elementwise
        # expression the union of its operands'.
        spans: Dict[str, Set[str]] = {}
        if any(_memlet_params(analyses[id(e.data)]) != set(mparams) for e in out_edges):
            spans = {f"__bix_{p}": {p} for p in mparams}
            for e in in_edges:
                spans[f"__in_{e.dst_conn}"] = _memlet_params(analyses[id(e.data)])
            for tgt, expr in stmts:
                names = pytranslate.loaded_names(pytranslate.parse_tasklet(expr))
                spans[tgt] = set().union(*(spans.get(n, ()) for n in names))
        binop = None
        if len(out_edges) == 1 and not predicated:
            binop = self._binop_store(sdfg, out_edges[0], analyses, stmts, in_edges, pranges)
        stores = CodeBuffer()
        for e in out_edges:
            mask = None
            if e.src_conn in conditional:
                taken = conditional[e.src_conn]
                mask = pytranslate.MASK if taken else pytranslate.NOT_MASK
            val = out_rename[e.src_conn]
            if self._emit_domain_store(
                stores, sdfg, e.data, analyses[id(e.data)], val, mask,
                mparams, pranges, gathers, spans.get(val, set()) >= set(mparams),
                binop, python,
            ):
                stmts.pop()  # the store computes the last statement itself

        buf.line(f"# vectorized map {entry.map.label}")
        self._emit_domain_header(buf, mparams, pranges, values | gathers)
        for ln in loads:
            buf.line(ln)
        if predicated:
            # Both branches run over every lane; the test only selects.
            buf.line("with np.errstate(all='ignore'):")
            buf.indent()
        for tgt, expr in stmts:
            buf.line(f"{tgt} = {expr}")
        if predicated:
            buf.dedent()
        buf.lines(stores.getvalue())
        buf.dedent()
        if predicated:
            return "predicated"
        return "gather" if gathers else "slice"

    def _emit_domain_store(
        self, buf, sdfg, mem: Memlet, analysis, val: str, mask: Optional[str],
        mparams, pranges, gathers: Set[str], spanning: bool, binop=None,
        python: bool = False,
    ) -> Optional[bool]:
        """Store one output of a whole-domain evaluation: reduce over the
        parameters the subset omits, then write (or accumulate) through a
        strided view taken in map-parameter axis order — under ``mask``
        when only one branch assigned the value, by ``binop``
        (:meth:`_binop_store`) instead of ``val`` into a view, which it
        then returns True for.  ``spanning``
        says that ``val`` already has the domain's full shape; otherwise
        (constants, values over some of the parameters) it is broadcast to
        the domain before a reduction, which then counts every iteration."""
        shape = _domain_shape(mparams)
        used = _memlet_params(analysis)
        remaining = [p for p in mparams if p in used]
        if isinstance(sdfg.arrays[mem.data], Stream):
            vals = (
                _selected_lanes(val, mask, shape)
                if mask
                else f"np.broadcast_to({val}, {shape}).ravel()"
            )
            buf.line(f"{self._queue_expr(mem)}.push_many({vals})")
            return
        rtype = mem.reduction_type() if mem.wcr is not None else None
        ufunc = self._UFUNC[rtype] if rtype is not None else None
        sl = _slice_index(analysis, pranges)
        if mask and not used:
            # Reduce over the selected lanes only; none selected, no write.
            sel = self._tmp("sel")
            buf.line(f"{sel} = {_selected_lanes(val, mask, shape)}")
            with buf.block(f"if {sel}.size:"):
                self._accumulate_into(
                    buf, self._element(sdfg, mem.data, sl[0], python),
                    f"{ufunc}.reduce({sel})", rtype,
                )
            return
        if len(remaining) < len(mparams):
            axes = ", ".join(str(i) for i, p in enumerate(mparams) if p not in used)
            red = self._tmp("red")
            full = val if spanning else f"np.broadcast_to({val}, {shape})"
            buf.line(f"{red} = {ufunc}.reduce({full}, axis=({axes},))")
            val = red
        if sl is None:
            gathers.update(used)
            tgt = f"{mem.data}[{self._bcast_store_index(analysis, remaining)}]"
            buf.line(f"{tgt} = {ufunc}({tgt}, {val})" if ufunc else f"{tgt} = {val}")
            return
        if not used:  # one element, reduced over the whole domain
            el = self._element(sdfg, mem.data, sl[0], python)
            self._accumulate_into(buf, el, val, rtype)
            return
        tgt = f"{mem.data}[{sl[0]}]"
        suffix = "".join(_axes_suffix(sl[1], remaining))
        if ufunc or mask:
            # ``unsafe`` casting is what element assignment does.
            dst = self._tmp("dst")
            buf.line(f"{dst} = {tgt}{suffix}")
            where = f", where={mask}" if mask else ""
            if ufunc:
                buf.line(f"{ufunc}({dst}, {val}, out={dst}, casting='unsafe'{where})")
            else:
                buf.line(f"np.copyto({dst}, {val}, casting='unsafe'{where})")
        elif binop:
            ufunc, lhs, rhs = binop
            buf.line(f"{ufunc}({lhs}, {rhs}, out={tgt}{suffix}, casting='unsafe')")
            return True
        else:
            buf.line(f"{tgt}{suffix}[...] = {val}" if suffix else f"{tgt} = {val}")

    def _accumulate_into(self, buf, el: Element, val: str, rtype) -> None:
        """Combine one element with ``val`` under a recognized WCR
        (:func:`_accumulate`, reading each operand once)."""
        buf.lines(scalarpath.accumulate(el, val, rtype, self._tmp, _accumulate))

    def _binop_store(self, sdfg, out_e, analyses, stmts, in_edges, pranges):
        """``(ufunc, lhs, rhs)`` when a map's one output is a plain store
        over every parameter of the last statement's ``+ - * /``, of the
        dtype NumPy gives it (:func:`pytranslate.result_dtype`): the ufunc writes
        into the output's view, if it has one (its overlap check keeps
        the loads' snapshot).  None otherwise."""
        mem, (tgt, expr), desc = out_e.data, stmts[-1], sdfg.arrays[out_e.data.data]
        if (
            mem.wcr is not None or isinstance(desc, Stream) or tgt != f"__out_{out_e.src_conn}"
            or _memlet_params(analyses[id(mem)]) != set(pranges)
        ):
            return None
        op = pytranslate.parse_expression(expr)
        if type(getattr(op, "op", None)) not in pytranslate.BINOP_UFUNC:
            return None
        types = {f"__bix_{p}": np.dtype(np.intp) for p in pranges} | {
            f"__in_{e.dst_conn}": np.dtype(sdfg.arrays[e.data.data].dtype.nptype)
            for e in in_edges
        }
        for name, src in stmts[:-1]:
            types[name] = pytranslate.result_dtype(pytranslate.parse_expression(src), types)
        dtype = pytranslate.result_dtype(op, types)
        if dtype is None or dtype != desc.dtype.nptype:  # ``np.dtype(None)`` is float64
            return None
        line = expr.encode()  # one line of ``ast.unparse`` text; offsets count bytes
        lhs, rhs = (line[n.col_offset:n.end_col_offset].decode() for n in (op.left, op.right))
        return f"np.{pytranslate.BINOP_UFUNC[type(op.op)].__name__}", lhs, rhs

    def _bcast_index_expr(self, memlet: Memlet, analysis, index: Dict[str, str]) -> str:
        """Advanced-indexing load through per-parameter index arrays."""
        return f"{memlet.data}[{', '.join(_index_terms(analysis, index))}]"

    def _bcast_store_index(self, analysis, remaining: List[str]) -> str:
        """Index arrays of a store whose value's axes run over ``remaining``."""
        index = {}
        for axis, p in enumerate(remaining):
            shape = ["1"] * len(remaining)
            shape[axis] = "-1"
            index[p] = f"__ix_{p}.reshape({', '.join(shape)})"
        return ", ".join(_index_terms(analysis, index))

    # ------------------------------------------------------------ wcr scatter
    _SCATTER_RTYPE = {
        "sum": ReductionType.Sum,
        "product": ReductionType.Product,
        "min": ReductionType.Min,
        "max": ReductionType.Max,
    }

    def _lower_wcr_scatter(self, sdfg, state, entry, tasklet, buf, strip=False) -> str:
        """Whole-domain lowering for indirect-update (histogram-shaped)
        maps: ``view[idx] += val`` over all iterations becomes one
        unbuffered ``np.add.at`` scatter (exact WCR semantics — ``.at``
        applies every update even on index collisions)."""
        mparams = entry.map.params
        pranges = entry.map.param_ranges()
        in_edges = [e for e in state.in_edges(tasklet) if not e.data.is_empty()]
        out_edges = [e for e in state.out_edges(tasklet) if not e.data.is_empty()]
        not_update = _Reject(
            f"tasklet {tasklet.name!r} is neither elementwise assignments nor "
            "an indexed update of a loop-invariant rank-1 view"
        )
        if len(out_edges) != 1:
            raise not_update
        m_out = out_edges[0].data
        if m_out.subset is None or isinstance(sdfg.arrays[m_out.data], Stream):
            raise not_update
        # The updated view must be loop-invariant and rank-1, so a scalar
        # subscript in the tasklet addresses exactly one element.
        pset = set(mparams)
        if len(m_out.subset.ranges) != 1 or m_out.subset.ranges[0].is_point():
            raise not_update
        if {s.name for s in m_out.subset.ranges[0].free_symbols} & pset:
            raise not_update
        # The tasklet mutates the *read* view of the same data/subset; the
        # out connector only declares the (dynamic/WCR) write.
        view_edges = [
            e
            for e in in_edges
            if e.data.data == m_out.data and e.data.subset == m_out.subset
        ]
        if len(view_edges) != 1:
            raise not_update
        view_edge = view_edges[0]
        det = pytranslate.detect_indexed_update(tasklet.code, view_edge.dst_conn)
        if det is None:
            raise not_update
        op, mini_code = det
        rtype = self._SCATTER_RTYPE[op]
        # Semantics check: an explicit WCR must agree with the detected
        # update op; without one the write must be declared dynamic (the
        # frontend's indirect-write pattern).
        if m_out.wcr is not None:
            if m_out.reduction_type() != rtype:
                raise _Reject(
                    f"indexed update '{op}' disagrees with the WCR on "
                    f"{_memlet_str(m_out)}"
                )
        elif not m_out.dynamic:
            raise _Reject(f"indexed update of {_memlet_str(m_out)} is not dynamic")
        # Remaining inputs: static affine point loads only.
        # The view is the update's target, accumulated with ``rtype``.
        reads, writes, analyses = [], [_Access(m_out, None, rtype)], []
        for e in in_edges:
            if e is view_edge:
                continue
            m = e.data
            if m.dynamic or isinstance(sdfg.arrays[m.data], Stream):
                raise _Reject(f"input {_memlet_str(m)} is dynamic or a stream")
            a = self._affine_point(m, mparams)
            reads.append(_Access(m, a))
            analyses.append((e, a))
        self._accesses[id(entry)] = (reads, writes)
        pranges, whole = self._strip_plan(sdfg, entry, pranges, strip)
        gathers: Set[str] = set()
        index = {p: f"__bix_{p}" for p in mparams}
        rename: Dict[str, str] = dict(index)
        loads = []
        for e, a in analyses:
            src, _ = self._domain_load(sdfg, e.data, a, mparams, pranges, gathers)
            rename[e.dst_conn] = f"__in_{e.dst_conn}"
            loads.append(f"__in_{e.dst_conn} = {src}")
        stmts = pytranslate.vectorize_tasklet(mini_code, rename)
        values = _params_read(mini_code, rename, index)
        # A value no load or index array reaches is the same for every
        # iteration: ``.at`` broadcasts it, so it is never materialized.
        varying = set(rename.values())
        for tgt, expr in stmts:
            if pytranslate.loaded_names(pytranslate.parse_tasklet(expr)) & varying:
                varying.add(tgt)

        buf.line(f"# wcr scatter lowering for map {entry.map.label}")
        self._emit_domain_header(buf, mparams, pranges, values | gathers, whole)
        for ln in loads:
            buf.line(ln)
        for tgt, expr in stmts:
            buf.line(f"{tgt} = {expr}")
        shape = _domain_shape(mparams)
        buf.line(f"__sidx = np.broadcast_to(np.asarray(__scatter_idx), {shape}).ravel()")
        if "__scatter_val" in varying:
            buf.line(
                f"__sval = np.broadcast_to(np.asarray(__scatter_val), {shape}).ravel()"
            )
        else:
            buf.line("__sval = np.asarray(__scatter_val)")
        buf.line(
            f"{self._UFUNC[rtype]}.at({m_out.data}[{_slices_only(m_out)}], "
            "__sidx, __sval)"
        )
        buf.dedent()
        if whole is not None:
            buf.dedent()
        return "scatter"

    # ----------------------------------------------------------- contraction
    def _try_contraction(
        self, sdfg, entry, tasklet, in_edges, out_edges, analyses, buf
    ) -> bool:
        """A (scaled) product of two strided views summed into one output
        over exactly one parameter: one ``@`` (``np.matmul``, BLAS for
        floats) shaped by :func:`_contraction_plan`, under the slice
        tier's emptiness guard and accumulate.  False, emitting nothing,
        for any other map — the slice tier takes it unchanged."""
        if len(out_edges) != 1 or len(in_edges) != 2:
            return False
        out_e = out_edges[0]
        if out_e.data.reduction_type() != ReductionType.Sum:
            return False
        # ``@`` on booleans is a logical and/or, not a count.
        if any(sdfg.arrays[e.data.data].dtype.nptype.kind == "b" for e in in_edges):
            return False
        coef = pytranslate.detect_pure_product(
            tasklet.code, [e.dst_conn for e in in_edges], out_e.src_conn
        )
        if coef is None:
            return False
        mparams = entry.map.params
        pranges = entry.map.param_ranges()
        views = [_slice_index(analyses[id(e.data)], pranges) for e in in_edges + [out_e]]
        if None in views:
            return False
        (x_idx, x_axes), (y_idx, y_axes), (out_idx, out_axes) = views
        plan = _contraction_plan(x_axes, y_axes, out_axes, mparams)
        if plan is None:
            return False
        x_sfx, y_sfx, result_sfx = plan
        x, y = (e.data.data for e in in_edges)
        tgt = f"{out_e.data.data}[{out_idx}]"
        # The product lands in the view its fresh fill zeroed: no fill, no sum.
        data, fill, filled = out_e.data.data, self._fills.get(id(entry)), None
        if fill and self._lowering[id(fill[1])]["tier"] == "slice":
            zero = self._accesses[id(fill[1])][1][0]  # the slice tier's one store
            filled = (_slice_index(zero.terms, fill[1].map.param_ranges())[0], zero.memlet.data)
        # BLAS writes only an output whose last axis is unit-stride.
        kind, *last = analyses[id(out_e.data)][-1]
        fold = (
            filled == (out_idx, data) and data not in (x, y) and out_axes and not result_sfx
            and kind == "param" and last[1] == pranges[last[0]].step == Integer(1)
            and sdfg.arrays[data].dtype.nptype == np.result_type(
                sdfg.arrays[x].dtype.nptype, sdfg.arrays[y].dtype.nptype)
        )
        val = f"({x}[{x_idx}]{x_sfx} @ {y}[{y_idx}]{y_sfx}){result_sfx}"
        if coef != 1:
            val = f"{coef!r} * {val}"
        note = ", into its fresh fill" if fold else ""
        buf.line(f"# contraction (matmul) for map {entry.map.label}{note}")
        self._emit_domain_header(buf, out_axes if fold else mparams, pranges, set())
        if fold:
            self._fills[id(entry)] = None
            buf.line(f"np.matmul({x}[{x_idx}]{x_sfx}, {y}[{y_idx}]{y_sfx}, out={tgt})")
            if coef != 1:
                buf.line(f"np.multiply({coef!r}, {tgt}, out={tgt})")
        elif out_axes:
            # ``unsafe`` casting is what element assignment does.
            dst = self._tmp("dst")
            buf.line(f"{dst} = {tgt}")
            buf.line(f"np.add({dst}, {val}, out={dst}, casting='unsafe')")
        else:
            el = self._element(sdfg, data, out_idx, scalarpath.promote_alike(
                sdfg, in_edges + out_edges))
            self._accumulate_into(buf, el, val, ReductionType.Sum)
        buf.dedent()
        return True

    def _fill_target(self, state, entry, scope_dict):
        """The top-level map that fresh fill ``entry`` feeds in its own
        state, or None: a serial, uninstrumented map of one tasklet storing
        0 into a container, reading nothing, whose access node is written
        by it alone and feeds only empty memlets into a map with no other
        fill waiting.  That map is the only writer of every other access
        node of the container in the state, so nothing touches the
        container between the two: the fill can run just before the map,
        which comes later in the same walk, or not at all
        (:meth:`_try_contraction`)."""
        if (
            not self.vectorize or id(entry) in self._fills
            or not isinstance(entry, MapEntry) or scope_dict.get(entry) is not None
            or entry.map.instrument != InstrumentationType.NONE
            or any(not e.data.is_empty() for e in state.in_edges(entry))
        ):
            return None
        body = [n for n, s in scope_dict.items() if s is entry and not isinstance(n, ExitNode)]
        outs = state.out_edges(body[0]) if len(body) == 1 else []
        if (
            len(outs) != 1 or not isinstance(body[0], Tasklet)
            or body[0].instrument != InstrumentationType.NONE
            or any(not e.data.is_empty() for e in state.in_edges(body[0]))
            or ast.unparse(pytranslate.parse_tasklet(body[0].code))
            not in (f"{outs[0].src_conn} = 0", f"{outs[0].src_conn} = 0.0")
        ):
            return None
        last = state.memlet_path(outs[0])[-1]
        filled, succ = last.dst, state.out_edges(last.dst)
        if (
            not isinstance(filled, AccessNode) or len(state.in_edges(filled)) != 1 or not succ
            or any(e.data.wcr is not None or e.data.dynamic for e in (outs[0], last))
            or any(not e.data.is_empty() or e.dst is not succ[0].dst for e in succ)
        ):
            return None
        target = succ[0].dst
        if not isinstance(target, MapEntry) or scope_dict.get(target) is not None \
                or id(target) in self._fills:
            return None
        exit_ = state.exit_node(target)
        others = [n for n in state.data_nodes() if n.data == filled.data and n is not filled]
        if all(state.in_edges(n) and all(e.src is exit_ for e in state.in_edges(n))
               for n in others):
            return target
        return None

    # ------------------------------------------------------------ ragged maps
    def _lower_ragged(
        self, sdfg, state, entry, inner_entry, buf, order, scope_dict
    ) -> str:
        """Map nests whose inner range is data-dependent (CSR-shaped:
        ``for i: for j in row[i]:row[i+1]``) have a flat iteration space.
        Build its parameter vectors once — ``i`` repeated per row, ``j``
        counting within each row — and evaluate the inner scope's tasklets
        over them: point loads become gathers, single-element transients
        become whole-domain temporaries, ``view[idx]`` reads through a
        whole-array connector become gathers, and WCR outputs become
        unbuffered ``np.<ufunc>.at`` scatters."""
        om, im = entry.map, inner_entry.map
        conns = sorted(c for c in inner_entry.in_connectors if not c.startswith("IN_"))
        if not conns:
            raise _Reject(
                f"inner map {im.label!r} takes no range bound from a connector"
            )
        if im.instrument != InstrumentationType.NONE:
            raise _Reject(f"inner map {im.label!r} is instrumented")
        rng = im.range.ranges[0]
        if len(im.params) != 1 or rng.step != Integer(1) or rng.tile != Integer(1):
            raise _Reject(
                f"inner map {im.label!r} is not one unit-step parameter"
            )
        oparams, opranges = om.params, om.param_ranges()
        inner = im.params[0]
        flat = list(oparams) + [inner]
        findex = {p: f"__f_{p}" for p in flat}

        # Row bounds over the outer domain, from the range connectors.
        index_params: Set[str] = set()
        bound_rename = {p: f"__bix_{p}" for p in oparams}
        conn_loads = []
        reads, writes = [], []
        for c in conns:
            edges = state.in_edges_by_connector(inner_entry, c)
            if len(edges) != 1 or edges[0].src is not entry:
                raise _Reject(f"range connector {c!r} is not fed through the outer map")
            mem = edges[0].data
            if mem.dynamic or isinstance(sdfg.arrays[mem.data], Stream):
                raise _Reject(f"range input {_memlet_str(mem)} is dynamic or a stream")
            a = self._affine_point(mem, oparams)
            reads.append(_Access(mem, a))
            src, _ = self._domain_load(sdfg, mem, a, oparams, opranges, index_params)
            conn_loads.append(f"{c} = {src}")
        for bound in (rng.start, rng.end):
            if not _is_sum_of_products(bound):
                raise _Reject(f"inner range bound {bound} is not elementwise")
            index_params.update(s.name for s in bound.free_symbols if s.name in oparams)

        # The inner scope: tasklets chained through one-element transients.
        body = CodeBuffer()
        temps: Dict[str, str] = {}
        used_flat: Set[str] = set()
        valued: Set[str] = set()  # parameters whose value a tasklet reads
        nodes = [
            n for n in order
            if scope_dict.get(n) is inner_entry and not isinstance(n, ExitNode)
        ]
        if not any(isinstance(n, Tasklet) for n in nodes):
            raise _Reject(f"inner map {im.label!r} holds no tasklet")
        for node in nodes:
            if isinstance(node, AccessNode):
                desc = sdfg.arrays[node.data]
                if (
                    isinstance(desc, Stream)
                    or not desc.transient
                    or any(s != Integer(1) for s in desc.shape)
                    or self._accessed_outside(sdfg, state, node.data, nodes)
                ):
                    raise _Reject(
                        f"{node.data!r} inside the inner scope is not a private "
                        "one-element transient"
                    )
                continue
            if not isinstance(node, Tasklet):
                raise _Reject(f"inner scope holds {type(node).__name__} {node!r}")
            self._check_tasklet(node, flat)
            rename: Dict[str, str] = dict(findex)
            views = []
            body.line(f"# tasklet {node.name}")
            for e in state.in_edges(node):
                mem = e.data
                if mem.is_empty():
                    continue
                var = rename[e.dst_conn] = f"__in_{e.dst_conn}"
                if isinstance(e.src, AccessNode):
                    if mem.data not in temps:
                        raise _Reject(f"{mem.data!r} is read before it is produced")
                    body.line(f"{var} = {temps[mem.data]}")
                    continue
                if e.src is not inner_entry:
                    raise _Reject(f"input {_memlet_str(mem)} bypasses the map entry")
                if isinstance(sdfg.arrays[mem.data], Stream):
                    raise _Reject(f"input {_memlet_str(mem)} is a stream")
                a = _analyze_subset(mem, flat)
                reads.append(_Access(mem, a))
                if a is None and not {s.name for s in mem.subset.free_symbols} & set(flat):
                    # Loop-invariant whole-array view: ``view[idx]`` gathers.
                    views.append(e.dst_conn)
                    body.line(f"{var} = {mem.data}[{subset_to_py_index(mem.subset)}]")
                    continue
                if a is None or mem.dynamic:
                    raise _Reject(
                        f"input {_memlet_str(mem)} is neither an affine point "
                        "nor a loop-invariant view"
                    )
                used_flat.update(_memlet_params(a))
                if _memlet_params(a):
                    body.line(f"{var} = {self._bcast_index_expr(mem, a, findex)}")
                else:  # one element
                    idx = ", ".join(_index_terms(a, {}))
                    body.line(f"{var} = {self._element(sdfg, mem.data, idx, False).load}")
            if not pytranslate.is_vectorizable_tasklet(
                node.code, views=views, allow_branch=False
            ):
                raise _Reject(
                    f"tasklet {node.name!r} is not straight-line elementwise code"
                )
            out_edges = [e for e in state.out_edges(node) if not e.data.is_empty()]
            for e in out_edges:
                rename[e.src_conn] = f"__out_{e.src_conn}"
            valued |= _params_read(node.code, rename, findex)
            for tgt, expr in pytranslate.vectorize_tasklet(node.code, rename):
                body.line(f"{tgt} = {expr}")
            for e in out_edges:
                mem, val = e.data, rename[e.src_conn]
                if isinstance(e.dst, AccessNode):
                    if mem.wcr is not None or mem.dynamic:
                        raise _Reject(f"{_memlet_str(mem)} is not a plain temporary")
                    dtype = sdfg.arrays[mem.data].dtype.name
                    temps[mem.data] = f"__t_{mem.data}"
                    body.line(f"__t_{mem.data} = np.asarray({val}, dtype=np.{dtype})")
                    continue
                ufunc = self._UFUNC.get(mem.reduction_type())
                if (
                    ufunc is None or isinstance(sdfg.arrays[mem.data], Stream)
                    or mem.data in self._local_scalars(sdfg)
                ):
                    raise _Reject(
                        f"output {_memlet_str(mem)} is not a recognized WCR "
                        "into an array"
                    )
                a = self._affine_point(mem, flat)
                used_flat.update(_memlet_params(a))
                writes.append(_Access(mem, a, mem.reduction_type()))
                idx = ", ".join(_index_terms(a, findex))
                body.line(
                    f"{ufunc}.at({mem.data}, ({idx},), "
                    f"np.broadcast_to({val}, (__rtot,)))"
                )
        both = {r.memlet.data for r in reads} & {w.memlet.data for w in writes}
        if both:
            raise _Reject(f"{sorted(both)} is read and accumulated in the same scope")

        self._accesses[id(entry)] = (reads, writes)
        used_flat |= valued
        # Rank-1 loads at exactly the inner parameter, its only use.
        unit = [("param", inner, Integer(1), Integer(0))]
        rows = {r.memlet.data for r in reads if r.terms == unit}
        if inner in valued or any(
            a.terms != unit and inner in _memlet_params(a.terms or ()) for a in reads + writes
        ):
            rows = set()
        buf.line(f"# ragged map {om.label} / {im.label}")
        index_params |= used_flat & set(oparams)
        self._emit_domain_header(buf, oparams, opranges, index_params)
        for ln in conn_loads:
            buf.line(ln)
        oshape = _domain_shape(oparams)
        for var, bound in (("__rlo", rng.start), ("__rhi", rng.end)):
            buf.line(
                f"{var} = np.broadcast_to({pycode(bound, bound_rename)}, {oshape})"
                ".ravel().astype(np.int64)"
            )
        buf.line("__rcnt = np.maximum(__rhi - __rlo, 0)")
        buf.line("__rtot = int(__rcnt.sum())")
        buf.line("if __rtot:")
        buf.indent()
        for p in oparams:
            if p in used_flat:
                buf.line(
                    f"__f_{p} = np.repeat(np.broadcast_to(__bix_{p}, {oshape})"
                    ".ravel(), __rcnt)"
                )
        if inner in used_flat:
            # Position within the flat space minus each row's start offset.
            flat_j = "np.arange(__rtot) - np.repeat(np.cumsum(__rcnt) - __rcnt - __rlo, __rcnt)"
            if rows:
                # Rows that follow each other, none negative, flatten to
                # one range: its loads are basic slices, not gathers.
                fits = "".join(f" and __rhi[-1] <= len({d})" for d in sorted(rows))
                flat_j = (
                    f"slice(int(__rlo[0]), int(__rhi[-1])) if __rlo[0] >= 0{fits} and "
                    "__rtot == __rhi[-1] - __rlo[0] and np.array_equal(__rlo[1:], "
                    f"__rhi[:-1]) else {flat_j}"
                )
            buf.line(f"__f_{inner} = {flat_j}")
        buf.lines(body.getvalue())
        buf.dedent()
        buf.dedent()
        return "ragged"

    @staticmethod
    def _accessed_outside(sdfg, state, data: str, scope_nodes) -> bool:
        """True when ``data`` has an access node outside ``scope_nodes``."""
        inside = {id(n) for n in scope_nodes}
        return any(
            n.data == data and id(n) not in inside
            for st in sdfg.nodes()
            for n in st.data_nodes()
        )


class _Reject(Exception):
    """A whole-domain lowering does not apply.  The message names the
    first precondition that failed; it becomes the census ``reason``."""


class _Access(NamedTuple):
    """One memlet of a map as its NumPy tier analysed it."""

    memlet: Memlet
    #: :func:`_analyze_subset`'s per-dimension terms; None for a
    #: loop-invariant view.
    terms: Optional[list]
    #: The operator a write accumulates with; None for a plain store.
    merge: Optional[ReductionType] = None


def _memlet_str(memlet: Memlet) -> str:
    return f"{memlet.data}[{memlet.subset}]"


def _domain_shape(mparams: Sequence[str]) -> str:
    return "(" + ", ".join(f"__n_{p}" for p in mparams) + ",)"


def _selected_lanes(val: str, mask: str, shape: str) -> str:
    """The lanes of ``val`` that ``mask`` selects, in row-major — that is,
    iteration — order (``compress`` outruns boolean indexing severalfold)."""
    return (
        f"np.compress(np.broadcast_to({mask}, {shape}).ravel(), "
        f"np.broadcast_to({val}, {shape}))"
    )


def _memlet_params(analysis) -> Set[str]:
    """The map parameters an analysed memlet's subset depends on."""
    return {d[1] for d in analysis if d[0] == "param"}


def _accumulate(tgt: str, val: str, rtype) -> str:
    """``tgt`` combined with ``val`` under a recognized WCR.  On one
    element, sum and product are plain scalar arithmetic (the same IEEE
    operation as the ufunc, without its call); max (min) is ``a if (a > b
    or a != a) else b`` (``<``), which is what ``np.maximum``
    (``np.minimum``) returns on NaN, infinities and signed zeros."""
    if rtype == ReductionType.Sum:
        return f"{tgt} + {val}"
    if rtype == ReductionType.Product:
        return f"{tgt} * {val}"
    op = ">" if rtype == ReductionType.Max else "<"
    return f"{tgt} if ({tgt} {op} {val} or {tgt} != {tgt}) else {val}"


def _params_read(code: str, rename: Dict[str, str], index: Dict[str, str]) -> Set[str]:
    """Parameters of ``index`` whose value the tasklet reads (a connector
    of the same name shadows the parameter in ``rename``)."""
    read = pytranslate.loaded_names(pytranslate.parse_tasklet(code))
    return {p for p, var in index.items() if p in read and rename[p] == var}


def _is_sum_of_products(e: Expr) -> bool:
    """Only ``+``/``*`` over integers and symbols: evaluates elementwise
    when the symbols are bound to arrays."""
    if isinstance(e, (Integer, Symbol)):
        return True
    return isinstance(e, (Add, Mul)) and all(_is_sum_of_products(a) for a in e.args)


def _index_terms(analysis, index: Dict[str, str]) -> List[str]:
    """One index source per dimension: constants as they are, ``c*p + d``
    over the index array ``index[p]``."""
    dims = []
    for kind, *rest in analysis:
        if kind == "const":
            dims.append(pycode(rest[0]))
            continue
        p, c, d = rest
        term = index[p]
        if c != Integer(1):
            term = f"{pycode(c)} * {term}"
        if d != Integer(0):
            term = f"{term} + {pycode(d)}"
        dims.append(term)
    return dims


def _slice_index(analysis, pranges) -> Optional[Tuple[str, List[str]]]:
    """Basic-indexing source selecting exactly the elements a memlet
    touches over a non-empty domain, and the parameters its result axes
    run over (array-dimension order; constant dimensions drop out).
    None unless every parameter dimension is ``c*p + d`` with ``c`` and
    the parameter's step positive integer constants — anything else
    (reversed or symbolically strided operands) needs index arrays."""
    parts, axes = [], []
    for kind, *rest in analysis:
        if kind == "const":
            parts.append(pycode(rest[0]))
            continue
        p, c, d = rest
        rng = pranges[p]
        if not all(isinstance(x, Integer) and x.value > 0 for x in (c, rng.step)):
            return None
        if c == rng.step == Integer(1):
            # The common case, kept clear of symbolic arithmetic (which
            # dominates code generation time): ``p + d`` over ``lo:hi``.
            parts.append(f"{pycode(_offset(rng.start, d))}:{pycode(_offset(rng.end, d))}")
        else:
            unit = rng.step == Integer(1)
            last = rng.end - 1 if unit else rng.start + rng.step * (rng.size() - 1)
            lo, hi = c * rng.start + d, c * last + d + 1  # last touched, plus one
            parts.append(f"{pycode(lo)}:{pycode(hi)}:{pycode(c * rng.step)}")
        axes.append(p)
    return ", ".join(parts), axes


def _contraction_plan(
    x_axes: Sequence[str], y_axes: Sequence[str], out_axes: Sequence[str], mparams
) -> Optional[Tuple[str, str, str]]:
    """How ``out += x * y`` over the map's parameters — each operand given
    by the parameters its axes run over — is one ``x' @ y'``: the source
    suffixes viewing ``x`` as ``batch + [m, k]`` and ``y`` as ``batch +
    [k, n]``, and the one taking the product to ``out``'s axis order.

    ``k`` is the one parameter summed: in both operands, not in ``out``.
    ``m`` (``n``) is the last parameter only ``x`` (``y``) has; ``batch``
    is the parameters all three share and the other one-operand ones.
    An operand lacking an axis gets ``None`` there — or, with no batch,
    is 1-D, so a dot product is ``x @ y``.  None for any other shape: a
    parameter twice in one operand, not exactly one summed parameter, a
    parameter summed in one operand only or in no operand at all."""
    x, y, out = set(x_axes), set(y_axes), set(out_axes)
    if len(x) < len(x_axes) or len(y) < len(y_axes) or len(out) < len(out_axes):
        return None
    summed = (x & y) - out
    if len(summed) != 1 or (x | y) - summed != out or x | y != set(mparams):
        return None
    x_free = [p for p in x_axes if p not in y]
    y_free = [p for p in y_axes if p not in x]
    batch = [p for p in out_axes if p in x and p in y] + x_free[:-1] + y_free[:-1]
    # A size-1 slot keeps a missing m or n from shifting the batch axes.
    slot = [None] if batch else []
    m, n, k = x_free[-1:] or slot, y_free[-1:] or slot, list(summed)
    product = batch + m + n
    drop = ""
    if None in product:
        drop = "[" + ", ".join("0" if p is None else ":" for p in product) + "]"
        product = [p for p in product if p is not None]
    return (
        "".join(_axes_suffix(x_axes, batch + m + k)),
        "".join(_axes_suffix(y_axes, batch + k + n)),
        drop + _axes_suffix(product, out_axes)[0],
    )


def _offset(e: Expr, d: Expr) -> Expr:
    """``e + d``, free when ``d`` is zero or both are integers."""
    if d == Integer(0):
        return e
    if isinstance(e, Integer) and isinstance(d, Integer):
        return Integer(e.value + d.value)
    return e + d


def _axes_suffix(axes: Sequence[str], order: Sequence[str]) -> Tuple[str, str]:
    """Source suffixes taking a view whose axes run over the parameters
    ``axes`` to the axis order of ``order``: the transposition (if any),
    then the index inserting a size-1 axis for every parameter of
    ``order`` the view lacks (if any)."""
    if not axes:
        return "", ""
    perm = [axes.index(p) for p in order if p in axes]
    transpose = expand = ""
    if perm != sorted(perm):
        transpose = f".transpose({', '.join(map(str, perm))})"
    if len(perm) < len(order):
        expand = "[" + ", ".join(":" if p in axes else "None" for p in order) + "]"
    return transpose, expand


def _analyze_subset(memlet: Memlet, mparams: Sequence[str]):
    """Classify each dimension as ('const', expr) or ('param', p, coeff, off).

    Returns None when the subset is not vector-mode-compatible (non-point
    dims, multiple parameters in one dim, a parameter in several dims,
    nonlinear indexing).
    """
    if memlet.subset is None:
        return None
    seen_params: Set[str] = set()
    out = []
    pset = set(mparams)
    for rng in memlet.subset.ranges:
        if not rng.is_point():
            return None  # keep simple: no slice dims in vector mode
        expr = rng.start
        used = sorted({s.name for s in expr.free_symbols} & pset)
        if not used:
            out.append(("const", expr))
            continue
        if len(used) > 1:
            return None
        p = used[0]
        if p in seen_params:
            return None
        seen_params.add(p)
        c = linear_coefficient(expr, Symbol(p))
        if c is None or not c.is_constant():
            return None
        d = expr.subs({p: 0})
        out.append(("param", p, c, d))
    return out


def _subset_to_py_tuple(subset) -> str:
    """Render a subset as an index-*tuple* source (``(i, slice(0, N))``)
    so the sanitizer can inspect every component before performing the
    access; ``A[(i, slice(0, N))]`` is identical to ``A[i, 0:N]``."""
    parts = []
    for rng in subset.ranges:
        if rng.is_point():
            parts.append(f"({pycode(rng.start)})")
        elif rng.step == Integer(1):
            parts.append(f"slice({pycode(rng.start)}, {pycode(rng.end)})")
        else:
            parts.append(
                f"slice({pycode(rng.start)}, {pycode(rng.end)}, {pycode(rng.step)})"
            )
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _slices_only(memlet: Memlet) -> str:
    """Index string where even points stay slices (preserves views/rank)."""
    parts = []
    for rng in memlet.subset.ranges:
        if rng.is_point():
            parts.append(f"{pycode(rng.start)}:{pycode(rng.start)} + 1")
        else:
            step = "" if rng.step == Integer(1) else f":{pycode(rng.step)}"
            parts.append(f"{pycode(rng.start)}:{pycode(rng.end)}{step}")
    return ", ".join(parts)


def _rename_identifiers(code: str, rename: Dict[str, str]) -> str:
    tree = ast.parse(code)

    class R(ast.NodeTransformer):
        def visit_Name(self, node: ast.Name):
            if node.id in rename:
                return ast.copy_location(
                    ast.Name(id=rename[node.id], ctx=node.ctx), node
                )
            return node

    new = ast.fix_missing_locations(R().visit(tree))
    return ast.unparse(new)

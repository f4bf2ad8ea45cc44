"""Reference interpreter: direct execution of SDFG operational semantics.

This is an executable transcription of the paper's Appendix A: states
execute by propagating data along dataflow edges in dependency order;
map scopes expand their symbolic ranges; consume scopes pop from streams
until quiescence; write-conflict-resolution memlets combine values; and
interstate transitions select the next state after each state completes.

The interpreter is intentionally simple and unoptimized — it is the
semantic ground truth that the code generators are validated against
(``tests/runtime/test_interpreter.py`` cross-checks both).
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph import topological_sort
from repro.instrumentation import (
    InstrumentationRecorder,
    InstrumentationType,
    recording_plan,
    scope_volume_expr,
    state_volume_expr,
    tasklet_volume_expr,
)
from repro.sdfg.data import Scalar, Stream
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    ConsumeEntry,
    ConsumeExit,
    EntryNode,
    ExitNode,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    Reduce,
    Tasklet,
)
from repro.sdfg.dtypes import Language
from repro.runtime.arguments import split_arguments
from repro.runtime.sanitizer import GuardedView, Sanitizer, _clamp_index
from repro.runtime.streams import StreamArray, StreamQueue
from repro.symbolic import Expr


class InterpreterError(RuntimeError):
    pass


def _compile_wcr(wcr: str) -> Callable:
    return eval(wcr, {"min": min, "max": max, "math": math, "np": np})


def next_state(sdfg, state, bindings: Mapping[str, Any]) -> Tuple[Any, Dict[str, Any]]:
    """The interstate transition rule: the first out-edge of ``state``
    whose condition holds in ``bindings`` is taken, and its assignments
    are evaluated together, all in the same ``bindings``.  Returns
    ``(dst, assigned)``, or ``(None, {})`` when no edge holds (the
    machine halts).  A name missing from ``bindings`` raises
    ``KeyError``.  The interpreter, cutout chains and the performance
    model all step the state machine through this one function."""
    for edge in sdfg.out_edges(state):
        if edge.data.condition.evaluate(bindings):
            assigned = {}
            for name, expr in edge.data.assignments.items():
                assigned[name] = expr.evaluate(bindings)
            return edge.dst, assigned
    return None, {}


class SDFGInterpreter:
    """Executes an SDFG directly on NumPy arrays."""

    def __init__(self, sdfg, validate: bool = True, recorder=None):
        self.sdfg = sdfg
        if validate:
            sdfg.validate()
        self._tasklet_code_cache: Dict[int, Any] = {}
        self._wcr_cache: Dict[str, Callable] = {}
        #: Shared event bus; set externally (CompiledSDFG, nested runs) or
        #: created per-call when the SDFG carries instrumentation.
        self.recorder = recorder
        #: Sanitizer/watchdog bundle; set externally (CompiledSDFG, nested
        #: runs).  Must be in place before ``_allocate`` so transient
        #: allocations register shadow masks and memory accounting.
        self.guard = None
        #: Report of the most recent standalone ``__call__``.
        self.last_report = None
        #: ``recording_plan`` of standalone calls, fixed on the first one.
        self._plan: Optional[Tuple[bool, Optional[str]]] = None

    # ------------------------------------------------------------------ entry
    def __call__(self, **kwargs):
        arrays, symbols = split_arguments(self.sdfg, kwargs)
        if self._plan is None:
            from repro.codegen.options import resolve_options

            profile = resolve_options(cache="off", sanitize=False).profile
            self._plan = recording_plan(self.sdfg, profile)
        records, timer = self._plan
        if self.recorder is not None or not records:
            return self.run(arrays, symbols, self.recorder, self.guard)
        recorder = InstrumentationRecorder()
        if timer is not None:
            recorder.enter("sdfg", self.sdfg.name, timer)
        try:
            self.run(arrays, symbols, recorder, self.guard)
        finally:
            if timer is not None:
                recorder.exit()
        self.last_report = recorder.report(self.sdfg.name, backend="interpreter")
        return None

    def run(self, arrays, symbols, instr=None, guard=None) -> None:
        """One execution on marshaled arguments, reporting into ``instr``
        under ``guard``: the entry of compiled interpreter artifacts."""
        saved = self.recorder, self.guard
        self.recorder, self.guard = instr, guard
        try:
            mem = self._allocate(arrays, symbols)
            sym: Dict[str, Any] = dict(symbols)
            for k, v in self.sdfg.constants.items():
                sym.setdefault(k, v)
            self._run_state_machine(self.sdfg, mem, sym)
        finally:
            self.recorder, self.guard = saved

    def run_on(self, mem: Dict[str, Any], sym: Dict[str, Any]) -> None:
        """Run on pre-bound memory (used for nested SDFGs)."""
        self._run_state_machine(self.sdfg, mem, sym)

    # ------------------------------------------------------------- allocation
    def _allocate(self, arrays: Mapping[str, np.ndarray], symbols: Mapping[str, int]):
        mem: Dict[str, Any] = {}
        for name, desc in self.sdfg.arrays.items():
            if name in arrays:
                mem[name] = arrays[name]
            elif desc.transient or isinstance(desc, Stream):
                mem[name] = self._new_container(self.sdfg, name, desc, symbols)
            else:
                raise InterpreterError(f"missing argument {name!r}")
        return mem

    def _new_container(self, sdfg, name: str, desc, symbols: Mapping[str, Any]):
        """A fresh container for ``desc``: a stream queue, or a zeroed
        array registered with the guard."""
        shape = tuple(int(s.evaluate(symbols)) for s in desc.shape)
        if isinstance(desc, Stream):
            return StreamArray(shape, int(desc.buffer_size.evaluate(symbols)),
                               name=name, location=(sdfg.name, None))
        array = np.zeros(shape, dtype=desc.dtype.as_numpy())
        if self.guard is not None:
            self.guard.on_alloc(f"{sdfg.name}.{name}", name, array)
        return array

    # ---------------------------------------------------------- state machine
    def _run_state_machine(self, sdfg, mem, sym) -> None:
        state = sdfg.start_state
        if state is None:
            return
        fuel = 10_000_000  # guards against non-terminating state machines
        while state is not None:
            fuel -= 1
            if fuel <= 0:
                raise InterpreterError("state machine exceeded execution budget")
            if self.guard is not None:
                self.guard.checkpoint()
            self._execute_state(sdfg, state, mem, sym)
            state = self._next_state(sdfg, state, mem, sym)

    def _condition_bindings(self, mem, sym) -> Dict[str, Any]:
        bindings = dict(sym)
        # Conditions may read scalar containers (data-dependent execution).
        for name, val in mem.items():
            if isinstance(val, np.ndarray) and val.size == 1:
                bindings.setdefault(name, val.reshape(-1)[0].item())
        return bindings

    def _next_state(self, sdfg, state, mem, sym):
        try:
            dst, assigned = next_state(sdfg, state, self._condition_bindings(mem, sym))
        except KeyError as err:
            raise InterpreterError(
                f"transition out of state {state.name!r} references "
                f"unbound name: {err}"
            ) from err
        sym.update(assigned)
        return dst

    # ---------------------------------------------------------- instrumentation
    @staticmethod
    def _instr_value(expr, bindings) -> Optional[int]:
        """Evaluate a symbolic instrumentation quantity; None when a
        referenced symbol is unbound (mirrors generated code's
        ``_instr_eval`` guard)."""
        if expr is None:
            return None
        try:
            return int(expr.evaluate({k: v for k, v in bindings.items()
                                      if isinstance(k, str)}))
        except Exception:
            return None

    # ----------------------------------------------------------------- states
    def _execute_state(self, sdfg, state, mem, sym) -> None:
        order = topological_sort(state)
        scope_dict = state.scope_dict()
        top_level = [n for n in order if scope_dict.get(n) is None]
        itype = state.instrument
        if self.recorder is None or itype == InstrumentationType.NONE:
            self._execute_nodes(sdfg, state, top_level, mem, sym, order, scope_dict)
            return
        self.recorder.enter("state", state.name, itype.name)
        try:
            self._execute_nodes(sdfg, state, top_level, mem, sym, order, scope_dict)
        finally:
            volume = None
            if itype.records_volume():
                volume = self._instr_value(state_volume_expr(sdfg, state), sym)
            self.recorder.exit(volume=volume)

    def _execute_nodes(
        self, sdfg, state, nodes: List[Node], mem, sym, full_order, scope_dict
    ) -> None:
        for node in nodes:
            if isinstance(node, ExitNode):
                continue  # handled by its entry
            if isinstance(node, EntryNode):
                self._execute_scope(sdfg, state, node, mem, sym, full_order, scope_dict)
            elif isinstance(node, Tasklet):
                self._execute_tasklet(sdfg, state, node, mem, sym)
            elif isinstance(node, Reduce):
                self._execute_reduce(sdfg, state, node, mem, sym)
            elif isinstance(node, NestedSDFG):
                self._execute_nested(sdfg, state, node, mem, sym)
            elif isinstance(node, AccessNode):
                self._execute_copies(sdfg, state, node, mem, sym)
            else:
                raise InterpreterError(f"cannot execute node {node!r}")

    # ----------------------------------------------------------------- scopes
    def _scope_body(self, state, entry, full_order, scope_dict) -> List[Node]:
        return [n for n in full_order if scope_dict.get(n) is entry]

    def _execute_scope(
        self, sdfg, state, entry: EntryNode, mem, sym, full_order, scope_dict
    ) -> None:
        body = self._scope_body(state, entry, full_order, scope_dict)
        if isinstance(entry, MapEntry):
            self._execute_map(sdfg, state, entry, body, mem, sym, full_order, scope_dict)
        else:
            self._execute_consume(
                sdfg, state, entry, body, mem, sym, full_order, scope_dict
            )

    def _dynamic_scope_inputs(self, sdfg, state, entry, mem, sym) -> Dict[str, Any]:
        """Values of non-relay input connectors (data-dependent ranges)."""
        extra: Dict[str, Any] = {}
        for conn in entry.in_connectors:
            if conn.startswith("IN_") or conn == "IN_stream":
                continue
            edges = state.in_edges_by_connector(entry, conn)
            if not edges:
                continue
            val = self._read_memlet(sdfg, edges[0].data, mem, sym)
            extra[conn] = val.item() if isinstance(val, np.ndarray) and val.size == 1 else val
        return extra

    def _execute_map(
        self, sdfg, state, entry: MapEntry, body, mem, sym, full_order, scope_dict
    ) -> None:
        extra = self._dynamic_scope_inputs(sdfg, state, entry, mem, sym)
        bindings = {**sym, **extra}
        ranges = []
        for param, rng in entry.map.param_ranges().items():
            ranges.append((param, rng.evaluate(bindings)))

        guard = self.guard

        def recurse(level: int, local_sym: Dict[str, Any]):
            if level == len(ranges):
                if guard is not None:
                    guard.map_iter(tuple(local_sym[p] for p, _ in ranges))
                self._execute_nodes(
                    sdfg, state, body, mem, local_sym, full_order, scope_dict
                )
                return
            param, rng = ranges[level]
            for value in rng:
                local_sym[param] = value
                recurse(level + 1, local_sym)
            local_sym.pop(param, None)

        itype = entry.map.instrument
        if self.recorder is None or itype == InstrumentationType.NONE:
            if guard is not None:
                guard.map_enter(entry.map.label)
            try:
                recurse(0, dict(bindings))
            finally:
                if guard is not None:
                    guard.map_exit()
            return
        self.recorder.enter("map", entry.map.label, itype.name)
        if guard is not None:
            guard.map_enter(entry.map.label)
        try:
            recurse(0, dict(bindings))
        finally:
            if guard is not None:
                guard.map_exit()
            iterations = volume = None
            if itype.records_iterations():
                iterations = self._instr_value(entry.map.num_iterations(), bindings)
            if itype.records_volume():
                volume = self._instr_value(
                    scope_volume_expr(sdfg, state, entry), bindings
                )
            self.recorder.exit(iterations=iterations, volume=volume)

    def _execute_consume(
        self, sdfg, state, entry: ConsumeEntry, body, mem, sym, full_order, scope_dict
    ) -> None:
        consume = entry.consume
        stream_edges = state.in_edges_by_connector(entry, "IN_stream")
        stream_name = stream_edges[0].data.data
        stream = mem[stream_name]
        queue = stream[0] if isinstance(stream, StreamArray) else stream
        num_pes = int(consume.num_pes.evaluate(sym))
        from repro.symbolic import parse_expr

        cond_expr = parse_expr(consume.condition) if consume.condition else None

        def quiescent() -> bool:
            if cond_expr is None:
                return len(queue) == 0
            bindings = self._condition_bindings(mem, sym)
            bindings[f"len_{stream_name}"] = len(queue)
            return bool(cond_expr.evaluate(bindings))

        itype = consume.instrument
        instrumented = self.recorder is not None and itype != InstrumentationType.NONE
        if instrumented:
            self.recorder.enter("consume", consume.label, itype.name)
        processed = 0
        try:
            fuel = 10_000_000
            while not quiescent():
                if self.guard is not None:
                    self.guard.checkpoint()
                # One round: each PE pops and processes one element if available.
                for pe in range(num_pes):
                    if not queue:
                        break
                    fuel -= 1
                    if fuel <= 0:
                        raise InterpreterError(
                            "consume scope exceeded execution budget"
                        )
                    element = queue.pop()
                    processed += 1
                    local = dict(sym)
                    local[consume.pe_param] = pe
                    local[("__stream_element__", stream_name)] = element
                    self._execute_nodes(
                        sdfg, state, body, mem, local, full_order, scope_dict
                    )
        finally:
            if instrumented:
                iterations = processed if itype.records_iterations() else None
                volume = None
                if itype.records_volume():
                    volume = self._instr_value(
                        scope_volume_expr(sdfg, state, entry), sym
                    )
                self.recorder.exit(iterations=iterations, volume=volume)

    # ---------------------------------------------------------------- tasklets
    def _execute_tasklet(self, sdfg, state, node: Tasklet, mem, sym) -> None:
        itype = node.instrument
        if self.recorder is None or itype == InstrumentationType.NONE:
            self._execute_tasklet_body(sdfg, state, node, mem, sym)
            return
        self.recorder.enter("tasklet", node.name, itype.name)
        try:
            self._execute_tasklet_body(sdfg, state, node, mem, sym)
        finally:
            volume = None
            if itype.records_volume():
                volume = self._instr_value(
                    tasklet_volume_expr(sdfg, state, node), sym
                )
            self.recorder.exit(volume=volume)

    def _execute_tasklet_body(self, sdfg, state, node: Tasklet, mem, sym) -> None:
        if node.language != Language.Python:
            raise InterpreterError(
                f"interpreter can only run Python tasklets, not {node.language}"
            )
        namespace: Dict[str, Any] = {
            "math": math,
            "np": np,
            "min": min,
            "max": max,
            "abs": abs,
            "int": int,
            "float": float,
        }
        for k, v in sym.items():
            if isinstance(k, str):
                namespace[k] = v
        # Bind inputs.
        out_streams: Dict[str, Tuple[Any, Memlet]] = {}
        for e in state.in_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            if isinstance(desc, Stream):
                namespace[e.dst_conn] = self._stream_in_value(
                    sdfg, state, e, mem, sym
                )
            else:
                namespace[e.dst_conn] = self._guarded_read(
                    sdfg, state, node, e.data, mem, sym
                )
        # Prepare output stream bindings (tasklets may push explicitly).
        for e in state.out_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            if isinstance(desc, Stream):
                queue = self._resolve_stream_queue(e.data, mem, sym)
                namespace[e.src_conn] = queue
                out_streams[e.src_conn] = (queue, e.data)

        code = self._tasklet_code_cache.get(id(node))
        if code is None:
            code = compile(node.code, f"<tasklet {node.name}>", "exec")
            self._tasklet_code_cache[id(node)] = code
        exec(code, namespace)

        # Write outputs.
        for e in state.out_edges(node):
            if e.data.is_empty():
                continue
            conn = e.src_conn
            desc = sdfg.arrays[e.data.data]
            if isinstance(desc, Stream):
                queue, _ = out_streams[conn]
                val = namespace.get(conn, queue)
                if val is not queue:
                    queue.push(val)  # plain assignment pushes once
                continue
            if conn not in namespace:
                if e.data.dynamic:
                    continue  # dynamic memlet: conditional write elided
                raise InterpreterError(
                    f"tasklet {node.name!r} did not assign output {conn!r}"
                )
            if self._guard_store(sdfg, state, node, e.data, namespace[conn], mem, sym):
                self._write_memlet(sdfg, e.data, namespace[conn], mem, sym)

    def _stream_in_value(self, sdfg, state, edge, mem, sym):
        """Input bound to a stream: inside a consume scope this is the
        popped element; otherwise the queue object itself (explicit pop)."""
        key = ("__stream_element__", edge.data.data)
        if key in sym:
            return sym[key]
        return self._resolve_stream_queue(edge.data, mem, sym)

    def _resolve_stream_queue(self, memlet: Memlet, mem, sym) -> StreamQueue:
        container = mem[memlet.data]
        if isinstance(container, StreamQueue):
            return container
        if isinstance(container, StreamArray):
            if memlet.subset is None or memlet.subset.dims == 0:
                return container[0]
            try:
                idx = memlet.subset.evaluate_indices(sym)
            except ValueError:
                return container[0]
            return container[idx]
        raise InterpreterError(f"{memlet.data!r} is not a stream")

    # ----------------------------------------------------------------- reduce
    _NP_REDUCERS = {
        "Sum": np.add,
        "Product": np.multiply,
        "Min": np.minimum,
        "Max": np.maximum,
    }

    def _execute_reduce(self, sdfg, state, node: Reduce, mem, sym) -> None:
        in_edge = state.in_edges(node)[0]
        out_edge = state.out_edges(node)[0]
        data = self._read_memlet(sdfg, in_edge.data, mem, sym)
        data = np.asarray(data)
        axes = node.axes if node.axes is not None else tuple(range(data.ndim))
        from repro.sdfg.dtypes import detect_reduction_type

        rtype = detect_reduction_type(node.wcr)
        ufunc = self._NP_REDUCERS.get(rtype.name)
        if ufunc is not None:
            result = ufunc.reduce(data, axis=tuple(axes))
        else:
            wcr = self._wcr(node.wcr)
            result = None
            flat = np.moveaxis(data, axes, tuple(range(len(axes))))
            flat = flat.reshape(-1, *flat.shape[len(axes):])
            for row in flat:
                result = row.copy() if result is None else wcr(result, row)
        if node.identity is not None:
            wcr = self._wcr(node.wcr)
            result = wcr(np.asarray(node.identity, dtype=data.dtype), result)
        self._write_memlet(sdfg, out_edge.data, result, mem, sym)
        self._mark_written(sdfg, out_edge.data.data)

    # ------------------------------------------------------------ nested SDFG
    def _execute_nested(self, sdfg, state, node: NestedSDFG, mem, sym) -> None:
        inner_mem: Dict[str, Any] = {}
        for e in state.in_edges(node):
            if e.data.is_empty() or e.dst_conn is None:
                continue
            inner_mem[e.dst_conn] = self._view_memlet(sdfg, e.data, mem, sym)
        for e in state.out_edges(node):
            if e.data.is_empty() or e.src_conn is None:
                continue
            if e.src_conn not in inner_mem:
                inner_mem[e.src_conn] = self._view_memlet(sdfg, e.data, mem, sym)
        inner_sym: Dict[str, Any] = {}
        for k, v in node.symbol_mapping.items():
            inner_sym[k] = v.evaluate(sym)
        for s in node.sdfg.free_symbols():
            if s not in inner_sym and s in sym:
                inner_sym[s] = sym[s]
        # Allocate the nested SDFG's transients.
        inner = SDFGInterpreter(node.sdfg, validate=False, recorder=self.recorder)
        inner.guard = self.guard
        for name, desc in node.sdfg.arrays.items():
            if name not in inner_mem:
                inner_mem[name] = self._new_container(node.sdfg, name, desc, inner_sym)
        itype = node.sdfg.instrument
        if self.recorder is not None and itype != InstrumentationType.NONE:
            self.recorder.enter("sdfg", node.sdfg.name, itype.name)
            try:
                inner.run_on(inner_mem, inner_sym)
            finally:
                self.recorder.exit()
        else:
            inner.run_on(inner_mem, inner_sym)

    # ------------------------------------------------------------------ copies
    def _execute_copies(self, sdfg, state, node: AccessNode, mem, sym) -> None:
        for e in state.in_edges(node):
            if e.data.is_empty():
                continue
            if isinstance(e.src, AccessNode):
                self._copy_edge(sdfg, state, e, mem, sym)
            elif isinstance(e.src, EntryNode) and e.data.data != node.data:
                # Scope-boundary copy (LocalStorage fill): memlet names the
                # source container; this node is the destination.
                src_view = self._view_memlet(sdfg, e.data, mem, sym)
                dsub = e.data.other_subset or sdfg.arrays[node.data].full_subset()
                target = mem[node.data]
                slices = dsub.evaluate(sym)
                target[slices] = np.asarray(src_view).reshape(target[slices].shape)
                self._mark_written(sdfg, node.data)
        for e in state.out_edges(node):
            # Scope-boundary copy-back (LocalStorage store): the memlet's
            # other_subset addresses the relay path's final destination.
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
            src_desc = sdfg.arrays[node.data]
            final_desc = sdfg.arrays[final.data]
            if isinstance(src_desc, Stream) and isinstance(final_desc, Stream):
                # Bulk drain: local stream into the global stream.
                sq = self._resolve_stream_queue(e.data, mem, sym)
                dq = self._resolve_stream_queue(
                    Memlet(data=final.data, subset=e.data.other_subset), mem, sym
                )
                dq.push_many(sq.drain())
                continue
            src_view = self._view_memlet(sdfg, e.data, mem, sym)
            target = mem[final.data]
            slices = e.data.other_subset.evaluate(sym)
            if e.data.wcr is not None:
                wcr = self._wcr(e.data.wcr)
                target[slices] = wcr(
                    target[slices], np.asarray(src_view).reshape(target[slices].shape)
                )
            else:
                target[slices] = np.asarray(src_view).reshape(target[slices].shape)
            self._mark_written(sdfg, final.data)

    def _copy_edge(self, sdfg, state, e, mem, sym) -> None:
        src, dst = e.src, e.dst
        src_desc = sdfg.arrays[src.data]
        dst_desc = sdfg.arrays[dst.data]
        mA = e.data
        # Determine subsets on both sides.
        if mA.data == src.data:
            src_subset, dst_subset = mA.subset, mA.other_subset
        else:
            src_subset, dst_subset = mA.other_subset, mA.subset
        if isinstance(src_desc, Stream) and isinstance(dst_desc, Stream):
            # Bulk drain local -> global stream (LocalStream transformation).
            sq = self._resolve_stream_queue(
                Memlet(data=src.data, subset=src_subset), mem, sym
            )
            dq = self._resolve_stream_queue(
                Memlet(data=dst.data, subset=dst_subset), mem, sym
            )
            dq.push_many(sq.drain())
            return
        if isinstance(src_desc, Stream) and not isinstance(dst_desc, Stream):
            # Drain stream into array prefix (paper's Query/BFS pattern).
            queue = self._resolve_stream_queue(
                Memlet(data=src.data, subset=src_subset), mem, sym
            )
            vals = queue.drain()
            arr = mem[dst.data]
            if len(vals) > arr.size:
                raise ValueError(
                    f"stream {src.data!r} drains {len(vals)} elements into "
                    f"{dst.data!r}, which holds {arr.size}"
                )
            # ``flat`` writes through for any layout; ``reshape(-1)`` of a
            # non-contiguous array is a copy and would drop every element.
            arr.flat[: len(vals)] = vals
            self._mark_written(sdfg, dst.data)
            return
        if isinstance(dst_desc, Stream) and not isinstance(src_desc, Stream):
            queue = self._resolve_stream_queue(
                Memlet(data=dst.data, subset=dst_subset), mem, sym
            )
            src_view = self._view_memlet(
                sdfg, Memlet(data=src.data, subset=src_subset or src_desc.full_subset()),
                mem, sym,
            )
            queue.push_many(np.asarray(src_view).reshape(-1))
            return
        src_view = mem[src.data][
            (src_subset or src_desc.full_subset()).evaluate(sym)
        ]
        dst_slices = (dst_subset or dst_desc.full_subset()).evaluate(sym)
        target = mem[dst.data]
        if mA.wcr is not None:
            wcr = self._wcr(mA.wcr)
            target[dst_slices] = wcr(target[dst_slices], src_view.reshape(
                target[dst_slices].shape
            ))
        else:
            target[dst_slices] = np.asarray(src_view).reshape(
                target[dst_slices].shape
            )
        self._mark_written(sdfg, dst.data)

    # ------------------------------------------------------- sanitizer guards
    def _transient_key(self, sdfg, name: str) -> Optional[str]:
        """Shadow-mask key for a transient array (None otherwise); mirrors
        the generated code's ``<function>.<name>`` keying."""
        desc = sdfg.arrays.get(name)
        if desc is None or not desc.transient or isinstance(desc, Stream):
            return None
        return f"{sdfg.name}.{name}"

    @staticmethod
    def _eval_guard_index(subset, sym) -> tuple:
        """Evaluate a subset for the sanitizer: point dimensions become
        ints (not extent-1 slices) so findings carry exact element
        indices and the write-set tracks point writes."""
        idx = subset.evaluate(sym)
        if not isinstance(idx, tuple):
            idx = (idx,)
        return tuple(
            int(s.start) if isinstance(s, slice) and r.is_point() else s
            for s, r in zip(idx, subset.ranges)
        )

    def _guarded_read(self, sdfg, state, node, memlet: Memlet, mem, sym):
        """Guarded tasklet input: bounds + never-written checks, and the
        delivered view wrapped so indirect subscripts stay checked."""
        guard = self.guard
        container = mem[memlet.data]
        if (
            guard is None
            or guard.sanitizer is None
            or isinstance(container, (StreamArray, StreamQueue))
        ):
            return self._read_memlet(sdfg, memlet, mem, sym)
        san = guard.sanitizer
        t0 = time.perf_counter()
        name = memlet.data
        idx = memlet.subset.evaluate(sym)
        gidx = self._eval_guard_index(memlet.subset, sym)
        tkey = self._transient_key(sdfg, name)
        loc = (sdfg.name, state.name, node.name)
        mstr = f"{name}[{memlet.subset}]"
        ok = san.check_bounds(name, container.shape, gidx, mstr, loc)
        if not ok:  # collect mode: continue on the nearest valid element
            idx = _clamp_index(container.shape, idx)
            gidx = _clamp_index(container.shape, gidx)
        if tkey is not None:
            san.check_initialized(tkey, name, gidx, mstr, loc)
        view = container[idx]
        if (
            isinstance(view, np.ndarray)
            and view.size == 1
            and memlet.subset.is_point()
        ):
            guard.overhead += time.perf_counter() - t0
            return view.reshape(-1)[0]
        view = _squeeze_points(view, memlet.subset)
        if isinstance(view, np.ndarray) and view.ndim > 0:
            mask = san.mask_for(tkey)
            if mask is not None:
                mask = _squeeze_points(mask[idx], memlet.subset)
            view = GuardedView.wrap(view, san, name, mask, mstr, loc)
        guard.overhead += time.perf_counter() - t0
        return view

    def _guard_store(self, sdfg, state, node, memlet: Memlet, value, mem, sym):
        """Guarded tasklet output: checks before ``_write_memlet``.
        Returns False when a collect-mode out-of-bounds store must be
        dropped (recorded already) instead of executed."""
        guard = self.guard
        container = mem[memlet.data]
        if (
            guard is None
            or guard.sanitizer is None
            or isinstance(container, (StreamArray, StreamQueue))
        ):
            return True
        return guard.pre_store(
            memlet.data,
            container,
            self._eval_guard_index(memlet.subset, sym),
            value,
            memlet=f"{memlet.data}[{memlet.subset}]",
            loc=(sdfg.name, state.name, node.name),
            tkey=self._transient_key(sdfg, memlet.data),
            wcr=memlet.wcr is not None,
            dynamic=memlet.dynamic,
        )

    def _mark_written(self, sdfg, name: str) -> None:
        """Copies/reductions write whole subsets at once; conservatively
        mark the target transient written so later reads skip R803."""
        guard = self.guard
        if guard is not None and guard.sanitizer is not None:
            tkey = self._transient_key(sdfg, name)
            if tkey is not None:
                guard.mark_written(tkey)

    # ---------------------------------------------------------------- memlets
    def _slices(self, sdfg, memlet: Memlet, container, sym) -> tuple:
        """``memlet``'s subset as NumPy slices into ``container``.

        A non-empty dimension that starts below 0 or ends past the
        extent raises R801 (``SanitizerError``), naming the memlet and
        the index: NumPy would wrap a negative start, or hand back an
        empty or clipped view."""
        slices = memlet.subset.evaluate(sym)
        for s, dim in zip(slices, container.shape):
            if s.step > 0 and s.start < s.stop and (s.start < 0 or s.stop > dim):
                Sanitizer("raise").check_bounds(
                    memlet.data,
                    container.shape,
                    self._eval_guard_index(memlet.subset, sym),
                    f"{memlet.data}[{memlet.subset}]",
                    (sdfg.name, None, None),
                )
        return slices

    def _read_memlet(self, sdfg, memlet: Memlet, mem, sym):
        container = mem[memlet.data]
        if isinstance(container, (StreamArray, StreamQueue)):
            return self._resolve_stream_queue(memlet, mem, sym)
        slices = self._slices(sdfg, memlet, container, sym)
        view = container[slices]
        if view.size == 1 and memlet.subset.is_point():
            return view.reshape(-1)[0]
        return _squeeze_points(view, memlet.subset)

    def _view_memlet(self, sdfg, memlet: Memlet, mem, sym):
        """Writable view (no scalarization)."""
        container = mem[memlet.data]
        if isinstance(container, (StreamArray, StreamQueue)):
            return container
        return container[self._slices(sdfg, memlet, container, sym)]

    def _write_memlet(self, sdfg, memlet: Memlet, value, mem, sym) -> None:
        container = mem[memlet.data]
        if isinstance(container, (StreamArray, StreamQueue)):
            self._resolve_stream_queue(memlet, mem, sym).push(value)
            return
        slices = self._slices(sdfg, memlet, container, sym)
        if memlet.wcr is not None:
            wcr = self._wcr(memlet.wcr)
            old = container[slices]
            result = wcr(old, value)
            container[slices] = result
        else:
            container[slices] = value

    def _wcr(self, wcr: str) -> Callable:
        fn = self._wcr_cache.get(wcr)
        if fn is None:
            fn = _compile_wcr(wcr)
            self._wcr_cache[wcr] = fn
        return fn


def _squeeze_points(view: np.ndarray, subset) -> np.ndarray:
    """Drop size-1 dimensions that correspond to point indices, so that a
    memlet ``A[i, 0:N]`` delivers a 1-D vector as tasklet code expects."""
    axes = tuple(
        ax for ax, r in enumerate(subset.ranges) if r.is_point() and view.shape[ax] == 1
    )
    if axes and len(axes) < view.ndim:
        return np.squeeze(view, axis=axes)
    return view

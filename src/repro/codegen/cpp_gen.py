"""C++ code generation and (optional) gcc compilation via ctypes.

Generates a single C++17 translation unit per SDFG: flat-pointer arrays
with row-major stride arithmetic, Map scopes as loop nests (OpenMP
``parallel for`` for ``CPU_Multicore`` schedules), write-conflict
resolution as ``+=``/atomics, the state machine as ``while``/``if``
(:mod:`repro.codegen.controlflow`; labels and ``goto`` are the fallback),
and tasklets converted through :mod:`repro.codegen.py2cpp`.  The CUDA
and HLS generators are dialects of :class:`CppGenerator`.

When a host compiler is available, :func:`compile_cpp` builds a shared
object and returns a :class:`~repro.codegen.compiler.CompiledSDFG` whose
entry point calls into it through ``ctypes`` — in this process, or on
the crash-isolation harness worker.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import os
import shutil
import subprocess
import tempfile
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codegen.common import (
    CodeBuffer,
    CodegenError,
    consumes,
    cppcode,
    flat_index_cpp,
)
from repro.codegen.controlflow import FlowEmitter, Syntax
from repro.codegen.py2cpp import PY_ARITH, Py2Cpp
from repro.graph import topological_sort
from repro.sdfg.data import Scalar, Stream
from repro.sdfg.dtypes import Language, ReductionType, ScheduleType, detect_reduction_type
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    ConsumeEntry,
    EntryNode,
    ExitNode,
    MapEntry,
    NestedSDFG,
    Reduce,
    Tasklet,
)
from repro.symbolic import Integer, Subset, parse_expr


class CppGenerator(FlowEmitter):
    """Generates one C++ translation unit for an SDFG.

    This is the one C-family emitter: signatures, control flow, loop
    nests, connector loads, tasklet bodies and write-conflict write-back
    live here.  The CUDA and HLS generators are dialects of it that
    override only the hooks: ``_emit_preamble``, ``_arg``,
    ``_emit_allocations``, ``_emit_state_body``, ``_emit_map``,
    ``_emit_wcr``, ``_stream_read`` / ``_stream_write``,
    ``_tasklet_body``, ``_emit_copies``, ``_emit_reduce`` and
    ``_emit_nested_call``.
    """

    #: Structured control flow, and labels and ``goto`` where it has none.
    _syntax = Syntax(
        expr=cppcode, while_="while ({}) {{", true="true", until="if (!{}) break;",
        if_="if ({}) {{", else_="else {", end="}", break_="break;", empty="", iteration="",
        assign="{} = {};", assign_all="std::tie({}) = std::make_tuple({});", scalar="{}[0]",
        enter="goto __state_{};", case=("__state_{}: {{  // state {}",) * 2,
        jump="goto __state_{};", halt="goto __exit;",
    )

    def __init__(self, sdfg):
        self.sdfg = sdfg
        #: Functions emitted ahead of the entry point (nested SDFGs,
        #: kernels, PE modules).
        self._functions: List[str] = []
        self._nested_names: Dict[int, str] = {}
        self._counter = itertools.count()
        #: Set by a checked stream drain, which reports and aborts.
        self._aborts = False

    # ------------------------------------------------------------------- API
    def generate(self) -> str:
        body = self._emit_sdfg_function(self.sdfg, self.sdfg.name, extern=True)
        buf = CodeBuffer()
        buf.line(f"// Generated by {type(self).__module__} -- do not edit.")
        self._emit_preamble(buf)
        buf.line()
        for fn in self._functions:
            buf.lines(fn)
            buf.line()
        buf.lines(body)
        return buf.getvalue()

    def _emit_preamble(self, buf: CodeBuffer) -> None:
        buf.lines(_INCLUDES)
        if self._aborts:
            buf.lines("#include <cstdio>\n#include <cstdlib>")
        for tg in self._collect_code_globals(self.sdfg):
            buf.lines(tg)
        buf.line()
        buf.lines(PY_ARITH.format(q="static inline"))
        buf.lines(_STREAM_RUNTIME)

    def _collect_code_globals(self, sdfg) -> List[str]:
        out = []
        for state in sdfg.nodes():
            for node in state.nodes():
                if isinstance(node, Tasklet) and node.code_global:
                    out.append(node.code_global)
                if isinstance(node, NestedSDFG):
                    out.extend(self._collect_code_globals(node.sdfg))
        return out

    # -------------------------------------------------------------- function
    def signature(self, sdfg) -> List[str]:
        """Argument declarations in the entry ABI order (:meth:`SDFG.entry_abi`)."""
        arrays, symbols = sdfg.entry_abi()
        return [self._arg(name, sdfg.arrays[name]) for name in arrays] + [
            f"long long {sym}" for sym in symbols
        ]

    def _arg(self, name: str, desc) -> str:
        if isinstance(desc, Stream):
            raise CodegenError("external streams are not supported in C++ backend")
        return f"{desc.dtype.ctype}* {name}"

    def _emit_sdfg_function(self, sdfg, fname: str, extern: bool) -> str:
        buf = CodeBuffer()
        linkage = 'extern "C" ' if extern else "static "
        with buf.block(f"{linkage}void {fname}({', '.join(self.signature(sdfg))}) {{", "}"):
            for cname, cval in sdfg.constants.items():
                buf.line(f"const long long {cname} = {cval};")
            assigned = {k for e in sdfg.edges() for k in e.data.assignments}
            for sym in sorted(assigned - set(sdfg.entry_abi()[1])):
                buf.line(f"long long {sym} = 0;")
            teardown = self._emit_allocations(sdfg, buf)
            self._emit_states(sdfg, buf)
            buf.line("__exit:;")
            for ln in teardown:
                buf.line(ln)
        return buf.getvalue()

    def _emit_allocations(self, sdfg, buf: CodeBuffer) -> List[str]:
        """Declare the transients; return the statements that release
        them at the end of the function."""
        frees: List[str] = []
        for name, desc in sdfg.arrays.items():
            if not desc.transient:
                continue
            if isinstance(desc, Stream):
                ctype, init = f"repro_rt::Stream<{desc.dtype.ctype}>", ""
            else:
                ctype, init = desc.dtype.ctype, "()"
            buf.line(f"{ctype}* {name} = new {ctype}[{cppcode(desc.total_size())}]{init};")
            frees.append(f"delete[] {name};")
        return frees

    # ------------------------------------------------------------ state body
    def _emit_state_body(self, sdfg, state, buf: CodeBuffer) -> None:
        order = topological_sort(state)
        scope_dict = state.scope_dict()
        top = [n for n in order if scope_dict.get(n) is None]
        self._emit_nodes(sdfg, state, top, buf, order, scope_dict, in_parallel=False)

    def _emit_nodes(self, sdfg, state, nodes, buf, order, scope_dict, in_parallel):
        for node in nodes:
            if isinstance(node, ExitNode):
                continue
            if isinstance(node, EntryNode):
                body = [n for n in order if scope_dict.get(n) is node]
                emit = self._emit_map if isinstance(node, MapEntry) else self._emit_consume
                emit(sdfg, state, node, body, buf, order, scope_dict, in_parallel)
            elif isinstance(node, Tasklet):
                self._emit_tasklet(sdfg, state, node, buf, in_parallel)
            elif isinstance(node, Reduce):
                self._emit_reduce(sdfg, state, node, buf)
            elif isinstance(node, NestedSDFG):
                self._emit_nested_call(sdfg, state, node, buf)
            elif isinstance(node, AccessNode):
                self._emit_copies(sdfg, state, node, buf)
            else:
                raise CodegenError(f"C++ backend cannot lower {node!r}")

    def _emit_map(self, sdfg, state, entry, body, buf, order, scope_dict, in_parallel):
        # Dynamic-range connector loads, in a block of their own: the
        # state around the map may declare the same names.
        loads = []
        for conn in sorted(entry.in_connectors):
            edges = state.in_edges_by_connector(entry, conn)
            if not conn.startswith("IN_") and edges:
                m = edges[0].data
                loads.append(f"const long long {conn} = "
                             f"(long long){_element(sdfg, m.data, m.subset)};")
        parallel = entry.map.schedule in (
            ScheduleType.CPU_Multicore,
            ScheduleType.GPU_Device,
        )
        with buf.block("{", "}") if loads else contextlib.nullcontext():
            buf.lines("\n".join(loads))
            if parallel and not in_parallel:
                clause = " schedule(static)"
                if len(entry.map.params) > 1:
                    clause = f" collapse({len(entry.map.params)})" + clause
                buf.line(f"#pragma omp parallel for{clause}")
            with self._loop_nest(buf, entry.map.param_ranges()):
                self._emit_nodes(
                    sdfg, state, body, buf, order, scope_dict, in_parallel or parallel
                )

    @contextlib.contextmanager
    def _loop_nest(self, buf: CodeBuffer, ranges):
        """One ``for`` per parameter of ``ranges``, closed on exit."""
        for p, rng in ranges.items():
            buf.line(_for(p, rng))
            buf.indent()
        yield
        for _ in ranges:
            buf.dedent()
            buf.line("}")

    def _emit_consume(self, sdfg, state, entry: ConsumeEntry, body, buf, order, scope_dict,
                      in_parallel):
        consume = entry.consume
        stream_edge = state.in_edges_by_connector(entry, "IN_stream")[0]
        sname = stream_edge.data.data
        cond = (
            f"{sname}[0].size() == 0"
            if consume.condition is None
            else cppcode(parse_expr(consume.condition), {f"len_{sname}": f"{sname}[0].size()"})
        )
        with buf.block(f"while (!({cond})) {{", "}"):
            with buf.block(
                f"for (long long {consume.pe_param} = 0; "
                f"{consume.pe_param} < {cppcode(consume.num_pes)}; "
                f"{consume.pe_param}++) {{",
                "}",
            ):
                buf.line(f"if ({sname}[0].size() == 0) break;")
                buf.line(f"auto __elem_{sname} = {sname}[0].pop();")
                self._emit_nodes(sdfg, state, body, buf, order, scope_dict, False)

    # -------------------------------------------------------------- tasklets
    def _emit_tasklet(self, sdfg, state, node: Tasklet, buf, in_parallel) -> None:
        ins = [e for e in state.in_edges(node) if not e.data.is_empty()]
        outs = [e for e in state.out_edges(node) if not e.data.is_empty()]
        declared = {e.dst_conn: sdfg.arrays[e.data.data].dtype.ctype for e in ins}
        declared.update((e.src_conn, sdfg.arrays[e.data.data].dtype.ctype) for e in outs)
        streams = {e.src_conn for e in outs if isinstance(sdfg.arrays[e.data.data], Stream)}
        body, stored = self._tasklet_body(node, declared, streams)
        # A store through a view inside a parallel map may hit an element
        # another iteration stores too: one thread at a time runs the body.
        exclusive = in_parallel and any(
            conn in stored
            and not isinstance(sdfg.arrays[e.data.data], Stream)
            and not e.data.subset.is_point()
            for e, conn in [(e, e.dst_conn) for e in ins] + [(e, e.src_conn) for e in outs]
        )
        with buf.block("{", "}"):
            for e in ins:
                desc = sdfg.arrays[e.data.data]
                ctype, conn = desc.dtype.ctype, e.dst_conn
                if isinstance(desc, Stream):
                    buf.line(self._stream_read(state, node, e, ctype))
                elif e.data.subset.is_point():
                    buf.line(f"const {ctype} {conn} = {_element(sdfg, e.data.data, e.data.subset)};")
                else:
                    # A view the tasklet stores through is writable.
                    const = "" if conn in stored else "const "
                    buf.line(f"{const}{ctype}* {conn} = {_view(sdfg, e.data)};")
            for e in outs:
                desc = sdfg.arrays[e.data.data]
                ctype, conn = desc.dtype.ctype, e.src_conn
                if isinstance(desc, Stream):
                    decl = self._stream_write(e, ctype)[0]
                    if decl:
                        buf.line(decl)
                elif not e.data.subset.is_point():
                    buf.line(f"{ctype}* {conn} = {_view(sdfg, e.data)};")
                elif not e.data.dynamic:
                    buf.line(f"{ctype} {conn};")
                elif e.data.wcr is None:
                    # Left unassigned, a dynamic write stores back what was there...
                    buf.line(f"{ctype} {conn} = {_element(sdfg, e.data.data, e.data.subset)};")
                else:
                    # ...and a dynamic conflict write resolves with the identity.
                    buf.line(f"{ctype} {conn} = {_identity(e.data.reduction_type(), ctype)};")
            with self._exclusive(buf) if exclusive else contextlib.nullcontext():
                for ln in body:
                    buf.line(ln)
            for e in outs:
                desc = sdfg.arrays[e.data.data]
                if isinstance(desc, Stream):
                    commit = self._stream_write(e, desc.dtype.ctype)[1]
                    if commit:
                        buf.line(commit)
                elif e.data.subset.is_point():
                    target = _element(sdfg, e.data.data, e.data.subset)
                    if e.data.wcr is None:
                        buf.line(f"{target} = {e.src_conn};")
                    else:
                        self._emit_wcr(buf, target, e.src_conn, e.data.reduction_type(),
                                       desc.dtype.ctype, in_parallel)

    def _tasklet_body(self, node: Tasklet, declared: Dict[str, str],
                      streams: Set[str]) -> Tuple[List[str], Set[str]]:
        """The tasklet's C++ statements and the connectors it stores
        through; assigning an output stream connector pushes onto it.
        Opaque C++ code may store through any of its outputs."""
        if node.language == Language.CPP:
            return node.code.splitlines(), set(node.out_connectors)
        conv = Py2Cpp(declared=declared, streams=streams)
        return conv.convert(node.code), conv.stored

    def _stream_read(self, state, node: Tasklet, e, ctype: str) -> str:
        """Declaration of a stream input connector."""
        if consumes(state, node, e.data.data):
            return f"auto {e.dst_conn} = __elem_{e.data.data};"
        return f"auto& {e.dst_conn} = {_stream_ref(e.data)};"

    def _stream_write(self, e, ctype: str) -> Tuple[Optional[str], Optional[str]]:
        """Declaration of a stream output connector and the statement
        that commits it after the tasklet body (either may be None)."""
        return f"auto& {e.src_conn} = {_stream_ref(e.data)};", None

    def _emit_wcr(self, buf, target: str, value: str, rtype, ctype: str, in_parallel) -> None:
        """Resolve a write conflict on ``target`` with ``value``."""
        if rtype in (ReductionType.Sum, ReductionType.Product):
            if in_parallel:
                buf.line("#pragma omp atomic")
            op = "+" if rtype == ReductionType.Sum else "*"
            buf.line(f"{target} {op}= {value};")
        elif rtype in (ReductionType.Min, ReductionType.Max):
            fn = "min" if rtype == ReductionType.Min else "max"
            with self._exclusive(buf) if in_parallel else contextlib.nullcontext():
                buf.line(f"{target} = std::{fn}({target}, ({ctype}){value});")
        else:
            raise CodegenError("custom WCR unsupported in C++ backend")

    @contextlib.contextmanager
    def _exclusive(self, buf):
        """One thread at a time through the block emitted inside: a
        read-modify-write that ``omp atomic`` cannot express."""
        buf.line("#pragma omp critical")
        with buf.block("{", "}"):
            yield

    # ----------------------------------------------------------------- reduce
    def _emit_reduce(self, sdfg, state, node: Reduce, buf) -> None:
        in_e = state.in_edges(node)[0]
        out_e = state.out_edges(node)[0]
        in_desc = sdfg.arrays[in_e.data.data]
        out_desc = sdfg.arrays[out_e.data.data]
        rtype = detect_reduction_type(node.wcr)
        combine = {
            ReductionType.Sum: "{acc} += {v};",
            ReductionType.Product: "{acc} *= {v};",
            ReductionType.Min: "{acc} = std::min({acc}, {v});",
            ReductionType.Max: "{acc} = std::max({acc}, {v});",
        }.get(rtype)
        if combine is None:
            raise CodegenError("custom reduction unsupported in C++ backend")
        identity = _identity(rtype, out_desc.dtype.ctype)
        sub, out_sub = in_e.data.subset, out_e.data.subset
        axes = node.axes if node.axes is not None else tuple(range(sub.dims))
        out_idx, out_loops = _indices(out_sub, "__o")
        in_idx, in_loops = _indices(sub, "__r")
        # Map kept input dims onto output dims in order.
        kept = iter([in_idx[i] for i in range(sub.dims) if i not in axes])
        acc_idx = [cppcode(rng.start) if rng.is_point() else next(kept) for rng in out_sub.ranges]
        acc = f"{out_e.data.data}[{_flat(acc_idx, out_desc)}]"
        with buf.block(f"{{ // reduce {node.label}", "}"):
            if out_e.data.wcr is None:
                with self._loop_nest(buf, out_loops):
                    buf.line(f"{out_e.data.data}[{_flat(out_idx, out_desc)}] = {identity};")
            with self._loop_nest(buf, in_loops):
                buf.line(combine.format(acc=acc, v=f"{in_e.data.data}[{_flat(in_idx, in_desc)}]"))

    # ------------------------------------------------------------ nested call
    def _emit_nested_call(self, sdfg, state, node: NestedSDFG, buf) -> None:
        key = id(node.sdfg)
        if key not in self._nested_names:
            fname = f"__nested_{node.sdfg.name}_{next(self._counter)}"
            self._nested_names[key] = fname
            self._functions.append(
                self._emit_sdfg_function(node.sdfg, fname, extern=False)
            )
        fname = self._nested_names[key]
        views: Dict[str, str] = {}
        for e in list(state.in_edges(node)) + list(state.out_edges(node)):
            if e.data.is_empty():
                continue
            conn = e.dst_conn if e.dst is node else e.src_conn
            if conn is None or conn in views:
                continue
            views[conn] = _view(sdfg, e.data)
        arrays, symbols = node.sdfg.entry_abi()
        args = []
        for name in arrays:
            if name not in views:
                raise CodegenError(f"nested SDFG argument {name!r} unconnected")
            args.append(views[name])
        for sym in symbols:
            if sym in node.symbol_mapping:
                args.append(cppcode(node.symbol_mapping[sym]))
            else:
                args.append(sym)
        buf.line(f"{fname}({', '.join(args)});")

    # ----------------------------------------------------------------- copies
    def _emit_copies(self, sdfg, state, node: AccessNode, buf) -> None:
        for e in state.in_edges(node):
            if e.data.is_empty() or not isinstance(e.src, AccessNode):
                continue
            src, dst = e.src, e.dst
            src_desc, dst_desc = sdfg.arrays[src.data], sdfg.arrays[dst.data]
            if isinstance(src_desc, Stream):
                # Drain the queue, into another queue or onto the
                # destination's leading elements.  A queue longer than the
                # destination aborts; the isolation harness turns that into
                # a hop to the Python backend, which raises the overflow.
                q = f"{src.data}[0]"
                if isinstance(dst_desc, Stream):
                    buf.line(f"while ({q}.size() > 0) {dst.data}[0].push({q}.pop());")
                    continue
                total = cppcode(dst_desc.total_size())
                self._aborts = True
                with buf.block(f"if ({q}.size() > (size_t)({total})) {{", "}"):
                    msg = (f"stream '{src.data}' drains %zu elements into "
                           f"'{dst.data}', which holds %lld\\n")
                    buf.line(f'std::fprintf(stderr, "{msg}", {q}.size(), (long long)({total}));')
                    buf.line("std::abort();")
                with buf.block(f"for (long long __n = 0; {q}.size() > 0; __n++) {{", "}"):
                    buf.line(f"{dst.data}[__n] = {q}.pop();")
                continue
            m = e.data
            ssub = m.subset if m.data == src.data else m.other_subset
            dsub = m.other_subset if m.data == src.data else m.subset
            ssub = ssub or src_desc.full_subset()
            dsub = dsub or dst_desc.full_subset()
            # Element loop nest over the copy domain.
            loops = 0
            s_idx, d_idx = [], []
            for d, (sr, dr) in enumerate(zip(ssub.ranges, dsub.ranges)):
                if sr.is_point() and dr.is_point():
                    s_idx.append(cppcode(sr.start))
                    d_idx.append(cppcode(dr.start))
                    continue
                v = f"__c{d}"
                buf.line(
                    f"for (long long {v} = 0; {v} < {cppcode(sr.size())}; {v}++) {{"
                )
                buf.indent()
                loops += 1
                s_idx.append(f"{cppcode(sr.start)} + {v} * {cppcode(sr.step)}")
                d_idx.append(f"{cppcode(dr.start)} + {v} * {cppcode(dr.step)}")
            value = f"{src.data}[{_flat(s_idx, src_desc)}]"
            if isinstance(dst_desc, Stream):
                buf.line(f"{dst.data}[0].push({value});")
            elif m.wcr is None:
                buf.line(f"{dst.data}[{_flat(d_idx, dst_desc)}] = {value};")
            elif m.reduction_type() == ReductionType.Sum:
                buf.line(f"{dst.data}[{_flat(d_idx, dst_desc)}] += {value};")
            else:
                raise CodegenError("copy WCR type unsupported in C++ backend")
            for _ in range(loops):
                buf.dedent()
                buf.line("}")


def _for(param: str, rng) -> str:
    """Header of the ``for`` loop that walks ``param`` over ``rng``."""
    return (
        f"for (long long {param} = {cppcode(rng.start)}; {param} < "
        f"{cppcode(rng.end)}; {param} += {cppcode(rng.step)}) {{"
    )


def _indices(subset, prefix: str):
    """Each dimension's index into ``subset``: its start where the range is
    a point, else the loop variable ``{prefix}{d}``; and those loops' ranges."""
    idx, loops = [], {}
    for d, rng in enumerate(subset.ranges):
        idx.append(cppcode(rng.start) if rng.is_point() else f"{prefix}{d}")
        if not rng.is_point():
            loops[idx[-1]] = rng
    return idx, loops


def _identity(rtype, ctype: str) -> str:
    """Identity element of a Sum/Product/Min/Max reduction."""
    identity = {
        ReductionType.Sum: "0",
        ReductionType.Product: "1",
        ReductionType.Min: f"std::numeric_limits<{ctype}>::max()",
        ReductionType.Max: f"std::numeric_limits<{ctype}>::lowest()",
    }.get(rtype)
    if identity is None:
        raise CodegenError("custom WCR unsupported in C++ backend")
    return identity


def _strides(desc):
    """Element strides of a container; a Scalar has none: it is one element."""
    return (Integer(1),) if isinstance(desc, Scalar) else desc.strides


def _flat(indices: Sequence[str], desc) -> str:
    """Row-major flat index of the rendered per-dimension ``indices``."""
    return " + ".join(f"({i}) * ({cppcode(st)})" for i, st in zip(indices, _strides(desc)))


def _element(sdfg, data: str, point) -> str:
    """One element of container ``data``, at the point subset ``point``."""
    return f"{data}[{flat_index_cpp(point, _strides(sdfg.arrays[data]))}]"


def _view(sdfg, memlet: Memlet) -> str:
    """Pointer to the first element of ``memlet``'s subset."""
    first = Subset.from_indices([r.min_element() for r in memlet.subset.ranges])
    return f"&{_element(sdfg, memlet.data, first)}"


def _stream_ref(memlet: Memlet) -> str:
    """The queue a stream memlet addresses: its point index, else queue 0."""
    sub = memlet.subset
    idx = cppcode(sub.ranges[0].start) if sub is not None and sub.is_point() else "0"
    return f"{memlet.data}[{idx}]"


_INCLUDES = """\
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <tuple>
#if defined(_OPENMP)
#include <omp.h>
#endif"""


_STREAM_RUNTIME = """\
namespace repro_rt {
template <typename T> struct Stream {
    std::deque<T> q;
    void push(T v) { q.push_back(v); }
    T pop() { T v = q.front(); q.pop_front(); return v; }
    size_t size() const { return q.size(); }
};
}  // namespace repro_rt"""


# ---------------------------------------------------------------------------
# Step 3: compiler invocation
# ---------------------------------------------------------------------------

_CTYPE_MAP = {
    "float32": ctypes.c_float,
    "float64": ctypes.c_double,
    "int8": ctypes.c_int8,
    "int16": ctypes.c_int16,
    "int32": ctypes.c_int32,
    "int64": ctypes.c_int64,
    "uint8": ctypes.c_uint8,
    "uint16": ctypes.c_uint16,
    "uint32": ctypes.c_uint32,
    "uint64": ctypes.c_uint64,
    "bool": ctypes.c_bool,
}


def find_host_compiler() -> Optional[str]:
    for cc in ("g++", "clang++", "c++"):
        if shutil.which(cc):
            return cc
    return None


def load_entry(lib_path: str, name: str):
    """dlopen ``lib_path`` and return its generated entry point ``name``."""
    fn = getattr(ctypes.CDLL(lib_path), name)
    fn.restype = None
    return fn


def call_entry(fn, arrays, symbols) -> None:
    """Call a generated entry point: C-contiguous arrays, then symbol
    values, in the order of :meth:`~repro.sdfg.sdfg.SDFG.entry_abi`."""
    fn(*[a.ctypes.data_as(ctypes.POINTER(_CTYPE_MAP[str(a.dtype)])) for a in arrays],
       *[ctypes.c_longlong(int(s)) for s in symbols])


def compile_cpp(
    sdfg,
    flags: Sequence[str] = ("-O3", "-march=native", "-fopenmp"),
    isolated: bool = False,
):
    """Compile the generated C++ with the host compiler and wrap via ctypes.

    With ``isolated=True`` the shared object is never ``dlopen``-ed into
    this process; each call runs on the persistent harness worker of
    :mod:`repro.runtime.isolation` (which loads the library once), so
    segfaults/aborts in the artifact are contained and surface as
    :class:`BackendCrashError`.  No build directory outlives the
    artifact: an in-process one is removed once its library is loaded,
    an isolated one when the artifact is closed or collected.
    """
    from repro.codegen.compiler import CompiledSDFG

    cc = find_host_compiler()
    if cc is None:
        raise CodegenError("no host C++ compiler found", code="CG101", sdfg=sdfg)
    gen = CppGenerator(sdfg)
    source = gen.generate()
    arg_arrays, syms_order = sdfg.entry_abi()
    tmpdir = tempfile.mkdtemp(prefix=f"repro_{sdfg.name}_")
    try:
        lib_path = _build_library(cc, flags, source, tmpdir, sdfg)
        if isolated:
            compiled = _isolated_artifact(sdfg, source, lib_path, arg_arrays, syms_order)
            # The harness worker loads the library on its first call, so
            # the directory lives until the artifact is closed or collected.
            compiled._remove_build = weakref.finalize(
                compiled, _remove_build_dir, tmpdir, os.getpid()
            )
            return compiled
        try:
            fn = load_entry(lib_path, sdfg.name)
        except (OSError, AttributeError) as err:
            raise CodegenError(
                f"compiled library {lib_path!r} could not be loaded: {err}",
                code="CG103",
                sdfg=sdfg,
            ) from err
    except BaseException:
        shutil.rmtree(tmpdir, ignore_errors=True)
        raise
    # A loaded library stays mapped: its directory can go now.
    shutil.rmtree(tmpdir, ignore_errors=True)

    # ``instr``/``guard`` are accepted for signature parity with the
    # other backends; the in-process C++ path honors neither.
    def entry(arrays, symbols, instr=None, guard=None):
        for a in arg_arrays:
            if np.ascontiguousarray(arrays[a]) is not arrays[a]:
                raise CodegenError(f"argument {a!r} must be C-contiguous")
        call_entry(fn, [arrays[a] for a in arg_arrays],
                   [symbols[s] for s in syms_order])

    return CompiledSDFG(sdfg, entry, source, "cpp")


def _build_library(cc: str, flags: Sequence[str], source: str, tmpdir: str, sdfg) -> str:
    """Write ``source`` into ``tmpdir`` and build it; the library's path."""
    src_path = os.path.join(tmpdir, f"{sdfg.name}.cpp")
    lib_path = os.path.join(tmpdir, f"lib{sdfg.name}.so")
    with open(src_path, "w") as f:
        f.write(source)
    cmd = [cc, "-std=c++17", "-shared", "-fPIC", *flags, src_path, "-o", lib_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as err:  # compiler binary vanished / not executable
        raise CodegenError(
            f"could not invoke host compiler {cc!r}: {err}", code="CG101", sdfg=sdfg
        ) from err
    if proc.returncode != 0:
        raise CodegenError(
            f"C++ compilation failed:\n{proc.stderr}\n--- source ---\n{source}",
            code="CG102",
            sdfg=sdfg,
        )
    return lib_path


def _isolated_artifact(sdfg, source: str, lib_path: str, arg_arrays, syms_order):
    """An artifact whose calls run ``lib_path`` on the harness worker."""
    from repro.codegen.compiler import CompiledSDFG
    from repro.runtime.isolation import run_isolated
    from repro.sdfg.serialize import sdfg_to_json

    # The artifact is untrusted native code: never dlopen it here.
    # Each call runs on the harness worker, which is allowed to die.
    sdfg_json = json.dumps(sdfg_to_json(sdfg, canonical=True),
                           indent=2, sort_keys=True)
    writes = sorted(sdfg.write_set())

    def entry(arrays, symbols, instr=None, guard=None):
        timeout = None
        if guard is not None and guard.watchdog is not None:
            timeout = guard.watchdog.remaining()
        run_isolated(
            sdfg.name, lib_path, sdfg_json,
            {a: arrays[a] for a in arg_arrays},
            {s: symbols[s] for s in syms_order},
            writes, timeout=timeout,
        )

    return CompiledSDFG(sdfg, entry, source, "cpp")


def _remove_build_dir(path: str, owner_pid: int) -> None:
    """Remove an isolated artifact's build directory, in the process
    that built it only (a forked child exits with the parent's
    finalizers)."""
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)

"""C++ code generation and (optional) gcc compilation via ctypes.

Generates a single C++17 translation unit per SDFG: flat-pointer arrays
with row-major stride arithmetic, Map scopes as loop nests (OpenMP
``parallel for`` for ``CPU_Multicore`` schedules), write-conflict
resolution as ``+=``/atomics, the state machine as labels and
conditional ``goto`` (the paper's fallback lowering for transitions),
and tasklets converted through :mod:`repro.codegen.py2cpp`.

When a host compiler is available, :func:`compile_cpp` builds a shared
object and returns a :class:`~repro.codegen.compiler.CompiledSDFG` whose
entry point calls into it through ``ctypes`` — in this process, or on
the crash-isolation harness worker.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.codegen.common import CodeBuffer, CodegenError, cppcode, flat_index_cpp
from repro.codegen.py2cpp import Py2Cpp
from repro.graph import topological_sort
from repro.sdfg.data import Scalar, Stream
from repro.sdfg.dtypes import Language, ReductionType, ScheduleType
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    ConsumeEntry,
    EntryNode,
    ExitNode,
    MapEntry,
    NestedSDFG,
    Node,
    Reduce,
    Tasklet,
)
from repro.symbolic import Integer


class CppGenerator:
    """Generates one C++ translation unit for an SDFG."""

    def __init__(self, sdfg):
        self.sdfg = sdfg
        self._functions: List[str] = []
        self._nested_names: Dict[int, str] = {}
        self._counter = itertools.count()

    # ------------------------------------------------------------------- API
    def generate(self) -> str:
        body = self._emit_sdfg_function(self.sdfg, self.sdfg.name, extern=True)
        buf = CodeBuffer()
        buf.line("// Generated by repro.codegen.cpp_gen -- do not edit.")
        buf.line("#include <algorithm>")
        buf.line("#include <cmath>")
        buf.line("#include <complex>")
        buf.line("#include <cstdint>")
        buf.line("#include <cstring>")
        buf.line("#include <deque>")
        buf.line("#include <limits>")
        buf.line("#if defined(_OPENMP)")
        buf.line("#include <omp.h>")
        buf.line("#endif")
        for tg in self._collect_code_globals(self.sdfg):
            buf.lines(tg)
        buf.line()
        buf.lines(_STREAM_RUNTIME)
        buf.line()
        for fn in self._functions:
            buf.lines(fn)
            buf.line()
        buf.lines(body)
        return buf.getvalue()

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
        """Argument declaration list, matching the ctypes call order."""
        args = []
        for name, desc in sorted(sdfg.arglist().items()):
            if isinstance(desc, Stream):
                raise CodegenError("external streams are not supported in C++ backend")
            args.append(f"{desc.dtype.ctype}* {name}")
        for sym in sorted(set(sdfg.free_symbols()) | set(sdfg.symbols) - set(sdfg.constants)):
            args.append(f"long long {sym}")
        return args

    def _emit_sdfg_function(self, sdfg, fname: str, extern: bool) -> str:
        buf = CodeBuffer()
        args = self.signature(sdfg)
        linkage = 'extern "C" ' if extern else "static "
        buf.line(f"{linkage}void {fname}({', '.join(args)}) {{")
        buf.indent()
        for cname, cval in sdfg.constants.items():
            buf.line(f"const long long {cname} = {cval};")
        # Interstate symbols as locals.
        assigned = sorted({k for e in sdfg.edges() for k in e.data.assignments})
        for sym in assigned:
            if sym not in sdfg.symbols or True:
                buf.line(f"long long {sym} = 0;")
        # Transients.
        frees: List[str] = []
        for name, desc in sdfg.arrays.items():
            if not desc.transient:
                continue
            if isinstance(desc, Stream):
                total = cppcode(desc.total_size())
                buf.line(
                    f"repro_rt::Stream<{desc.dtype.ctype}>* {name} = "
                    f"new repro_rt::Stream<{desc.dtype.ctype}>[{total}];"
                )
                frees.append(f"delete[] {name};")
            else:
                total = cppcode(desc.total_size())
                buf.line(f"{desc.dtype.ctype}* {name} = new {desc.dtype.ctype}[{total}]();")
                frees.append(f"delete[] {name};")
        # State machine with labels + goto.
        states = sdfg.nodes()
        index = {id(s): i for i, s in enumerate(states)}
        if sdfg.start_state is not states[0]:
            buf.line(f"goto __state_{index[id(sdfg.start_state)]};")
        for s in states:
            buf.line(f"__state_{index[id(s)]}: {{")
            buf.indent()
            self._emit_state_body(sdfg, s, buf)
            rename = self._scalar_rename(sdfg)
            for e in sdfg.out_edges(s):
                assigns = "".join(
                    f"{k} = {cppcode(v, rename)}; " for k, v in e.data.assignments.items()
                )
                if e.data.is_unconditional():
                    buf.line(f"{assigns}goto __state_{index[id(e.dst)]};")
                    break
                buf.line(
                    f"if ({cppcode(e.data.condition, rename)}) "
                    f"{{ {assigns}goto __state_{index[id(e.dst)]}; }}"
                )
            else:
                buf.line("goto __exit;")
            buf.dedent()
            buf.line("}")
        buf.line("__exit:;")
        for f in frees:
            buf.line(f)
        buf.dedent()
        buf.line("}")
        return buf.getvalue()

    def _scalar_rename(self, sdfg) -> Dict[str, str]:
        out = {}
        for name, desc in sdfg.arrays.items():
            if isinstance(desc, Stream):
                continue
            if isinstance(desc, Scalar) or all(s == Integer(1) for s in desc.shape):
                out[name] = f"{name}[0]"
        return out

    # ------------------------------------------------------------ state body
    def _emit_state_body(self, sdfg, state, buf: CodeBuffer) -> None:
        if state.number_of_nodes() == 0:
            buf.line(";")
            return
        order = topological_sort(state)
        scope_dict = state.scope_dict()
        top = [n for n in order if scope_dict.get(n) is None]
        self._emit_nodes(sdfg, state, top, buf, order, scope_dict, in_parallel=False)

    def _emit_nodes(self, sdfg, state, nodes, buf, order, scope_dict, in_parallel):
        for node in nodes:
            if isinstance(node, ExitNode):
                continue
            if isinstance(node, EntryNode):
                self._emit_scope(sdfg, state, node, buf, order, scope_dict, in_parallel)
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

    def _emit_scope(self, sdfg, state, entry, buf, order, scope_dict, in_parallel):
        body = [n for n in order if scope_dict.get(n) is entry]
        if isinstance(entry, MapEntry):
            # Dynamic-range connector loads.
            for conn in sorted(entry.in_connectors):
                if conn.startswith("IN_"):
                    continue
                edges = state.in_edges_by_connector(entry, conn)
                if edges:
                    m = edges[0].data
                    desc = sdfg.arrays[m.data]
                    buf.line(
                        f"const long long {conn} = (long long)"
                        f"{m.data}[{flat_index_cpp(m.subset, desc.strides)}];"
                    )
            parallel = entry.map.schedule in (
                ScheduleType.CPU_Multicore,
                ScheduleType.GPU_Device,
            )
            if parallel and not in_parallel:
                clause = " schedule(static)"
                if len(entry.map.params) > 1:
                    clause = f" collapse({len(entry.map.params)})" + clause
                buf.line(f"#pragma omp parallel for{clause}")
            depth = 0
            for p, rng in entry.map.param_ranges().items():
                start, stop, step = cppcode(rng.start), cppcode(rng.end), cppcode(rng.step)
                buf.line(
                    f"for (long long {p} = {start}; {p} < {stop}; {p} += {step}) {{"
                )
                buf.indent()
                depth += 1
                if entry.map.unroll:
                    pass  # unrolling is a compiler hint in C++; loop form kept
            self._emit_nodes(
                sdfg, state, body, buf, order, scope_dict, in_parallel or parallel
            )
            for _ in range(depth):
                buf.dedent()
                buf.line("}")
        else:
            self._emit_consume(sdfg, state, entry, body, buf, order, scope_dict)

    def _emit_consume(self, sdfg, state, entry: ConsumeEntry, body, buf, order, scope_dict):
        consume = entry.consume
        stream_edge = state.in_edges_by_connector(entry, "IN_stream")[0]
        sname = stream_edge.data.data
        cond = (
            f"{sname}[0].size() == 0"
            if consume.condition is None
            else cppcode(
                __import__("repro.symbolic", fromlist=["parse_expr"]).parse_expr(
                    consume.condition
                ),
                {f"len_{sname}": f"{sname}[0].size()"},
            )
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
        buf.line("{")
        buf.indent()
        rename: Dict[str, str] = {}
        declared: Dict[str, str] = {}
        for e in state.in_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            conn = e.dst_conn
            if isinstance(desc, Stream):
                if self._consume_stream(state, node, e.data.data):
                    buf.line(f"auto {conn} = __elem_{e.data.data};")
                else:
                    buf.line(f"auto& {conn} = {e.data.data}[0];")
                declared[conn] = desc.dtype.ctype
                continue
            if e.data.subset.is_point():
                idx = flat_index_cpp(e.data.subset, desc.strides)
                buf.line(f"const {desc.dtype.ctype} {conn} = {e.data.data}[{idx}];")
            else:
                offs = flat_index_cpp(
                    _min_point(e.data), desc.strides
                )
                buf.line(
                    f"const {desc.dtype.ctype}* {conn} = &{e.data.data}[{offs}];"
                )
            declared[conn] = desc.dtype.ctype
        for e in state.out_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            conn = e.src_conn
            if isinstance(desc, Stream):
                buf.line(f"auto& {conn} = {e.data.data}[0];")
            elif e.data.subset.is_point():
                buf.line(f"{desc.dtype.ctype} {conn};")
            else:
                offs = flat_index_cpp(_min_point(e.data), desc.strides)
                buf.line(f"{desc.dtype.ctype}* {conn} = &{e.data.data}[{offs}];")
            declared[conn] = desc.dtype.ctype
        if node.language == Language.CPP:
            buf.lines(node.code)
        else:
            conv = Py2Cpp(declared=declared, rename=rename)
            for ln in conv.convert(node.code):
                buf.line(ln)
        for e in state.out_edges(node):
            if e.data.is_empty():
                continue
            desc = sdfg.arrays[e.data.data]
            if isinstance(desc, Stream) or not e.data.subset.is_point():
                continue
            conn = e.src_conn
            idx = flat_index_cpp(e.data.subset, desc.strides)
            if e.data.wcr is not None:
                rtype = e.data.reduction_type()
                if rtype == ReductionType.Sum:
                    if in_parallel:
                        buf.line("#pragma omp atomic")
                    buf.line(f"{e.data.data}[{idx}] += {conn};")
                elif rtype == ReductionType.Product:
                    if in_parallel:
                        buf.line("#pragma omp atomic")
                    buf.line(f"{e.data.data}[{idx}] *= {conn};")
                elif rtype == ReductionType.Min:
                    buf.line(
                        f"{e.data.data}[{idx}] = std::min({e.data.data}[{idx}], "
                        f"({desc.dtype.ctype}){conn});"
                    )
                elif rtype == ReductionType.Max:
                    buf.line(
                        f"{e.data.data}[{idx}] = std::max({e.data.data}[{idx}], "
                        f"({desc.dtype.ctype}){conn});"
                    )
                else:
                    raise CodegenError("custom WCR unsupported in C++ backend")
            else:
                buf.line(f"{e.data.data}[{idx}] = {conn};")
        buf.dedent()
        buf.line("}")

    def _consume_stream(self, state, node, stream_name: str) -> bool:
        sd = state.scope_dict()
        anc = sd.get(node)
        while anc is not None:
            if isinstance(anc, ConsumeEntry):
                edges = state.in_edges_by_connector(anc, "IN_stream")
                if edges and edges[0].data.data == stream_name:
                    return True
            anc = sd.get(anc)
        return False

    # ----------------------------------------------------------------- reduce
    def _emit_reduce(self, sdfg, state, node: Reduce, buf) -> None:
        in_e = state.in_edges(node)[0]
        out_e = state.out_edges(node)[0]
        in_desc = sdfg.arrays[in_e.data.data]
        out_desc = sdfg.arrays[out_e.data.data]
        from repro.sdfg.dtypes import detect_reduction_type

        rtype = detect_reduction_type(node.wcr)
        combine = {
            ReductionType.Sum: "{acc} += {v};",
            ReductionType.Product: "{acc} *= {v};",
            ReductionType.Min: "{acc} = std::min({acc}, {v});",
            ReductionType.Max: "{acc} = std::max({acc}, {v});",
        }.get(rtype)
        if combine is None:
            raise CodegenError("custom reduction unsupported in C++ backend")
        identity = {
            ReductionType.Sum: "0",
            ReductionType.Product: "1",
            ReductionType.Min: f"std::numeric_limits<{out_desc.dtype.ctype}>::max()",
            ReductionType.Max: f"std::numeric_limits<{out_desc.dtype.ctype}>::lowest()",
        }[rtype]
        sub = in_e.data.subset
        axes = node.axes if node.axes is not None else tuple(range(sub.dims))
        keep = [i for i in range(sub.dims) if i not in axes]
        buf.line(f"{{ // reduce {node.label}")
        buf.indent()
        # Initialize output region.
        out_sub = out_e.data.subset
        init_loops = 0
        out_idx_syms = []
        for d, rng in enumerate(out_sub.ranges):
            if rng.is_point():
                out_idx_syms.append(cppcode(rng.start))
            else:
                v = f"__o{d}"
                buf.line(
                    f"for (long long {v} = {cppcode(rng.start)}; {v} < "
                    f"{cppcode(rng.end)}; {v}++) {{"
                )
                buf.indent()
                init_loops += 1
                out_idx_syms.append(v)
        out_flat = " + ".join(
            f"({s}) * ({cppcode(st)})"
            for s, st in zip(out_idx_syms, out_desc.strides)
        )
        if out_e.data.wcr is None:
            buf.line(f"{out_e.data.data}[{out_flat}] = {identity};")
        for _ in range(init_loops):
            buf.dedent()
            buf.line("}")
        # Accumulation loop nest over the input subset.
        in_syms = []
        loops = 0
        for d, rng in enumerate(sub.ranges):
            if rng.is_point():
                in_syms.append(cppcode(rng.start))
            else:
                v = f"__r{d}"
                buf.line(
                    f"for (long long {v} = {cppcode(rng.start)}; {v} < "
                    f"{cppcode(rng.end)}; {v}++) {{"
                )
                buf.indent()
                loops += 1
                in_syms.append(v)
        in_flat = " + ".join(
            f"({s}) * ({cppcode(st)})" for s, st in zip(in_syms, in_desc.strides)
        )
        # Map kept input dims onto output dims in order.
        kept_syms = [in_syms[i] for i in range(sub.dims) if i not in axes]
        out_syms2 = []
        ki = 0
        for rng in out_sub.ranges:
            if rng.is_point():
                out_syms2.append(cppcode(rng.start))
            else:
                out_syms2.append(kept_syms[ki])
                ki += 1
        out_flat2 = " + ".join(
            f"({s}) * ({cppcode(st)})"
            for s, st in zip(out_syms2, out_desc.strides)
        )
        acc = f"{out_e.data.data}[{out_flat2}]"
        buf.line(combine.format(acc=acc, v=f"{in_e.data.data}[{in_flat}]"))
        for _ in range(loops):
            buf.dedent()
            buf.line("}")
        buf.dedent()
        buf.line("}")

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
            desc = sdfg.arrays[e.data.data]
            offs = flat_index_cpp(_min_point(e.data), desc.strides)
            views[conn] = f"&{e.data.data}[{offs}]"
        inner = node.sdfg
        args = []
        for name in sorted(inner.arglist()):
            if name not in views:
                raise CodegenError(f"nested SDFG argument {name!r} unconnected")
            args.append(views[name])
        for sym in sorted(set(inner.free_symbols()) | set(inner.symbols) - set(inner.constants)):
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
            if isinstance(src_desc, Stream) or isinstance(dst_desc, Stream):
                raise CodegenError("stream copies unsupported in C++ backend")
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
            sflat = " + ".join(
                f"({i}) * ({cppcode(st)})" for i, st in zip(s_idx, src_desc.strides)
            )
            dflat = " + ".join(
                f"({i}) * ({cppcode(st)})" for i, st in zip(d_idx, dst_desc.strides)
            )
            if m.wcr is not None:
                rtype = m.reduction_type()
                if rtype == ReductionType.Sum:
                    buf.line(f"{dst.data}[{dflat}] += {src.data}[{sflat}];")
                else:
                    raise CodegenError("copy WCR type unsupported in C++ backend")
            else:
                buf.line(f"{dst.data}[{dflat}] = {src.data}[{sflat}];")
            for _ in range(loops):
                buf.dedent()
                buf.line("}")


def _min_point(memlet: Memlet):
    from repro.symbolic import Subset

    return Subset.from_indices([r.min_element() for r in memlet.subset.ranges])


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
    import shutil

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
    values, each in sorted-name order (see :func:`compile_cpp`)."""
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
    :class:`BackendCrashError`.
    """
    from repro.codegen.compiler import CompiledSDFG

    cc = find_host_compiler()
    if cc is None:
        raise CodegenError("no host C++ compiler found", code="CG101", sdfg=sdfg)
    gen = CppGenerator(sdfg)
    source = gen.generate()
    tmpdir = tempfile.mkdtemp(prefix=f"repro_{sdfg.name}_")
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
    # The entry point's argument order (arrays, then symbols).
    arg_arrays = sorted(sdfg.arglist())
    syms_order = sorted(
        set(sdfg.free_symbols()) | set(sdfg.symbols) - set(sdfg.constants)
    )

    if isolated:
        from repro.runtime.isolation import run_isolated
        from repro.sdfg.serialize import sdfg_to_json

        # The artifact is untrusted native code: never dlopen it here.
        # Each call runs on the harness worker, which is allowed to die.
        sdfg_json = json.dumps(sdfg_to_json(sdfg, canonical=True),
                               indent=2, sort_keys=True)

        def entry(arrays, symbols, instr=None, guard=None):
            timeout = None
            if guard is not None and guard.watchdog is not None:
                timeout = guard.watchdog.remaining()
            run_isolated(
                sdfg.name, lib_path, sdfg_json,
                {a: arrays[a] for a in arg_arrays},
                {s: symbols[s] for s in syms_order},
                timeout=timeout,
            )

        return CompiledSDFG(sdfg, entry, source, "cpp")

    try:
        fn = load_entry(lib_path, sdfg.name)
    except (OSError, AttributeError) as err:
        raise CodegenError(
            f"compiled library {lib_path!r} could not be loaded: {err}",
            code="CG103",
            sdfg=sdfg,
        ) from err

    # ``instr``/``guard`` are accepted for signature parity with the
    # other backends; the in-process C++ path honors neither.
    def entry(arrays, symbols, instr=None, guard=None):
        for a in arg_arrays:
            if np.ascontiguousarray(arrays[a]) is not arrays[a]:
                raise CodegenError(f"argument {a!r} must be C-contiguous")
        call_entry(fn, [arrays[a] for a in arg_arrays],
                   [symbols[s] for s in syms_order])

    return CompiledSDFG(sdfg, entry, source, "cpp")

"""HLS (FPGA) dialect code generation (structure-verified; executed via
the FPGA pipeline model on this testbed — see DESIGN.md §1).

Lowerings mirror the paper §3.3 / Fig. 7: ``FPGA_Device``-scheduled Maps
synthesize replicated processing elements (PE modules); Stream
containers instantiate ``hls::stream`` FIFO interfaces connecting
modules; unrolled maps emit ``#pragma HLS UNROLL``; innermost pipelined
loops get ``#pragma HLS PIPELINE II=1``; and distinct connected
components form a ``DATAFLOW`` region (command-queue concurrency).

A Map whose PEs communicate through a stream indexed by the PE parameter
(``pipes[p]`` → ``pipes[p+1]``) generates a *systolic array* — the
construct the paper uses for Jacobi and matrix multiplication on the
Xilinx VCU1525.

A dialect of :class:`~repro.codegen.cpp_gen.CppGenerator`: tasklets,
connectors, write-conflict write-back, signatures and loop nests are
the C++ generator's.
"""

from __future__ import annotations

from typing import List

from repro.codegen.common import CodeBuffer, CodegenError, cppcode
from repro.codegen.cpp_gen import CppGenerator, _for, _stream_ref
from repro.codegen.py2cpp import PY_ARITH
from repro.graph import weakly_connected_components
from repro.sdfg.data import Stream
from repro.sdfg.dtypes import ScheduleType, StorageType
from repro.sdfg.nodes import AccessNode, EntryNode, MapEntry


class FPGAGenerator(CppGenerator):
    """Generates an HLS C++ translation unit for an SDFG."""

    def _emit_preamble(self, buf: CodeBuffer) -> None:
        buf.lines("#include <hls_stream.h>\n#include <ap_int.h>\n#include <cmath>\n#include <tuple>")
        buf.lines(PY_ARITH.format(q="static inline"))

    def _arg(self, name: str, desc) -> str:
        if isinstance(desc, Stream):
            return f"hls::stream<{desc.dtype.ctype}>& {name}"
        return f"{desc.dtype.ctype}* {name}"

    def _emit_allocations(self, sdfg, buf: CodeBuffer) -> List[str]:
        # Interface pragmas: each external array gets an AXI master port,
        # spread over the four DDR4 banks of the VCU1525.
        for i, name in enumerate(sdfg.entry_abi()[0]):
            if not isinstance(sdfg.arrays[name], Stream):
                buf.line(
                    f"#pragma HLS INTERFACE m_axi port={name} "
                    f"offset=slave bundle=gmem{i % 4}"
                )
        # Internal streams become FIFO channels.
        for name, desc in sdfg.arrays.items():
            if isinstance(desc, Stream) and desc.transient:
                total = cppcode(desc.total_size())
                depth = cppcode(desc.buffer_size) if desc.buffer_size.is_constant() and desc.buffer_size.as_int() > 0 else "16"
                buf.line(f"hls::stream<{desc.dtype.ctype}> {name}[{total}];")
                buf.line(f"#pragma HLS STREAM variable={name} depth={depth}")
            elif desc.transient and desc.storage in (
                StorageType.FPGA_Local,
                StorageType.Default,
            ):
                total = cppcode(desc.total_size())
                buf.line(f"{desc.dtype.ctype} {name}[{total}];")
                buf.line(f"#pragma HLS RESOURCE variable={name} core=RAM_2P_BRAM")
        return []

    def _emit_state_body(self, sdfg, state, buf: CodeBuffer) -> None:
        if len(weakly_connected_components(state)) > 1:
            buf.line("#pragma HLS DATAFLOW")
        super()._emit_state_body(sdfg, state, buf)

    def _emit_reduce(self, sdfg, state, node, buf) -> None:
        buf.line(f"// reduction tree module (wcr: {node.wcr})")

    def _emit_copies(self, sdfg, state, node: AccessNode, buf) -> None:
        for e in state.in_edges(node):
            if e.data.is_empty() or not isinstance(e.src, AccessNode):
                continue
            buf.line(
                f"// burst copy {e.src.data} -> {e.dst.data} "
                f"({cppcode(e.data.volume)} elements)"
            )

    # -------------------------------------------------------------- tasklets
    def _tasklet_body(self, node, declared, streams):
        # Stream outputs are declared as locals and written after the
        # body (``_stream_write``), so the body assigns them plainly.
        try:
            return super()._tasklet_body(node, declared, set())
        except CodegenError:
            return [f"// opaque tasklet: {node.name}"], set()

    def _stream_read(self, state, node, e, ctype: str) -> str:
        return f"{ctype} {e.dst_conn} = {_stream_ref(e.data)}.read();"

    def _stream_write(self, e, ctype: str):
        return f"{ctype} {e.src_conn};", f"{_stream_ref(e.data)}.write({e.src_conn});"

    # ------------------------------------------------------------------ maps
    def _emit_map(self, sdfg, state, entry: MapEntry, body, buf, order, scope_dict,
                  in_parallel) -> None:
        if scope_dict.get(entry) is None and self._is_systolic(sdfg, state, entry, body):
            self._emit_systolic_array(sdfg, state, entry, body, buf, order, scope_dict)
            return
        with self._loop_nest(buf, entry.map.param_ranges()):
            if entry.map.unroll:
                buf.line("#pragma HLS UNROLL")
            elif not any(isinstance(n, EntryNode) for n in body):
                buf.line("#pragma HLS PIPELINE II=1")
            self._emit_nodes(sdfg, state, body, buf, order, scope_dict, in_parallel)

    def _is_systolic(self, sdfg, state, entry: MapEntry, body) -> bool:
        """A map over PEs whose body communicates via PE-indexed streams
        (paper Fig. 7) synthesizes a systolic array."""
        if not entry.map.unroll and entry.map.schedule != ScheduleType.FPGA_Device:
            return False
        p = entry.map.params[0] if entry.map.params else None
        for node in body:
            for e in state.in_edges(node) + state.out_edges(node):
                if e.data.is_empty() or e.data.data not in sdfg.arrays:
                    continue
                desc = sdfg.arrays[e.data.data]
                if isinstance(desc, Stream) and e.data.subset is not None:
                    free = {s.name for s in e.data.subset.free_symbols}
                    if p in free:
                        return True
        return False

    def _emit_systolic_array(self, sdfg, state, entry, body, buf, order, scope_dict) -> None:
        p = entry.map.params[0]
        rng = entry.map.range.ranges[0]
        mname = f"__pe_{entry.map.label}_{next(self._counter)}"
        data = self._scope_data(sdfg, state, entry)
        args = [f"long long {p}"]
        for name in data:
            desc = sdfg.arrays[name]
            if isinstance(desc, Stream):
                args.append(f"hls::stream<{desc.dtype.ctype}>* {name}")
            else:
                args.append(f"{desc.dtype.ctype}* {name}")
        pe = CodeBuffer()
        with pe.block(f"static void {mname}({', '.join(args)}) {{", "}"):
            pe.line("#pragma HLS INLINE off")
            self._emit_nodes(sdfg, state, body, pe, order, scope_dict, in_parallel=False)
        self._functions.append(pe.getvalue())
        buf.line(f"// systolic array: {cppcode(rng.size())} processing elements")
        with buf.block(_for(p, rng), "}"):
            buf.line("#pragma HLS UNROLL")
            buf.line(f"{mname}({', '.join([p, *data])});")

    def _scope_data(self, sdfg, state, entry) -> List[str]:
        exit_ = state.exit_node(entry)
        names = set()
        for e in state.in_edges(entry) + state.out_edges(exit_):
            if not e.data.is_empty():
                names.add(e.data.data)
        # Streams accessed purely inside the scope also connect the PEs.
        for node in state.scope_subgraph(entry):
            for e in state.all_edges(node):
                if not e.data.is_empty() and e.data.data in sdfg.arrays:
                    if isinstance(sdfg.arrays[e.data.data], Stream):
                        names.add(e.data.data)
        return sorted(names)

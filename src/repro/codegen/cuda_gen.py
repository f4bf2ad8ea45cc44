"""CUDA dialect code generation (structure-verified; executed via the
GPU machine model on this testbed — see DESIGN.md §1).

Lowerings mirror the paper §3.3: ``GPU_Device``-scheduled Maps become
``__global__`` kernels with the map range as grid/thread-block indices;
``GPU_ThreadBlock`` maps become intra-block loops with ``__syncthreads``
where needed; write-conflict resolution lowers to atomics; distinct
connected components are issued on separate CUDA streams; and
host↔device copies are generated *exactly* from propagated memlet
footprints — the data-movement precision the paper credits for its GPU
wins (§5: "avoiding unnecessary array copies due to explicit data
dependencies").

A dialect of :class:`~repro.codegen.cpp_gen.CppGenerator`: tasklets,
connectors, signatures and loop nests are the C++ generator's.
"""

from __future__ import annotations

import contextlib
from typing import List, Set, Tuple

from repro.codegen.common import CodeBuffer, CodegenError, cppcode
from repro.codegen.cpp_gen import CppGenerator
from repro.graph import topological_sort, weakly_connected_components
from repro.sdfg.data import Stream
from repro.sdfg.dtypes import ReductionType, ScheduleType, StorageType
from repro.sdfg.nodes import AccessNode, MapEntry

_ATOMICS = {
    ReductionType.Sum: "atomicAdd",
    ReductionType.Min: "atomicMin",
    ReductionType.Max: "atomicMax",
}


class CudaGenerator(CppGenerator):
    """Generates a CUDA translation unit (host + device code).

    ``in_parallel`` is true exactly inside a kernel: host-level tasklets
    and nested SDFGs are left as comments.
    """

    #: CUDA stream of the connected component being emitted.
    _stream = 0

    def _emit_preamble(self, buf: CodeBuffer) -> None:
        buf.lines("#include <cuda_runtime.h>\n#include <cmath>\n#include <tuple>")

    # ------------------------------------------------------------------ host
    def _emit_allocations(self, sdfg, buf: CodeBuffer) -> List[str]:
        # Device allocations for GPU-resident containers (paper: containers
        # are tied to storage locations).
        gpu_arrays = [
            (name, desc)
            for name, desc in sdfg.arrays.items()
            if desc.storage == StorageType.GPU_Global and not isinstance(desc, Stream)
        ]
        for name, desc in gpu_arrays:
            size = cppcode(desc.total_size())
            buf.line(f"{desc.dtype.ctype}* {name} = nullptr;")
            buf.line(
                f"cudaMalloc(&{name}, ({size}) * sizeof({desc.dtype.ctype}));"
            )
        streams = max([1] + [len(weakly_connected_components(s)) for s in sdfg.nodes()])
        buf.line(f"cudaStream_t __streams[{streams}];")
        buf.line(
            f"for (int s = 0; s < {streams}; s++) cudaStreamCreate(&__streams[s]);"
        )
        return [
            "cudaDeviceSynchronize();",
            *(f"cudaFree({name});" for name, _ in gpu_arrays),
            f"for (int s = 0; s < {streams}; s++) cudaStreamDestroy(__streams[s]);",
        ]

    def _emit_state_body(self, sdfg, state, buf: CodeBuffer) -> None:
        # Each connected component executes on its own CUDA stream (§3.3).
        order = topological_sort(state)
        pos = {id(n): i for i, n in enumerate(order)}
        scope_dict = state.scope_dict()
        for ci, comp in enumerate(weakly_connected_components(state)):
            self._stream = ci
            top = [n for n in sorted(comp, key=lambda n: pos[id(n)])
                   if scope_dict.get(n) is None]
            self._emit_nodes(sdfg, state, top, buf, order, scope_dict, in_parallel=False)

    def _emit_tasklet(self, sdfg, state, node, buf, in_parallel) -> None:
        if in_parallel:
            super()._emit_tasklet(sdfg, state, node, buf, in_parallel)
        else:
            buf.line(f"// host-side node {node.label}")

    @contextlib.contextmanager
    def _exclusive(self, buf):
        # A kernel has no critical section: a store through a view stays
        # as written (WCR lowers to atomics in ``_emit_wcr``).
        yield

    def _emit_nested_call(self, sdfg, state, node, buf) -> None:
        buf.line(f"// host-side node {node.label}")

    def _emit_reduce(self, sdfg, state, node, buf) -> None:
        buf.line(
            f"// reduce via cub::DeviceReduce on stream {self._stream} "
            f"(wcr: {node.wcr})"
        )

    def _emit_copies(self, sdfg, state, node: AccessNode, buf) -> None:
        """Host<->device copies, sized by the exact propagated memlets."""
        for e in state.in_edges(node):
            if e.data.is_empty() or not isinstance(e.src, AccessNode):
                continue
            src_desc = sdfg.arrays[e.src.data]
            dst_desc = sdfg.arrays[e.dst.data]
            s_gpu = src_desc.storage == StorageType.GPU_Global
            d_gpu = dst_desc.storage == StorageType.GPU_Global
            kind = {
                (False, True): "cudaMemcpyHostToDevice",
                (True, False): "cudaMemcpyDeviceToHost",
                (True, True): "cudaMemcpyDeviceToDevice",
                (False, False): "cudaMemcpyHostToHost",
            }[(s_gpu, d_gpu)]
            vol = cppcode(e.data.volume)
            buf.line(
                f"cudaMemcpyAsync({e.dst.data}, {e.src.data}, "
                f"({vol}) * sizeof({dst_desc.dtype.ctype}), {kind}, "
                f"__streams[{self._stream}]);"
            )

    # ---------------------------------------------------------------- device
    def _emit_map(self, sdfg, state, entry: MapEntry, body, buf, order, scope_dict,
                  in_parallel) -> None:
        if in_parallel:
            # Nested thread-block map: sequential loop with syncthreads.
            super()._emit_map(sdfg, state, entry, body, buf, order, scope_dict, in_parallel)
            if entry.map.schedule == ScheduleType.GPU_ThreadBlock:
                buf.line("__syncthreads();")
            return
        if entry.map.schedule not in (ScheduleType.GPU_Device, ScheduleType.Default):
            raise CodegenError(
                f"top-level map {entry.map.label} has non-GPU schedule "
                f"{entry.map.schedule} in CUDA codegen"
            )
        kname = f"__kernel_{entry.map.label}_{next(self._counter)}"
        args = self._kernel_args(sdfg, state, entry)
        kernel = CodeBuffer()
        with kernel.block(
            f"__global__ void {kname}({', '.join(f'{t} {n}' for t, n in args)}) {{", "}"
        ):
            idx_exprs = [
                "blockIdx.x * blockDim.x + threadIdx.x",
                "blockIdx.y",
                "blockIdx.z",
            ]
            for p, rng, idx in zip(entry.map.params, entry.map.range.ranges, idx_exprs):
                kernel.line(
                    f"const long long {p} = {cppcode(rng.start)} + "
                    f"({idx}) * {cppcode(rng.step)};"
                )
                kernel.line(f"if ({p} >= {cppcode(rng.end)}) return;")
            self._emit_nodes(sdfg, state, body, kernel, order, scope_dict, in_parallel=True)
        self._functions.append(kernel.getvalue())
        dims = [cppcode(r.size()) for r in entry.map.range.ranges]
        # Map range becomes grid dims; 256-thread 1-D blocks by default.
        grid = " , ".join(f"(unsigned)(({d} + 255) / 256)" for d in dims[:1])
        extra = "".join(f", (unsigned){d}" for d in dims[1:3])
        buf.line(
            f"{kname}<<<dim3({grid}{extra}), dim3(256), 0, "
            f"__streams[{self._stream}]>>>({', '.join(a for _, a in args)});"
        )

    def _kernel_args(self, sdfg, state, entry) -> List[Tuple[str, str]]:
        names: List[Tuple[str, str]] = []
        seen: Set[str] = set()
        exit_ = state.exit_node(entry)
        for e in state.in_edges(entry) + state.out_edges(exit_):
            if e.data.is_empty() or e.data.data in seen:
                continue
            seen.add(e.data.data)
            desc = sdfg.arrays[e.data.data]
            names.append((f"{desc.dtype.ctype}*", e.data.data))
        for sym in sorted(
            {s.name for r in entry.map.range.ranges for s in r.free_symbols}
        ):
            names.append(("long long", sym))
        return names

    def _emit_wcr(self, buf, target, value, rtype, ctype, in_parallel) -> None:
        if rtype not in _ATOMICS:
            raise CodegenError("WCR type needs a critical section on GPU")
        buf.line(f"{_ATOMICS[rtype]}(&{target}, {value});")

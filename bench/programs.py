"""The programs the workloads and layer probes run, with seeded inputs
and independent references.

A :class:`Program` pairs a data-centric program (an SDFG factory) with
the keyword arguments it is called with and the outputs a hand-written
NumPy reference produces from the same inputs.  References come from
``PolybenchKernel.ref_numpy`` and ``repro.workloads.kernels.*_reference``
— never from the compiler under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.workloads import kernels, polybench

#: The daemon's warm programs in ``serve_mixed``.
SERVE_PROGRAMS = ("gemm", "atax", "jacobi-2d", "mvt", "2mm", "bicg", "syrk", "doitgen")


def close(got: np.ndarray, want: np.ndarray) -> bool:
    """rtol 1e-8 / atol 1e-9 for float64 and exact for integers; single
    precision cannot meet that against a float64 reference, so float32
    outputs get the tolerance their epsilon allows."""
    got = np.asarray(got)
    if got.shape != np.shape(want):
        return False
    if got.dtype == np.float32:
        return bool(np.allclose(got, want, rtol=1e-5, atol=1e-6))
    return bool(np.allclose(got, want, rtol=1e-8, atol=1e-9))


def _check_outputs(got: Dict[str, Any], expected: Dict[str, np.ndarray]) -> bool:
    return all(close(got[name], want) for name, want in expected.items())


def _check_query(got: Dict[str, Any], expected: Dict[str, np.ndarray]) -> bool:
    # The stream drains in no promised order: compare as multisets.
    n = int(got["size"][0])
    want = expected["out"]
    return n == len(want) and close(np.sort(got["out"][:n]), np.sort(want))


@dataclass
class Program:
    name: str
    make_sdfg: Callable[[], Any]
    #: Keyword arguments of one call (arrays, scalars, explicit symbols).
    #: Never mutated: every call runs on :meth:`fresh`.
    inputs: Dict[str, Any]
    #: Reference outputs for ``inputs``.
    expected: Dict[str, np.ndarray]
    #: Problem sizes by symbol name (what the tuner and the daemon get).
    sizes: Dict[str, int] = field(default_factory=dict)
    check: Callable[[Dict[str, Any], Dict[str, np.ndarray]], bool] = _check_outputs
    #: The same computation in plain NumPy on a private copy of the
    #: inputs, for ``runtime.vs_numpy_ratio``.
    numpy_call: Optional[Callable[[], Any]] = None

    def fresh(self) -> Dict[str, Any]:
        return {
            k: v.copy() if isinstance(v, np.ndarray) else v
            for k, v in self.inputs.items()
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        """The array arguments themselves (not copies): for callers that
        only read them, like the wire encoder."""
        return {k: v for k, v in self.inputs.items() if isinstance(v, np.ndarray)}

    def verify(self, got: Dict[str, Any]) -> bool:
        return self.check(got, self.expected)


# ---------------------------------------------------------------- PolyBench
def polybench_program(name: str, rng: np.random.Generator) -> Program:
    """A registry kernel at its bench size.  The registry's inputs are
    fixed, so the seed scales every float array by one factor in
    [0.9, 1.1]: that keeps each kernel's preconditions (positive
    definite, triangular, diagonally dominant) and still gives every
    seed its own numbers."""
    k = polybench.get(name)
    scale = float(rng.uniform(0.9, 1.1))
    data = {
        a: v * scale if isinstance(v, np.ndarray) and v.dtype.kind == "f" else v
        for a, v in k.data().items()
    }
    ref = {a: v.copy() if isinstance(v, np.ndarray) else v for a, v in data.items()}
    k.ref_numpy(ref, k.sizes)
    inputs = dict(data)
    for sym in k.extra_symbols:
        inputs[sym] = k.sizes[sym]
    return Program(
        name=name,
        make_sdfg=k.make_sdfg,
        inputs=inputs,
        expected={o: ref[o] for o in k.outputs},
        sizes=dict(k.sizes),
    )


def polybench_programs(rng: np.random.Generator, names=None) -> List[Program]:
    return [polybench_program(n, rng) for n in (names or polybench.all_kernels())]


# ------------------------------------------------- the paper's §6.1 kernels
#: Sizes where array work dominates the call (``exec_kernels``) …
LARGE = {"matmul": 512, "jacobi2d": (256, 20), "histogram": (1024, 1024),
         "query": 1 << 15, "spmv": (4096, 16), "gemm_chain": 96}
#: … and sizes that only have to prove a fresh compile correct.
SMALL = {"matmul": 32, "jacobi2d": (32, 4), "histogram": (64, 64),
         "query": 1 << 10, "spmv": (256, 8), "gemm_chain": 16}


def _spmv_numpy(d: Dict[str, np.ndarray]) -> np.ndarray:
    products = d["A_val"].astype(np.float64) * d["x"][d["A_col"]]
    return np.add.reduceat(products, d["A_row"][:-1].astype(np.intp))


def _optimized_matmul():
    return kernels.optimize_matmul(kernels.matmul_sdfg())


def matmul_program(seed: int, n: int, optimize: bool) -> Program:
    """``optimize`` puts matmul through the paper's §6.2 transformation
    chain first, as Fig. 14 does."""
    d = kernels.matmul_data(n, seed)
    return Program(
        "matmul", _optimized_matmul if optimize else kernels.matmul_sdfg, d,
        {"C": kernels.matmul_reference(d)},
        sizes={s: n for s in "MKN"},
        numpy_call=lambda: kernels.matmul_reference(d),
    )


def kernel_programs(seed: int, sizes: Dict[str, Any], optimize: bool) -> List[Program]:
    """matmul, jacobi2d, histogram, query, spmv and the eight-link gemm
    chain."""
    out: List[Program] = [matmul_program(seed, sizes["matmul"], optimize)]

    n, steps = sizes["jacobi2d"]
    d = kernels.jacobi2d_data(n, seed)
    out.append(Program(
        "jacobi2d", kernels.jacobi2d_sdfg, {"A": d["A"], "T": steps},
        {"A": kernels.jacobi2d_reference(d["A"], steps)},
        numpy_call=lambda d=d, steps=steps: kernels.jacobi2d_reference(d["A"], steps),
    ))

    h, w = sizes["histogram"]
    d = kernels.histogram_data(h, w, seed=seed)
    bins = len(d["hist"])
    out.append(Program(
        "histogram", kernels.histogram_sdfg, d,
        {"hist": kernels.histogram_reference(d["img"], bins)},
        numpy_call=lambda d=d, bins=bins: kernels.histogram_reference(d["img"], bins),
    ))

    d = kernels.query_data(sizes["query"], seed)
    out.append(Program(
        "query", kernels.query_sdfg, d,
        {"out": kernels.query_reference(d["col"], d["threshold"])},
        check=_check_query,
        numpy_call=lambda d=d: kernels.query_reference(d["col"], d["threshold"]),
    ))

    rows, per_row = sizes["spmv"]
    d, _csr = kernels.spmv_data(rows, per_row, seed)
    out.append(Program(
        "spmv", kernels.spmv_sdfg, d, {"b": _spmv_numpy(d)},
        numpy_call=lambda d=d: _spmv_numpy(d),
    ))

    d = kernels.gemm_chain_data(sizes["gemm_chain"], seed)
    out.append(Program(
        "gemm_chain", kernels.gemm_chain_sdfg, d,
        {"C": kernels.gemm_chain_reference(d)},
        numpy_call=lambda d=d: kernels.gemm_chain_reference(d),
    ))
    return out


def corpus(seed: int, rng: np.random.Generator) -> List[Program]:
    """The 36-program compile corpus: PolyBench plus the six kernels at
    sizes that only need to prove the compile correct."""
    return polybench_programs(rng) + kernel_programs(seed, SMALL, optimize=False)

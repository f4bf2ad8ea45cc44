"""The five fundamental computational kernels of the paper's §6.1.

Each kernel provides an SDFG factory (data-centric program), an
``optimize_*`` helper applying the paper's transformation recipe, a data
generator, and a NumPy reference for verification.  The paper's sizes
(MM 2048², Jacobi 2048²xT1024, Histogram 8192², Query 2^26, SpMV
8192²/2^25 nnz) are parameters; benchmarks scale them to the testbed.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

import repro as rp
from repro.library.sparse import CSRMatrix
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes
from repro.transformations import (
    MapReduceFusion,
    MapTiling,
    Vectorization,
    apply_transformations,
)

M, K, N = rp.symbol("M"), rp.symbol("K"), rp.symbol("N")
H, W, nnz = rp.symbol("H"), rp.symbol("W"), rp.symbol("nnz")
T, BINS = rp.symbol("T"), rp.symbol("BINS")


# ---------------------------------------------------------------- matmul
def matmul_sdfg() -> SDFG:
    """Matrix multiplication from the numpy operator (Fig. 9b form)."""

    @rp.program
    def mm(A: rp.float64[M, K], B: rp.float64[K, N], C: rp.float64[M, N]):
        C = A @ B

    mm._sdfg = None
    return mm.to_sdfg()


def optimize_matmul(sdfg: SDFG) -> SDFG:
    """The part of §6.2's transformation chain this testbed applies:
    MapReduceFusion (the reduction becomes a sum-WCR map after a zero
    fill), then Vectorization.  It applies no MapTiling: the python tier
    lowers the fused map to one ``np.matmul`` into the filled output, and
    BLAS tiles that itself."""
    apply_transformations(sdfg, MapReduceFusion)
    apply_transformations(sdfg, Vectorization)
    return sdfg


def matmul_data(n: int, seed: int = 0) -> Dict[str, np.ndarray]:
    rng = np.random.RandomState(seed)
    return {
        "A": rng.rand(n, n),
        "B": rng.rand(n, n),
        "C": np.zeros((n, n)),
    }


def matmul_reference(data: Dict[str, np.ndarray]) -> np.ndarray:
    return data["A"] @ data["B"]


# ---------------------------------------------------------------- jacobi
def jacobi2d_sdfg() -> SDFG:
    """5-point Jacobi stencil, T time steps, double buffering via A[t%2]."""

    @rp.program
    def jacobi(A: rp.float64[2, N, N], T: rp.int64):
        for t in range(T):
            for i, j in rp.map[1 : N - 1, 1 : N - 1]:
                with rp.tasklet:
                    c << A[t % 2, i, j]
                    no << A[t % 2, i - 1, j]
                    so << A[t % 2, i + 1, j]
                    we << A[t % 2, i, j - 1]
                    ea << A[t % 2, i, j + 1]
                    out >> A[(t + 1) % 2, i, j]
                    out = 0.2 * (c + no + so + we + ea)

    jacobi._sdfg = None
    return jacobi.to_sdfg()


def jacobi2d_data(n: int, seed: int = 0) -> Dict[str, np.ndarray]:
    rng = np.random.RandomState(seed)
    A = np.zeros((2, n, n))
    A[0] = rng.rand(n, n)
    # Constant zero boundary (paper setup); both buffers share it.
    A[0, 0, :] = A[0, -1, :] = A[0, :, 0] = A[0, :, -1] = 0.0
    return {"A": A}


def jacobi2d_reference(A: np.ndarray, steps: int) -> np.ndarray:
    buf = A.copy()
    for t in range(steps):
        src, dst = buf[t % 2], buf[(t + 1) % 2]
        dst[1:-1, 1:-1] = 0.2 * (
            src[1:-1, 1:-1] + src[:-2, 1:-1] + src[2:, 1:-1]
            + src[1:-1, :-2] + src[1:-1, 2:]
        )
    return buf


# -------------------------------------------------------------- histogram
def histogram_sdfg() -> SDFG:
    """Histogram with evenly-binned values: data-dependent writes through
    a read-modify-write view plus a dynamic WCR declaration."""

    @rp.program
    def histogram(img: rp.float64[H, W], hist: rp.int64[BINS]):
        for i, j in rp.map[0:H, 0:W]:
            with rp.tasklet:
                v << img[i, j]
                hh << hist[0:BINS]
                hout >> hist(rp.dyn)[0:BINS]
                hh[min(int(v * BINS), BINS - 1)] += 1

    histogram._sdfg = None
    return histogram.to_sdfg()


def histogram_data(h: int, w: int, bins: int = 256, seed: int = 0):
    rng = np.random.RandomState(seed)
    return {
        "img": rng.rand(h, w),
        "hist": np.zeros(bins, np.int64),
    }


def histogram_reference(img: np.ndarray, bins: int) -> np.ndarray:
    idx = np.minimum((img * bins).astype(np.int64), bins - 1)
    return np.bincount(idx.ravel(), minlength=bins)


# ------------------------------------------------------------------ query
def query_sdfg() -> SDFG:
    """Fig. 9a: filter a column against a predicate through a stream,
    counting the survivors with a Sum-WCR memlet."""
    sdfg = SDFG("query")
    sdfg.add_array("col", ("N",), dtypes.float64)
    sdfg.add_array("out", ("N",), dtypes.float64)
    sdfg.add_array("size", (1,), dtypes.int64)
    sdfg.add_scalar("threshold", dtypes.float64)
    sdfg.add_stream("S", dtypes.float64, transient=True)
    st = sdfg.add_state("query")
    st.add_mapped_tasklet(
        "filter",
        {"i": "0:N"},
        inputs={
            "v": Memlet.simple("col", "i"),
            "t": Memlet(data="threshold", subset="0", volume=1),
        },
        code="if v <= t:\n    outv = v\n    cnt = 1",
        outputs={
            "outv": Memlet(data="S", subset="0", dynamic=True),
            "cnt": Memlet(data="size", subset="0", wcr="sum", dynamic=True),
        },
    )
    s_node = [n for n in st.data_nodes() if n.data == "S"][0]
    out_node = st.add_write("out")
    st.add_edge(
        s_node, out_node, Memlet(data="S", subset="0", dynamic=True), None, None
    )
    sdfg.validate()
    return sdfg


def query_data(n: int, seed: int = 0):
    rng = np.random.RandomState(seed)
    return {
        "col": rng.rand(n),
        "out": np.zeros(n),
        "size": np.zeros(1, np.int64),
        "threshold": 0.5,  # filters roughly 50% (paper setup)
    }


def query_reference(col: np.ndarray, threshold: float) -> np.ndarray:
    return col[col <= threshold]


# ------------------------------------------------------------------- spmv
def spmv_sdfg() -> SDFG:
    """Fig. 4: CSR sparse matrix-vector multiplication."""

    @rp.program
    def spmv(
        A_row: rp.uint32[H + 1],
        A_col: rp.uint32[nnz],
        A_val: rp.float32[nnz],
        x: rp.float32[W],
        b: rp.float32[H],
    ):
        for i in rp.map[0:H]:
            for j in rp.map[A_row[i] : A_row[i + 1]]:
                with rp.tasklet:
                    a << A_val[j]
                    in_x << x[A_col[j]]
                    out >> b(1, rp.sum)[i]
                    out = a * in_x

    spmv._sdfg = None
    return spmv.to_sdfg()


def spmv_data(rows: int, nnz_per_row: int, seed: int = 0):
    csr = CSRMatrix.random(rows, rows, nnz_per_row, seed=seed)
    rng = np.random.RandomState(seed + 1)
    return {
        "A_row": csr.indptr,
        "A_col": csr.indices,
        "A_val": csr.data,
        "x": rng.rand(rows).astype(np.float32),
        "b": np.zeros(rows, np.float32),
    }, csr


# ------------------------------------------------------------- gemm chain
def gemm_chain_sdfg(links: int = 8) -> SDFG:
    """Multi-state chain of ``links`` scaled GEMMs: ``X_{k+1} = alpha_k *
    X_k @ B``, with per-link zero-init states and WCR accumulation.

    The chain is the cutout tuner's benchmark program: every link
    contributes two states (init + accumulate), the init states are all
    identical after cutout normalization (one unique group), and each
    accumulate state differs only by its ``alpha_k`` constant (``links``
    unique groups) — so ``2 * links`` cutouts deduplicate to
    ``links + 1`` unique searches.
    """
    sdfg = SDFG("gemm_chain")
    sdfg.add_array("A", ("N", "N"), dtypes.float64)
    sdfg.add_array("B", ("N", "N"), dtypes.float64)
    sdfg.add_array("C", ("N", "N"), dtypes.float64)
    prev_state = None
    prev = "A"
    for k in range(links):
        out = "C" if k == links - 1 else f"T{k}"
        if out != "C":
            sdfg.add_transient(out, ("N", "N"), dtypes.float64)
        init = sdfg.add_state(f"init{k}", is_start=(k == 0))
        init.add_mapped_tasklet(
            "zero",
            {"i": "0:N", "j": "0:N"},
            inputs={},
            code="z = 0.0",
            outputs={"z": Memlet.simple(out, "i, j")},
        )
        comp = sdfg.add_state(f"mm{k}")
        alpha = 1.0 + 0.125 * k  # distinct per link -> distinct cutout group
        comp.add_mapped_tasklet(
            "gemm",
            {"i": "0:N", "j": "0:N", "kk": "0:N"},
            inputs={
                "x": Memlet.simple(prev, "i, kk"),
                "y": Memlet.simple("B", "kk, j"),
            },
            code=f"o = {alpha!r} * x * y",
            outputs={"o": Memlet(data=out, subset="i, j", wcr="sum")},
        )
        if prev_state is not None:
            sdfg.add_edge(prev_state, init, InterstateEdge())
        sdfg.add_edge(init, comp, InterstateEdge())
        prev_state = comp
        prev = out
    sdfg.validate()
    return sdfg


def gemm_chain_data(n: int, seed: int = 0) -> Dict[str, np.ndarray]:
    rng = np.random.RandomState(seed)
    return {
        "A": rng.rand(n, n),
        "B": rng.rand(n, n),
        "C": np.zeros((n, n)),
    }


def gemm_chain_reference(
    data: Dict[str, np.ndarray], links: int = 8
) -> np.ndarray:
    out = data["A"]
    for k in range(links):
        out = (1.0 + 0.125 * k) * (out @ data["B"])
    return out


KERNELS = ("matmul", "jacobi2d", "histogram", "query", "spmv")

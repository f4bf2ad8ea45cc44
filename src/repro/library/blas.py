"""Dense linear-algebra stand-ins for the vendor libraries of §6.

``gemm`` plays MKL/CUBLAS (it dispatches to the platform BLAS through
NumPy).  ``gemm_strided_batched`` mimics the CUBLAS batched-strided
call the paper's OMEN case study relies on — including the *padding
waste* analysis of Table 3, where only 6.1% of the flops a generic
batched GEMM executes on tiny irregular operands are useful.  ``sbsmm``
is the specialized small-batched-strided multiplication of the paper's
step ❹ (Fig. 18), which executes only the useful flops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class FlopReport:
    """Executed-vs-useful work of a library call (Table 3 columns)."""

    executed_flops: int
    useful_flops: int

    @property
    def useful_fraction(self) -> float:
        return self.useful_flops / self.executed_flops if self.executed_flops else 1.0


def gemm(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> np.ndarray:
    """General matrix-matrix multiply, C = alpha*A@B + beta*C (MKL role)."""
    result = alpha * (A @ B)
    if C is None:
        return result
    if beta != 0.0:
        result += beta * C
    C[...] = result
    return C


def gemv(A: np.ndarray, x: np.ndarray, y: Optional[np.ndarray] = None,
         alpha: float = 1.0, beta: float = 0.0) -> np.ndarray:
    out = alpha * (A @ x)
    if y is None:
        return out
    y[...] = out + beta * y
    return y


def gemm_strided_batched(
    A: np.ndarray, B: np.ndarray, C: Optional[np.ndarray] = None, pad_to: int = 16
) -> Tuple[np.ndarray, FlopReport]:
    """Batched-strided GEMM the way a generic vendor kernel executes it.

    ``A``: (batch, m, k), ``B``: (batch, k, n).  Generic batched kernels
    tile to fixed blocking factors; on tiny operands they compute padded
    ``pad_to``-multiples, wasting most flops (the paper's Table 3: 86.6%
    of peak executed but 6.1% useful on P100).  The returned FlopReport
    carries both numbers; the arithmetic itself uses the exact operands.
    """
    batch, m, k = A.shape
    _, k2, n = B.shape
    if k != k2:
        raise ValueError("inner dimensions do not match")
    out = np.matmul(A, B)
    if C is not None:
        C[...] = out
        out = C

    def up(x: int) -> int:
        return ((x + pad_to - 1) // pad_to) * pad_to

    useful = 2 * batch * m * n * k
    executed = 2 * batch * up(m) * up(n) * up(k)
    return out, FlopReport(executed_flops=executed, useful_flops=useful)


def sbsmm(
    A: np.ndarray, B: np.ndarray, C: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, FlopReport]:
    """Small-scale batched-strided matrix multiplication (paper §6.4 ❹).

    Specialized for the operand shapes: executes exactly the useful
    flops (no padding), amortizing across the batch dimension — the
    data-centric replacement that outperforms CUBLAS by up to 4.76x on
    tiny matrices (Table 3).
    """
    batch, m, k = A.shape
    _, _, n = B.shape
    out = np.einsum("bmk,bkn->bmn", A, B, optimize=True)
    if C is not None:
        C[...] = out
        out = C
    useful = 2 * batch * m * n * k
    return out, FlopReport(executed_flops=useful, useful_flops=useful)


def sbsmm_sdfg(batch: str = "BA", m: int = 4, n: int = 4, k: int = 4):
    """The SBSMM kernel as a data-centric program (specialized SDFG
    implementation of Fig. 18 step ❹): a batch map around a small
    contraction, which the Python backend lowers to one batched ``@``."""
    import repro as rp
    from repro.sdfg import SDFG, Memlet

    sdfg = SDFG("sbsmm")
    sdfg.add_array("A", (batch, m, k), rp.float64)
    sdfg.add_array("B", (batch, k, n), rp.float64)
    sdfg.add_array("C", (batch, m, n), rp.float64)
    state = sdfg.add_state("sbsmm")
    _, me, _ = state.add_mapped_tasklet(
        "sbsmm",
        {"b": f"0:{batch}", "i": f"0:{m}", "j": f"0:{n}", "kk": f"0:{k}"},
        inputs={
            "a": Memlet.simple("A", "b, i, kk"),
            "bb": Memlet.simple("B", "b, kk, j"),
        },
        code="o = a * bb",
        outputs={"o": Memlet(data="C", subset="b, i, j", wcr="sum")},
    )
    me.map.vectorized = True
    sdfg.validate()
    return sdfg

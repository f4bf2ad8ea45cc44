"""Fig. 14 — the five fundamental kernels on CPU (measured), GPU and
FPGA (machine-model simulated).

Role mapping: the loop references play the naive-compiler baselines
(GCC/Clang/ICC on naive loops); NumPy/BLAS plays the vendor libraries
(MKL on CPU, CUBLAS/cuSPARSE on GPU); SDFG rows are transformed
data-centric programs (the paper's §6.1 results employ data-centric
transformations).

Expected shapes (paper): MM ~98.6% of MKL; SpMV ~ MKL; Histogram ~8x
the naive compiler; Query beats element-at-a-time baselines; naive HLS
is orders of magnitude behind the FPGA-mapped SDFG.
"""

import time

import numpy as np
import pytest

from repro.library.sparse import CSRMatrix
from repro.runtime.perfmodel import simulate
from repro.transformations import (
    FPGATransform,
    GPUTransform,
    MapReduceFusion,
    Vectorization,
    apply_transformations,
)
from repro.workloads import kernels
from conftest import maybe_dump_report, mean_seconds, run_once

SIZES = {
    "matmul": 192,
    "jacobi_n": 192,
    "jacobi_t": 20,
    "hist_h": 384,
    "hist_w": 384,
    "query_n": 1 << 18,
    "spmv_rows": 1024,
    "spmv_nnz_per_row": 16,
}


# ------------------------------------------------------------- CPU measured
class TestFig14aCPU:
    def test_mm_sdfg(self, benchmark, results_table):
        n = SIZES["matmul"]
        data = kernels.matmul_data(n)
        sdfg = kernels.optimize_matmul(kernels.matmul_sdfg())
        comp = sdfg.compile()
        run_once(benchmark, lambda: comp(**data), rounds=3)
        results_table.append(("fig14a", "MM", "sdfg", mean_seconds(benchmark)))
        maybe_dump_report(comp, "fig14a_mm_sdfg")

    def test_mm_mkl_role(self, benchmark, results_table):
        n = SIZES["matmul"]
        data = kernels.matmul_data(n)
        run_once(benchmark, lambda: data["A"] @ data["B"], rounds=3)
        results_table.append(("fig14a", "MM", "mkl(np.dot)", mean_seconds(benchmark)))

    def test_mm_naive_role(self, benchmark, results_table):
        n = 48  # naive loops cannot afford the full size; scaled
        data = kernels.matmul_data(n)

        def loops():
            A, B, C = data["A"], data["B"], np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    acc = 0.0
                    for k in range(n):
                        acc += A[i, k] * B[k, j]
                    C[i, j] = acc

        run_once(benchmark, loops)
        results_table.append(("fig14a", "MM", "naive-loops(48)", mean_seconds(benchmark)))

    def test_mm_sdfg_close_to_library(self):
        """The headline §6.2 claim: transformed SDFG within striking
        distance of the tuned library (paper: 98.6% of MKL)."""
        n = SIZES["matmul"]
        data = kernels.matmul_data(n)
        sdfg = kernels.optimize_matmul(kernels.matmul_sdfg())
        comp = sdfg.compile()
        comp(**data)  # warm
        t0 = time.perf_counter()
        comp(**data)
        t_sdfg = time.perf_counter() - t0
        t0 = time.perf_counter()
        data["A"] @ data["B"]
        t_lib = time.perf_counter() - t0
        assert t_sdfg < 5 * t_lib  # same performance class

    def test_jacobi_sdfg(self, benchmark, results_table):
        data = kernels.jacobi2d_data(SIZES["jacobi_n"])
        sdfg = kernels.jacobi2d_sdfg()
        comp = sdfg.compile()
        run_once(benchmark, lambda: comp(A=data["A"], T=SIZES["jacobi_t"]), rounds=3)
        results_table.append(("fig14a", "Jacobi", "sdfg", mean_seconds(benchmark)))

    def test_jacobi_numpy_role(self, benchmark, results_table):
        data = kernels.jacobi2d_data(SIZES["jacobi_n"])
        run_once(
            benchmark,
            lambda: kernels.jacobi2d_reference(data["A"], SIZES["jacobi_t"]),
            rounds=3,
        )
        results_table.append(("fig14a", "Jacobi", "numpy", mean_seconds(benchmark)))

    def test_histogram_sdfg(self, benchmark, results_table):
        data = kernels.histogram_data(SIZES["hist_h"], SIZES["hist_w"])
        comp = kernels.histogram_sdfg().compile()

        def run():
            data["hist"][:] = 0
            comp(**data)

        run_once(benchmark, run)
        results_table.append(("fig14a", "Histogram", "sdfg", mean_seconds(benchmark)))

    def test_histogram_numpy_role(self, benchmark, results_table):
        data = kernels.histogram_data(SIZES["hist_h"], SIZES["hist_w"])
        run_once(
            benchmark, lambda: kernels.histogram_reference(data["img"], 256), rounds=3
        )
        results_table.append(("fig14a", "Histogram", "numpy", mean_seconds(benchmark)))

    def test_query_sdfg(self, benchmark, results_table):
        data = kernels.query_data(SIZES["query_n"])
        comp = kernels.query_sdfg().compile()

        def run():
            data["size"][:] = 0
            comp(**data)

        run_once(benchmark, run)
        results_table.append(("fig14a", "Query", "sdfg", mean_seconds(benchmark)))

    def test_query_numpy_role(self, benchmark, results_table):
        data = kernels.query_data(SIZES["query_n"])
        run_once(benchmark, lambda: data["col"][data["col"] <= 0.5], rounds=3)
        results_table.append(("fig14a", "Query", "numpy", mean_seconds(benchmark)))

    def test_spmv_sdfg(self, benchmark, results_table):
        data, csr = kernels.spmv_data(SIZES["spmv_rows"], SIZES["spmv_nnz_per_row"])
        comp = kernels.spmv_sdfg().compile()
        run_once(benchmark, lambda: comp(**data))
        results_table.append(("fig14a", "SpMV", "sdfg", mean_seconds(benchmark)))

    def test_spmv_mkl_role(self, benchmark, results_table):
        data, csr = kernels.spmv_data(SIZES["spmv_rows"], SIZES["spmv_nnz_per_row"])
        run_once(benchmark, lambda: csr.spmv(data["x"]), rounds=3)
        results_table.append(("fig14a", "SpMV", "mkl(scipy)", mean_seconds(benchmark)))


# ------------------------------------------------------------ GPU simulated
KERNEL_SDFGS = {
    "MM": lambda: kernels.optimize_matmul(kernels.matmul_sdfg()),
    "Jacobi": kernels.jacobi2d_sdfg,
    "Histogram": kernels.histogram_sdfg,
    "Query": kernels.query_sdfg,
    "SpMV": kernels.spmv_sdfg,
}

KERNEL_SYMBOLS = {
    "MM": {"M": 2048, "K": 2048, "N": 2048},
    "Jacobi": {"N": 2048, "T": 1024},
    "Histogram": {"H": 8192, "W": 8192, "BINS": 256},
    "Query": {"N": 1 << 26},
    "SpMV": {"H": 8192, "W": 8192, "nnz": 1 << 25},
}


@pytest.mark.parametrize("name", sorted(KERNEL_SDFGS))
def test_fig14b_gpu_model(benchmark, results_table, name):
    sdfg = KERNEL_SDFGS[name]()
    apply_transformations(sdfg, GPUTransform, validate=False)
    rep = run_once(benchmark, simulate, sdfg, "gpu", KERNEL_SYMBOLS[name])
    assert rep.time > 0
    benchmark.extra_info["modeled_ms"] = rep.time * 1e3
    results_table.append(("fig14b", name, "sdfg-gpu(model)", rep.time))


@pytest.mark.parametrize("name", sorted(KERNEL_SDFGS))
def test_fig14c_fpga_model(benchmark, results_table, name):
    sdfg = KERNEL_SDFGS[name]()
    apply_transformations(sdfg, FPGATransform, validate=False)
    syms = KERNEL_SYMBOLS[name]
    rep = run_once(benchmark, simulate, sdfg, "fpga", syms)
    naive = simulate(sdfg, "fpga", syms, naive_fpga=True)
    factor = naive.time / rep.time
    benchmark.extra_info["modeled_ms"] = rep.time * 1e3
    benchmark.extra_info["naive_hls_factor"] = factor
    results_table.append(("fig14c", name, "sdfg-fpga(model)", rep.time))
    results_table.append(("fig14c", name, "naive-hls(model)", naive.time))
    # Paper: MM 4992x over naive HLS; others 10x+.  SpMV's data-dependent
    # ranges leave the model with lower-bound trip counts, shrinking the
    # modeled gap — the win direction still holds.
    assert factor > (1.2 if name == "SpMV" else 3)

"""Fig. 13a — Polybench on CPU: unoptimized SDFGs vs general-purpose
compilers vs polyhedral compilers.

Role mapping (DESIGN.md §1): plain Python loop nests play the
general-purpose compilers applied to naive C loops; NumPy-vectorized
references play the polyhedral optimizers; the SDFG rows are this
system's *untransformed* code generation (paper §5: the representation
itself exposes the parallelism).

Expected shape: SDFG lands between the naive-loop baseline and the
polyhedral role on parallel kernels (often close to polyhedral), and
near the naive baseline on the sequential solvers — the paper's stated
behavior for cholesky/lu/gemm.
"""

import numpy as np
import pytest

from repro.workloads.polybench import all_kernels, get
from conftest import mean_seconds, run_once

ROLES = ("loops", "numpy", "sdfg")


def _make_runner(kernel, role):
    data = kernel.data()
    if role == "sdfg":
        compiled = kernel.make_sdfg().compile()

        def run():
            d = {k: v.copy() for k, v in data.items()}
            kernel.run_sdfg(d, compiled=compiled)
            return d

        return run
    ref = kernel.ref_loops if role == "loops" else kernel.ref_numpy

    def run():
        d = {k: v.copy() for k, v in data.items()}
        ref(d, kernel.sizes)
        return d

    return run


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("name", all_kernels())
def test_fig13a(benchmark, results_table, name, role):
    kernel = get(name)
    runner = _make_runner(kernel, role)
    result = run_once(benchmark, runner)
    benchmark.extra_info["figure"] = "fig13a"
    benchmark.extra_info["role"] = role
    results_table.append(("fig13a", name, role, mean_seconds(benchmark)))
    # Correctness guard: every benchmarked run produces the loop-ref output.
    if role == "sdfg":
        ref = {k: v.copy() for k, v in kernel.data().items()}
        kernel.ref_loops(ref, kernel.sizes)
        for out in kernel.outputs:
            np.testing.assert_allclose(result[out], ref[out], rtol=1e-8, atol=1e-9)

"""Execution fast-path benchmarks (DESIGN.md §9).

Measures the three hot-path optimizations directly, without the
pytest-benchmark fixture so the perf CI job needs only numpy + pytest:

* **Compilation cache**: cold vs warm ``compile_sdfg`` on gemm — the
  warm compile skips validation, propagation, and codegen.
* **WCR scatter**: the histogram kernel through the ``np.add.at``
  lowering vs the forced loop lowering (``vectorize=False``).
* **Ragged and predicated maps**: SpMV and Query through their
  whole-domain lowerings vs the loop tier, at least 5x.
* **Strips**: histogram at 1024x1024 run in cache-sized strips vs the
  same map lowered whole, interleaved, at most 0.8x.
* **Destination passing**: optimized matmul at 512 within 1.10x of
  ``A @ B``, interleaved, min of 7.
* **Fidelity**: the five fundamental kernels stay within 1e-8 of the
  reference interpreter while taking the fast paths.

When ``REPRO_BENCH_REPORTS`` names a directory, a ``BENCH_pr4.json``
summary is written there for the CI artifact.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.codegen import compile_sdfg
from repro.codegen.progcache import ProgramCache
from repro.codegen.python_gen import PythonGenerator
from repro.runtime import SDFGInterpreter
from repro.sdfg.propagation import propagate_memlets_sdfg
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.workloads import kernels

RESULTS = {}


def _record(name: str, value: float) -> None:
    RESULTS[name] = value


def _dump_results() -> None:
    target = os.environ.get("REPRO_BENCH_REPORTS", "")
    if not target:
        return
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, "BENCH_pr4.json"), "w") as f:
        json.dump(RESULTS, f, indent=1, sort_keys=True)


class TestCompileCache:
    def test_warm_compile_beats_cold(self):
        cache = ProgramCache()
        t0 = time.perf_counter()
        cold = compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        cold_s = time.perf_counter() - t0
        assert not cold.cache_hit

        # Warm once so exec'd-callable attachment is in place, then time.
        compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        t0 = time.perf_counter()
        warm = compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        warm_s = time.perf_counter() - t0
        assert warm.cache_hit
        root = f"compile:{warm.sdfg.name}"
        ph = [
            p[len(root) + 1 :]
            for p in warm.compile_report.flat()
            if p.startswith(f"{root}/phase:")
        ]
        assert not any("codegen" in p for p in ph), ph

        _record("compile_cold_s", cold_s)
        _record("compile_warm_s", warm_s)
        _record("compile_speedup", cold_s / warm_s if warm_s else float("inf"))
        # CI enforces warm <= 25% of cold; keep a generous local bound so
        # loaded machines do not flake.
        assert warm_s < cold_s, (cold_s, warm_s)

        data = kernels.matmul_data(32)
        warm(**data)
        np.testing.assert_allclose(
            data["C"], kernels.matmul_reference(data), rtol=1e-12
        )


class TestHistogramScatter:
    H, W, BINS = 512, 512, 256

    def _loop_main(self):
        """Force the loop lowering (vectorize=False) and exec it."""
        work = sdfg_from_json(sdfg_to_json(kernels.histogram_sdfg()))
        propagate_memlets_sdfg(work)
        src = PythonGenerator(work, vectorize=False).generate()
        assert "np.add.at" not in src
        ns: dict = {}
        exec(compile(src, "<loop-histogram>", "exec"), ns)
        return ns["main"]

    def test_scatter_beats_loop(self):
        data = kernels.histogram_data(self.H, self.W, self.BINS)
        ref = kernels.histogram_reference(data["img"], self.BINS)

        compiled = compile_sdfg(kernels.histogram_sdfg())
        fast = {k: v.copy() for k, v in data.items()}
        compiled(H=self.H, W=self.W, **fast)  # warm the marshaling plan
        fast["hist"][:] = 0
        t0 = time.perf_counter()
        compiled(H=self.H, W=self.W, **fast)
        fast_s = time.perf_counter() - t0
        assert np.array_equal(fast["hist"], ref)

        loop_main = self._loop_main()
        slow = {k: v.copy() for k, v in data.items()}
        t0 = time.perf_counter()
        loop_main(
            img=slow["img"], hist=slow["hist"],
            H=self.H, W=self.W, BINS=self.BINS,
        )
        loop_s = time.perf_counter() - t0
        assert np.array_equal(slow["hist"], ref)

        _record("hist_scatter_s", fast_s)
        _record("hist_loop_s", loop_s)
        _record("hist_speedup", loop_s / fast_s if fast_s else float("inf"))
        # The scatter evaluates 512x512 updates in one ufunc call; even on
        # noisy CI machines it is far more than 2x the scalar loop.
        assert fast_s * 2 < loop_s, (fast_s, loop_s)


class TestStrips:
    """Histogram at 1024x1024 (32 strips of 32 rows) against the same
    scatter lowered whole, whose four domain-sized temporaries (8 MB
    each) page-fault afresh on every call."""

    H = W = 1024
    ROUNDS = 7

    def test_strips_beat_the_whole_domain(self):
        data = kernels.histogram_data(self.H, self.W, seed=1)
        ref = kernels.histogram_reference(data["img"], len(data["hist"]))
        stripped = compile_sdfg(kernels.histogram_sdfg(), cache="off")
        with pytest.MonkeyPatch.context() as m:
            m.setattr(PythonGenerator, "_strip_plan",
                      lambda self, sdfg, entry, pranges, strip: (pranges, None))
            whole = compile_sdfg(kernels.histogram_sdfg(), cache="off")
        assert "_strips(" in stripped.source and "_strips(" not in whole.source

        times = {"strips": [], "whole": []}
        for r in range(self.ROUNDS):
            order = [("strips", stripped), ("whole", whole)]
            for key, compiled in order[:: 1 if r % 2 else -1]:
                out = {k: v.copy() for k, v in data.items()}
                t0 = time.perf_counter()
                compiled(H=self.H, W=self.W, **out)
                times[key].append(time.perf_counter() - t0)
                assert np.array_equal(out["hist"], ref), key
        strips_s, whole_s = (float(np.median(times[k])) for k in ("strips", "whole"))
        _record("hist_strips_s", strips_s)
        _record("hist_whole_s", whole_s)
        _record("hist_strips_ratio", strips_s / whole_s)
        # Measured about 0.45x on a 2-core x86 box.
        assert strips_s <= 0.8 * whole_s, (strips_s, whole_s)


class TestWholeDomainTiers:
    """SpMV through the ragged lowering and Query through the predicated
    one, each against the same program forced onto the loop tier."""

    @staticmethod
    def _time(compiled, data):
        def fresh():
            return {k: v.copy() if isinstance(v, np.ndarray) else v
                    for k, v in data.items()}

        compiled(**fresh())  # builds the marshaling plan
        best, out = float("inf"), None
        for _ in range(3):
            out = fresh()
            t0 = time.perf_counter()
            compiled(**out)
            best = min(best, time.perf_counter() - t0)
        return best, out

    def _compare(self, name, make_sdfg, data, tier, check):
        fast = compile_sdfg(make_sdfg())
        slow = compile_sdfg(make_sdfg(), vectorize=False)
        assert tier in {r["tier"] for r in fast.lowering}
        assert {r["tier"] for r in slow.lowering} == {"loop"}
        fast_s, fast_out = self._time(fast, data)
        loop_s, loop_out = self._time(slow, data)
        check(fast_out, loop_out)
        _record(f"{name}_{tier}_s", fast_s)
        _record(f"{name}_loop_s", loop_s)
        _record(f"{name}_speedup", loop_s / fast_s)
        # Measured 40-90x; 5x leaves room for the noisiest CI machine.
        assert fast_s * 5 < loop_s, (name, fast_s, loop_s)

    def test_spmv_ragged_beats_loop(self):
        data, _csr = kernels.spmv_data(2048, 16)

        def check(fast, loop):
            # Unbuffered scatter: the loop tier's accumulation order.
            assert np.array_equal(fast["b"], loop["b"])

        self._compare("spmv", kernels.spmv_sdfg, data, "ragged", check)

    def test_query_predicated_beats_loop(self):
        data = kernels.query_data(1 << 14)

        def check(fast, loop):
            n = int(fast["size"][0])
            assert n == int(loop["size"][0]) > 0
            assert np.array_equal(fast["out"][:n], loop["out"][:n])

        self._compare("query", kernels.query_sdfg, data, "predicated", check)


class TestDestinationPassing:
    """Optimized matmul at 512 against the library call it lowers to:
    the product is multiplied into the zeroed output (DESIGN §9), so no
    fill and no sum of a temporary stand between it and ``A @ B``."""

    N = 512
    ROUNDS = 7

    def test_fold_is_one_matmul_into_the_output(self):
        compiled = compile_sdfg(kernels.optimize_matmul(kernels.matmul_sdfg()), cache="off")
        assert "np.matmul(A[0:M, 0:K], B[0:K, 0:N], out=C[0:M, 0:N])" in compiled.source
        assert "np.add(" not in compiled.source and "_reduce_init_" not in compiled.source

    def test_matmul_runs_at_library_speed(self):
        data = kernels.matmul_data(self.N, seed=1)
        compiled = compile_sdfg(kernels.optimize_matmul(kernels.matmul_sdfg()), cache="off")
        out = {k: v.copy() for k, v in data.items()}
        compiled(**out)  # builds the marshaling plan
        times = {"sdfg": [], "numpy": []}
        for r in range(self.ROUNDS):
            order = [("sdfg", lambda: compiled(**out)),
                     ("numpy", lambda: data["A"] @ data["B"])]
            for key, call in order[:: 1 if r % 2 else -1]:
                t0 = time.perf_counter()
                call()
                times[key].append(time.perf_counter() - t0)
        np.testing.assert_allclose(out["C"], data["A"] @ data["B"], rtol=1e-12)
        sdfg_s, numpy_s = min(times["sdfg"]), min(times["numpy"])
        _record("matmul512_sdfg_s", sdfg_s)
        _record("matmul512_numpy_s", numpy_s)
        _record("matmul512_vs_numpy", sdfg_s / numpy_s)
        # Measured about 1.16x before the fold (a zero fill, then the
        # product summed into it from a temporary).
        assert sdfg_s <= 1.10 * numpy_s, (sdfg_s, numpy_s)


class TestFundamentalFidelity:
    """All five fundamental kernels match the interpreter at 1e-8."""

    def _check(self, name, sdfg, syms, data):
        cg = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in data.items()}
        it = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in data.items()}
        compile_sdfg(sdfg)(**syms, **cg)
        SDFGInterpreter(sdfg)(**syms, **it)
        for k, v in cg.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_allclose(v, it[k], rtol=0, atol=1e-8, err_msg=k)
        _record(f"fidelity_{name}", 1.0)

    def test_all_five(self):
        self._check("matmul", kernels.matmul_sdfg(), {}, kernels.matmul_data(32))
        self._check(
            "jacobi2d", kernels.jacobi2d_sdfg(), {"T": 4}, kernels.jacobi2d_data(24)
        )
        self._check(
            "histogram",
            kernels.histogram_sdfg(),
            {"H": 48, "W": 32},
            kernels.histogram_data(48, 32),
        )
        self._check("query", kernels.query_sdfg(), {}, kernels.query_data(1024))
        spmv_data, _csr = kernels.spmv_data(128, 8)
        self._check("spmv", kernels.spmv_sdfg(), {}, spmv_data)


def test_zz_dump_results():
    """Runs last (name order): persist the collected numbers."""
    _dump_results()

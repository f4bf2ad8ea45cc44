"""Fidelity and lifecycle tests for the multicore parallel execution
tier of the generated-Python backend (proof-carrying map
parallelization; see ``repro.runtime.parallel`` and DESIGN §14).

Every parallel artifact must agree with the serial reference at 1e-8 —
including WCR kernels whose per-worker partial accumulators are merged
at the barrier — and conflict-free/integer-WCR kernels must be
*bitwise* identical between 1 worker and N workers.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.codegen.compiler import compile_sdfg
from repro.chaos import uninstall_engine
from repro.runtime.parallel import (
    MapWorkerPool,
    ParallelConfig,
    live_pool_count,
    live_worker_pids,
)
from repro.workloads import kernels

TIERS = ("auto", "thread", "fork")
SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _compile_parallel(sdfg, tier="auto", workers=3, **kw):
    return compile_sdfg(
        sdfg,
        backend="python",
        parallel=ParallelConfig(workers=workers, tier=tier),
        **kw,
    )


# =====================================================================
# Fidelity matrix: the five fundamental kernels x every tier
# =====================================================================


class TestFundamentalKernelFidelity:
    @pytest.mark.parametrize("tier", TIERS)
    def test_matmul(self, tier):
        data = kernels.matmul_data(32)
        ref = kernels.matmul_reference(data)
        c = _compile_parallel(kernels.matmul_sdfg(), tier)
        try:
            assert c._pool is not None
            c(**data)
        finally:
            c.close()
        np.testing.assert_allclose(data["C"], ref, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("tier", TIERS)
    def test_jacobi2d(self, tier):
        data = kernels.jacobi2d_data(24)
        ref = kernels.jacobi2d_reference(data["A"].copy(), 6)
        c = _compile_parallel(kernels.jacobi2d_sdfg(), tier)
        try:
            c(A=data["A"], T=6)
        finally:
            c.close()
        np.testing.assert_allclose(data["A"], ref, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("tier", TIERS)
    def test_histogram_wcr_partial_merge(self, tier):
        data = kernels.histogram_data(25, 31)
        ref = kernels.histogram_reference(data["img"], 256)
        c = _compile_parallel(kernels.histogram_sdfg(), tier)
        try:
            c(**data)
        finally:
            c.close()
        # Integer Sum-WCR: chunk merge must be exact, not just close.
        np.testing.assert_array_equal(data["hist"], ref)

    @pytest.mark.parametrize("tier", TIERS)
    def test_spmv_wcr_partial_merge(self, tier):
        from repro.library.sparse import spmv_reference_loops

        data, csr = kernels.spmv_data(48, 5)
        ref = spmv_reference_loops(
            csr, data["x"], np.zeros(48, np.float64)
        )
        c = _compile_parallel(kernels.spmv_sdfg(), tier)
        try:
            c(**data)
        finally:
            c.close()
        np.testing.assert_allclose(data["b"], ref, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("tier", TIERS)
    def test_query_stream_stays_serial_and_correct(self, tier):
        """The stream-filter query is NOT provably parallelizable (its
        map pushes into a shared stream): the artifact must degrade to
        the serial path with a W703 diagnostic and still be correct."""
        data = kernels.query_data(120)
        expected = kernels.query_reference(data["col"], 0.5)
        c = _compile_parallel(kernels.query_sdfg(), tier)
        try:
            assert any(w.code == "W703" for w in c.codegen_warnings)
            c(**data)
        finally:
            c.close()
        count = int(data["size"][0])
        assert count == len(expected)
        np.testing.assert_allclose(
            np.sort(data["out"][:count]), np.sort(expected)
        )


# =====================================================================
# PolyBench subset through the parallel tier
# =====================================================================

POLYBENCH_SUBSET = {
    "gemm": {},
    "atax": {"NI": 40, "NJ": 44},
    "mvt": {"NI": 48},
    "jacobi-2d": {"N": 20, "TSTEPS": 3},
    "syrk": {},
}


@pytest.mark.parametrize("name", sorted(POLYBENCH_SUBSET))
def test_polybench_parallel_matches_numpy_reference(name):
    from repro.workloads.polybench import get

    kernel = get(name)
    sizes = dict(kernel.sizes)
    sizes.update(POLYBENCH_SUBSET[name])
    data = kernel.make_data(sizes)
    data_ref = {k: v.copy() for k, v in data.items()}

    c = _compile_parallel(kernel.make_sdfg(), "auto")
    try:
        kwargs = dict(data)
        for sym in kernel.extra_symbols:
            kwargs[sym] = sizes[sym]
        c(**kwargs)
    finally:
        c.close()
    kernel.ref_numpy(data_ref, sizes)
    for out in kernel.outputs:
        np.testing.assert_allclose(
            data[out], data_ref[out], rtol=1e-8, atol=1e-9,
            err_msg=f"{name}: parallel tier vs numpy reference",
        )


# =====================================================================
# 1 worker == N workers, bitwise
# =====================================================================


class TestWorkerCountInvariance:
    """Conflict-free elementwise maps and integer-WCR merges must be
    bitwise identical no matter how the domain was chunked."""

    def _run(self, sdfg_factory, data_factory, workers, symbols=None):
        data = data_factory()
        c = compile_sdfg(
            sdfg_factory(), backend="python",
            parallel=ParallelConfig(workers=workers),
        )
        try:
            c(**data, **(symbols or {}))
        finally:
            c.close()
        return data

    @pytest.mark.parametrize("workers", [2, 4, 7])
    def test_elementwise_bitwise(self, workers):
        base = self._run(
            kernels.jacobi2d_sdfg,
            lambda: {"A": kernels.jacobi2d_data(24)["A"]},
            1, {"T": 5},
        )
        multi = self._run(
            kernels.jacobi2d_sdfg,
            lambda: {"A": kernels.jacobi2d_data(24)["A"]},
            workers, {"T": 5},
        )
        assert np.array_equal(base["A"], multi["A"])

    @pytest.mark.parametrize("workers", [2, 4, 7])
    def test_integer_wcr_bitwise(self, workers):
        base = self._run(
            kernels.histogram_sdfg, lambda: kernels.histogram_data(23, 29), 1
        )
        multi = self._run(
            kernels.histogram_sdfg,
            lambda: kernels.histogram_data(23, 29),
            workers,
        )
        assert np.array_equal(base["hist"], multi["hist"])


# =====================================================================
# Sanitizer interplay (W702) and diagnostics
# =====================================================================


class TestSanitizerDegradation:
    def test_sanitize_disables_parallel_with_w702(self):
        c = compile_sdfg(
            kernels.histogram_sdfg(), backend="python",
            parallel=True, sanitize="collect",
        )
        try:
            assert c._pool is None
            codes = [w.code for w in c.codegen_warnings]
            assert "W702" in codes
            data = kernels.histogram_data(16, 16)
            c(**data)
            np.testing.assert_array_equal(
                data["hist"], kernels.histogram_reference(data["img"], 256)
            )
        finally:
            c.close()

    def test_sanitize_does_not_fork_cache_key(self):
        a = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         sanitize="collect", cache="memory")
        b = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         sanitize="collect", parallel=4, cache="memory")
        assert b.cache_key == a.cache_key
        a.close(); b.close()


# =====================================================================
# Pool lifecycle
# =====================================================================


class TestPoolLifecycle:
    def test_close_is_idempotent_and_degrades_inline(self):
        data = kernels.matmul_data(16)
        ref = kernels.matmul_reference(data)
        c = _compile_parallel(kernels.matmul_sdfg(), "auto")
        pool = c._pool
        c.close()
        c.close()
        assert pool.closed
        c(**data)  # closed pool: inline path, still correct
        np.testing.assert_allclose(data["C"], ref, rtol=1e-8, atol=1e-10)
        assert pool.stats["inline_runs"] >= 1

    def test_cache_hit_reattaches_a_fresh_pool(self):
        cfg = ParallelConfig(workers=2)
        a = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         parallel=cfg, cache="memory")
        b = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         parallel=cfg, cache="memory")
        try:
            assert b.cache_hit and b._pool is not None
            assert b._pool is not a._pool
            data = kernels.matmul_data(16)
            b(**data)
            np.testing.assert_allclose(
                data["C"], kernels.matmul_reference(data), rtol=1e-8,
                atol=1e-10,
            )
        finally:
            a.close()
            b.close()

    def test_parallel_variant_has_its_own_cache_key(self):
        a = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         cache="memory")
        b = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         parallel=2, cache="memory")
        assert a.cache_key != b.cache_key
        a.close(); b.close()

    def test_no_pool_leak_across_compiles(self):
        before = live_pool_count()
        for _ in range(8):
            c = _compile_parallel(kernels.histogram_sdfg(), "auto")
            data = kernels.histogram_data(12, 12)
            c(**data)
            c.close()
        assert live_pool_count() == before

    def test_telemetry_events_published(self):
        from repro.telemetry.sink import TelemetrySink, install_sink

        sink = TelemetrySink()
        previous = install_sink(sink)
        try:
            c = _compile_parallel(kernels.matmul_sdfg(), "thread")
            data = kernels.matmul_data(24)
            c(**data)
            c.close()
        finally:
            install_sink(previous)
        events, _, _ = sink.drain(0)
        parallel = [e for e in events if e.kind == "parallel"]
        assert parallel, "expected parallel:* telemetry events"
        ev = parallel[0]
        assert ev.fields.get("chunks", 0) >= 2
        assert ev.fields.get("tier") in ("thread", "fork", "inline")


# =====================================================================
# Fallbacks: a pool that cannot start, a fork worker that dies
# =====================================================================


@pytest.fixture
def faults(monkeypatch):
    """Install a ``REPRO_FAULTS`` plan for one test."""
    def install(spec):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        uninstall_engine()

    yield install
    uninstall_engine()


def _matmul_case():
    data = kernels.matmul_data(24)
    return kernels.matmul_sdfg(), data, {}, {"C": kernels.matmul_reference(data)}


def _syrk_case():
    from repro.workloads.polybench import get

    kernel = get("syrk")
    sizes = dict(kernel.sizes)
    data = kernel.make_data(sizes)
    ref = {k: v.copy() for k, v in data.items()}
    kernel.ref_numpy(ref, sizes)
    symbols = {s: sizes[s] for s in kernel.extra_symbols}
    return kernel.make_sdfg(), data, symbols, {o: ref[o] for o in kernel.outputs}


class TestPoolFallbacks:
    @pytest.mark.parametrize("action", ["raise", "raise-io"])
    @pytest.mark.parametrize(
        "case, spec", [(_matmul_case, "thread:2"), (_syrk_case, "fork:2")],
        ids=["thread-matmul", "fork-syrk"],
    )
    def test_pool_spawn_failure_runs_inline(self, faults, case, spec, action):
        sdfg, data, symbols, expected = case()
        c = compile_sdfg(sdfg, backend="python", parallel=spec)
        faults(f"parallel.pool_spawn:{action}")
        try:
            c(**data, **symbols)
            stats = dict(c._pool.stats)
        finally:
            c.close()
        assert stats["runs"] == 1
        assert stats["fallbacks"] == 1
        assert stats["thread_runs"] == stats["fork_runs"] == 0
        for name, ref in expected.items():
            np.testing.assert_allclose(data[name], ref, rtol=1e-8, atol=1e-10)

    def test_killed_fork_worker_reruns_inline_then_forks_fresh(self, tmp_path):
        marker = tmp_path / "kill-one-worker"
        pool = MapWorkerPool(ParallelConfig(workers=2, tier="fork"))
        pool.register_functions({"_chunk_dies_once": _chunk_dies_once})
        expected = np.arange(16) * 2.0

        def fork_run():
            out = np.zeros(16)
            run = pool.run(_chunk_dies_once, 0, 16, 1, (out, str(marker)),
                           tier="fork")
            assert run.tier == "fork" and run.copyback
            for lo, hi, ret in run.parts:
                out[lo:hi] = ret[0][0]
            np.testing.assert_allclose(out, expected, rtol=1e-8)
            return live_worker_pids()

        try:
            first = fork_run()
            assert len(first) == 2 and pool.stats["fork_respawns"] == 2

            marker.touch()
            out = np.zeros(16)
            run = pool.run(_chunk_dies_once, 0, 16, 1, (out, str(marker)),
                           tier="fork")
            assert run.tier == "inline" and not marker.exists()
            np.testing.assert_allclose(out, expected, rtol=1e-8)
            assert pool.stats["fallbacks"] == 1
            for pid in first:  # the broken executor's workers are reaped
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

            fresh = fork_run()
            assert len(fresh) == 2 and not set(fresh) & set(first)
            assert pool.stats["fork_runs"] == 2
            assert pool.stats["fork_respawns"] == 4
        finally:
            pool.close()
        for pid in fresh:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_fork_workers_exit_with_their_parent(self):
        """A process SIGKILLed while it holds a live fork pool leaves no
        fork worker behind (they would hold its pipes open)."""
        script = textwrap.dedent("""
            import time
            from repro.codegen.compiler import compile_sdfg
            from repro.runtime.parallel import live_worker_pids
            from repro.workloads.polybench import get

            kernel = get("syrk")
            sizes = dict(kernel.sizes)
            c = compile_sdfg(kernel.make_sdfg(), backend="python",
                             parallel="fork:2")
            c(**kernel.make_data(sizes),
              **{s: sizes[s] for s in kernel.extra_symbols})
            assert c._pool.stats["fork_runs"] >= 1
            print(*live_worker_pids(), flush=True)
            time.sleep(60)
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.05)
        assert all(map(_gone, pids)), "fork workers outlived their parent"


# =====================================================================
# Pool unit behavior
# =====================================================================


class TestMapWorkerPool:
    def test_partition_covers_the_domain_exactly(self):
        pool = MapWorkerPool(ParallelConfig(workers=3))
        for start, stop, step in ((0, 100, 3), (2, 57, 5), (0, 16, 1)):
            chunks = pool.partition(start, stop, step)
            indices = [i for lo, hi in chunks for i in range(lo, hi, step)]
            assert indices == list(range(start, stop, step))
            for (lo, hi), (lo2, _) in zip(chunks, chunks[1:]):
                assert hi == lo2
                assert (lo2 - start) % step == 0
        pool.close()

    def test_forced_fork_never_escalates_thread_only_chunks(self):
        """A chunk emitted for the thread tier mutates shared arrays in
        place; a fork-forcing pool config must keep it on threads."""
        data = kernels.matmul_data(24)
        ref = kernels.matmul_reference(data)
        c = _compile_parallel(kernels.matmul_sdfg(), "fork")
        try:
            c(**data)
            assert c._pool.stats["fork_runs"] == 0
            assert c._pool.stats["thread_runs"] >= 1
        finally:
            c.close()
        np.testing.assert_allclose(data["C"], ref, rtol=1e-8, atol=1e-10)

    def test_single_chunk_runs_inline(self):
        pool = MapWorkerPool(ParallelConfig(workers=4, min_chunk=1000))
        res = pool.run(_double_chunk, 0, 10, 1, (np.arange(10.0),))
        assert res.tier == "inline"
        assert pool.stats["inline_runs"] == 1
        pool.close()


def _double_chunk(lo, hi, arr):
    arr[lo:hi] *= 2.0
    return ((), ())


def _chunk_dies_once(lo, hi, out, marker):
    """Doubles ``[lo, hi)`` into ``out``; in a fork worker, the first
    chunk to claim ``marker`` SIGKILLs its own process instead."""
    if multiprocessing.parent_process() is not None:
        try:
            os.unlink(marker)
        except FileNotFoundError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    out[lo:hi] = np.arange(lo, hi) * 2.0
    return ((out[lo:hi],), ())


def _gone(pid):
    """``pid`` has exited (an unreaped orphan counts: it is a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True

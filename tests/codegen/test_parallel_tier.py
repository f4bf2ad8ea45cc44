"""Fidelity and lifecycle tests for the multicore parallel execution
tier of the generated-Python backend (proof-carrying map
parallelization; see ``repro.runtime.parallel`` and DESIGN §14).

Every parallel artifact must agree with the serial reference at 1e-8 —
including WCR kernels whose per-worker partial accumulators are merged
at the barrier — and conflict-free/integer-WCR kernels must be
*bitwise* identical between 1 worker and N workers.
"""

import time

import numpy as np
import pytest

from repro.codegen.compiler import compile_sdfg
from repro.chaos import uninstall_engine
from repro.runtime.parallel import (
    MapWorkerPool,
    ParallelConfig,
    live_pool_count,
)
from repro.workloads import kernels, polybench

#: Spellings of the one thread tier.
TIERS = ("auto", "thread")


def _compile_parallel(sdfg, tier="auto", workers=3, **kw):
    return compile_sdfg(sdfg, backend="python", parallel=f"{tier}:{workers}", **kw)


# =====================================================================
# Fidelity matrix: the five fundamental kernels x every tier
# =====================================================================


@pytest.mark.usefixtures("no_work_floor")
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
# 1 worker == N workers, bitwise
# =====================================================================


@pytest.mark.usefixtures("no_work_floor")
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


@pytest.mark.usefixtures("no_work_floor")
class TestPoolLifecycle:
    def test_close_is_idempotent_and_degrades_inline(self):
        data = kernels.matmul_data(16)
        ref = kernels.matmul_reference(data)
        c = _compile_parallel(kernels.matmul_sdfg(), "auto")
        pool = c._pool
        c.close()
        c.close()
        assert pool.closed
        c(**data)  # a closed pool accepts no map: the serial lowering runs
        np.testing.assert_allclose(data["C"], ref, rtol=1e-8, atol=1e-10)
        assert pool.stats["inline_runs"] >= 1
        assert pool.stats["thread_runs"] == 0 and pool._executor is None

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
        assert ev.fields.get("tier") in ("thread", "inline")


# =====================================================================
# Fallbacks: a pool that cannot start
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


@pytest.mark.usefixtures("no_work_floor")
class TestPoolFallbacks:
    @pytest.mark.parametrize("action", ["raise", "raise-io"])
    @pytest.mark.parametrize(
        "case, spec", [(_matmul_case, "thread:2")], ids=["thread-matmul"],
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
        assert stats["thread_runs"] == 0
        for name, ref in expected.items():
            np.testing.assert_allclose(data[name], ref, rtol=1e-8, atol=1e-10)


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

    def test_single_chunk_runs_inline(self):
        pool = MapWorkerPool(ParallelConfig(workers=4))
        arr = np.ones(1)
        assert pool.run(_double_chunk, 0, 1, 1, (arr,)) == [()]
        assert pool.stats["inline_runs"] == 1
        np.testing.assert_array_equal(arr, [2.0])
        pool.close()

    def test_a_failing_chunk_raises_after_every_chunk_finished(self):
        def chunk(lo, hi, out):
            if lo == 0:
                raise ValueError("boom")
            time.sleep(0.05)
            out[lo:hi] = 1.0
            return ()

        pool = MapWorkerPool(ParallelConfig(workers=2))
        out = np.zeros(4)
        try:
            with pytest.raises(ValueError, match="boom"):
                pool.run(chunk, 0, 4, 1, (out,))
        finally:
            pool.close()
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]


def _double_chunk(lo, hi, arr):
    arr[lo:hi] *= 2.0
    return ()


# =====================================================================
# The gate: reads of written containers
# =====================================================================


def _w703(sdfg):
    c = compile_sdfg(sdfg, backend="python", parallel=2, cache="off")
    c.close()
    return [w.message for w in c.codegen_warnings if w.code == "W703"]


class TestReadGate:
    def test_own_row_and_other_plane_reads_stay_parallel(self):
        """jacobi-2d reads plane ``t % 2`` and writes ``(t + 1) % 2``;
        adi's sweeps read their own row.  Neither touches another
        chunk's writes."""
        from repro.workloads.polybench import get

        for sdfg in (kernels.jacobi2d_sdfg(), get("adi").make_sdfg()):
            assert not [m for m in _w703(sdfg) if "other chunks" in m]

    def test_read_of_another_chunks_row_is_refused(self):
        from repro.workloads.polybench import get

        messages = _w703(get("floyd-warshall").make_sdfg())
        assert any("map reads 'paths'[k, j], which other chunks may write"
                   in m for m in messages), messages


# =====================================================================
# The one tier: worker count only, the old fork tier rejected
# =====================================================================


class TestParallelSpec:
    @pytest.mark.parametrize("spec", [3, "3", "thread:3", "auto:3",
                                      {"workers": 3, "tier": "auto"}])
    def test_every_spelling_is_a_worker_count(self, spec):
        assert ParallelConfig.parse(spec) == ParallelConfig(workers=3)
        assert ParallelConfig.parse(spec).key_fragment() == "w3"

    def test_compile_rejects_fork_naming_cpp(self):
        with pytest.raises(ValueError, match="cpp"):
            compile_sdfg(kernels.matmul_sdfg(), backend="python", parallel="fork:2")

    def test_dict_rejects_fork_naming_cpp(self):
        with pytest.raises(ValueError, match="cpp"):
            compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         parallel={"tier": "fork"})

    @pytest.mark.parametrize("spec", [0, "0", "thread:0", "auto:0",
                                      {"workers": 0}, {"workers": 0, "tier": "auto"}])
    def test_zero_workers_is_off_in_every_spelling(self, spec):
        from repro.serve.worker import WorkerRuntime
        from repro.serve import protocol

        assert ParallelConfig.parse(spec) is None
        c = compile_sdfg(kernels.matmul_sdfg(), backend="python",
                         parallel=spec, cache="off")
        c.close()
        assert c._pool is None
        rt = WorkerRuntime()
        resp = rt.handle({
            "op": "execute", "sdfg": kernels.matmul_sdfg().to_json(),
            "arrays": protocol.encode_arrays(kernels.matmul_data(8)),
            "symbols": {"M": 8, "K": 8, "N": 8}, "parallel": spec,
        })
        assert resp["status"] == "ok", resp
        assert [p._pool for p in rt._programs.values()] == [None]


# =====================================================================
# The tier rule and the work floor
# =====================================================================


class TestChunkRule:
    @pytest.mark.parametrize("name, tier", [("syrk", "loop"),
                                            ("gemm", "contraction")])
    def test_unchunked_tiers_get_no_chunk_function(self, name, tier):
        """A loop body holds the GIL and a contraction is one BLAS call:
        every map of either tier stays serial, and its W703 names the
        tier."""
        c = compile_sdfg(polybench.get(name).make_sdfg(), backend="python",
                         parallel=2, cache="off")
        c.close()
        labels = {row["map"] for row in c.lowering if row["tier"] == tier}
        assert labels
        for label in labels:
            assert f"# parallel map {label}:" not in c.source
            assert any(w.code == "W703"
                       and f"map {label!r} lowers to the {tier!r} tier" in w.message
                       for w in c.codegen_warnings), c.codegen_warnings


class TestWorkFloor:
    def test_auto_makes_no_threaded_run_on_the_corpus(self):
        """At the calibrated floor, no corpus program at its registry or
        small size carries enough work per worker to be chunked."""
        from bench.programs import corpus

        programs = corpus(0, np.random.default_rng(0))
        assert len(programs) == 36
        for program in programs:
            c = compile_sdfg(program.make_sdfg(), backend="python",
                             parallel="auto", cache="off", fallback=False)
            try:
                got = program.fresh()
                c(**got)
                stats = dict(c._pool.stats)
            finally:
                c.close()
            assert program.verify(got), program.name
            assert stats["thread_runs"] == 0, (program.name, stats)

    @pytest.mark.parametrize("side, threaded", [(64, False), (1024, True)])
    def test_histogram_is_chunked_above_the_floor_only(self, side, threaded):
        data = kernels.histogram_data(side, side)
        ref = kernels.histogram_reference(data["img"], 256)
        c = compile_sdfg(kernels.histogram_sdfg(), backend="python",
                         parallel="thread:2", cache="off")
        try:
            c(**data)
            stats = dict(c._pool.stats)
        finally:
            c.close()
        np.testing.assert_array_equal(data["hist"], ref)
        assert (stats["thread_runs"] >= 1) is threaded, stats

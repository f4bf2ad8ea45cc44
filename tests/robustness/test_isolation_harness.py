"""Lifecycle of the crash-isolation harness: isolated cpp calls share one
persistent pool worker per process, a crash respawns exactly one
replacement, a forked child gets its own worker, and no worker outlives
the process that started it."""

import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.codegen import cpp_gen
from repro.codegen.compiler import compile_sdfg
from repro.runtime import isolation
from tests.robustness.test_crash_isolation import SEGFAULT_GLOBAL, scale_sdfg

pytestmark = pytest.mark.skipif(
    cpp_gen.find_host_compiler() is None, reason="no host C++ compiler"
)

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


@pytest.fixture
def fresh_harness(monkeypatch, tmp_path):
    """Each test starts (and ends) without a harness worker, so the pool
    counters it reads are its own."""
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    monkeypatch.setenv("REPRO_RETRIES", "0")
    isolation.close_harness()
    yield
    isolation.close_harness()


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_fifty_calls_over_three_artifacts_share_one_worker(fresh_harness):
    artifacts = [
        compile_sdfg(scale_sdfg(f"// variant {i}\n"), backend="cpp")
        for i in range(3)
    ]
    A = np.ones(8)
    for i in range(50):
        artifacts[i % 3](A=A, N=8)
        if i == 0:
            fds = _fd_count()  # the worker's pipes are open from here on
    np.testing.assert_allclose(A, np.full(8, 2.0 ** 50))
    assert [c.backend for c in artifacts] == ["cpp"] * 3
    stats = isolation.harness().stats()
    assert stats["spawned"] == 1
    assert stats["alive"] == 1
    assert stats["deaths"] == 0
    assert _fd_count() == fds


def test_harness_worker_is_not_recycled_by_call_count(fresh_harness):
    """The serve pool retires a worker after 200 requests; the harness
    keeps its one worker, so call 201 does not pay for a respawn."""
    compiled = compile_sdfg(scale_sdfg(), backend="cpp")
    A = np.ones(8)
    for _ in range(201):
        compiled(A=A, N=8)
    assert compiled.backend == "cpp"
    stats = isolation.harness().stats()
    assert stats["spawned"] == 1
    assert stats["recycled"] == 0


def test_harness_worker_is_recycled_past_its_memory_budget(
        fresh_harness, monkeypatch):
    """The worker keeps every library it loads; its peak RSS, not a call
    count, bounds that growth."""
    monkeypatch.setattr(isolation, "HARNESS_MEMORY_BUDGET_KB", 1)
    compiled = compile_sdfg(scale_sdfg(), backend="cpp")
    A = np.ones(8)
    for _ in range(2):
        compiled(A=A, N=8)
    np.testing.assert_allclose(A, np.full(8, 4.0))
    stats = isolation.harness().stats()
    assert stats["recycled"] == 2
    assert stats["deaths"] == 0


def test_one_crash_respawns_exactly_one_worker(fresh_harness):
    compiled = compile_sdfg(scale_sdfg(SEGFAULT_GLOBAL), backend="cpp")
    compiled(A=np.random.rand(8), N=8)
    assert compiled.backend == "python"
    stats = isolation.harness().stats()
    assert stats["deaths"] == 1
    assert stats["spawned"] == 2, "one replacement, no over-heal"
    assert stats["alive"] == 1


def test_forked_child_uses_its_own_worker(fresh_harness):
    compiled = compile_sdfg(scale_sdfg(), backend="cpp")
    compiled(A=np.ones(8), N=8)
    parent_pool = isolation.harness()
    parent_worker = parent_pool._workers[0].pid

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report over the pipe, never return to pytest
        status = 1
        try:
            os.close(read_fd)
            A = np.ones(8)
            compiled(A=A, N=8)
            pool = isolation.harness()
            report = {
                "correct": bool(np.allclose(A, 2.0)),
                "backend": compiled.backend,
                "own_pool": pool is not parent_pool,
                "worker": pool._workers[0].pid,
                "spawned": pool.stats()["spawned"],
            }
            os.write(write_fd, json.dumps(report).encode())
            isolation.close_harness()
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(read_fd) as f:
        report = json.loads(f.read() or "{}")
    assert status == 0, report
    assert report["correct"] and report["backend"] == "cpp"
    assert report["own_pool"] and report["spawned"] == 1
    assert report["worker"] != parent_worker

    # The parent's worker was neither used nor disturbed.
    assert isolation.harness() is parent_pool
    assert parent_pool._workers[0].pid == parent_worker
    A = np.ones(8)
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, 2.0)
    assert parent_pool.stats()["spawned"] == 1


def test_process_exit_leaves_no_harness_worker(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        import numpy as np
        from repro.codegen.compiler import compile_sdfg
        from repro.runtime import isolation
        from repro.sdfg import SDFG, Memlet, dtypes

        sdfg = SDFG("scale")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_state().add_mapped_tasklet(
            "s", {{"i": "0:N"}}, inputs={{"a": Memlet.simple("A", "i")}},
            code="b = a * 2", outputs={{"b": Memlet.simple("A", "i")}},
        )
        compiled = compile_sdfg(sdfg, backend="cpp")
        A = np.ones(8)
        compiled(A=A, N=8)
        assert compiled.backend == "cpp" and (A == 2).all()
        print(isolation.harness()._workers[0].pid)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    worker = int(proc.stdout.split()[-1])
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(worker, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    pytest.fail(f"harness worker {worker} outlived its process")

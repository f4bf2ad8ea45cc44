"""Crash isolation against a *genuinely* crashing cpp artifact: a
compiled shared object whose static initializer segfaults (or hangs).
The subprocess harness must contain the crash, write a minimized repro
bundle, and the degradation chain must still return correct results
from the python backend — without taking the host process down."""

import json
import os

import numpy as np
import pytest

from repro.codegen import cpp_gen
from repro.codegen.compiler import compile_sdfg
from repro.runtime.isolation import BackendCrashError, run_isolated
from repro.runtime.watchdog import BREAKERS, WatchdogViolation
from repro.sdfg import SDFG, Memlet, dtypes

pytestmark = pytest.mark.skipif(
    cpp_gen.find_host_compiler() is None, reason="no host C++ compiler"
)

#: Static initializer that dies with SIGSEGV the moment the child
#: dlopens the artifact.  ``raise`` rather than a null dereference: the
#: latter is undefined behavior that -O3 is entitled to optimize away.
SEGFAULT_GLOBAL = (
    "#include <csignal>\n"
    "struct __repro_boom { __repro_boom() { ::raise(SIGSEGV); } };\n"
    "static __repro_boom __repro_boom_instance;\n"
)

#: Static initializer that never returns: dlopen hangs forever, so only
#: the watchdog deadline can end the call.
HANG_GLOBAL = (
    "struct __repro_spin { __repro_spin() { for (;;) { } } };\n"
    "static __repro_spin __repro_spin_instance;\n"
)


def scale_sdfg(code_global: str = ""):
    sdfg = SDFG("scale")
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state()
    tasklet, _, _ = st.add_mapped_tasklet(
        "s",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2",
        outputs={"b": Memlet.simple("A", "i")},
    )
    tasklet.code_global = code_global
    return sdfg


@pytest.fixture
def crash_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crashes"))
    monkeypatch.setenv("REPRO_RETRIES", "1")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.001")
    return tmp_path / "crashes"


def test_segfault_contained_bundle_written_results_from_python(crash_env):
    """The satellite acceptance case end to end: genuine SIGSEGV in the
    artifact, harness contains it, bundle lands on disk, and the call
    still returns correct results via the python backend."""
    compiled = compile_sdfg(scale_sdfg(SEGFAULT_GLOBAL), backend="cpp")
    assert compiled.backend == "cpp", "compile itself must not crash"

    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)  # the host process survives this line
    np.testing.assert_allclose(A, ref)
    assert compiled.backend == "python", "served by the degraded backend"

    hop = next(h for h in compiled.degradation if h["from"] == "cpp")
    assert hop["to"] == "python"
    assert hop["error"] == "BackendCrashError"
    assert hop["code"] == "E201"
    assert hop["attempts"] == 2  # first call + one retry
    assert "signal" in hop["message"]

    bundle = hop["bundle"]
    assert bundle and os.path.isdir(bundle)
    assert os.path.realpath(bundle).startswith(os.path.realpath(str(crash_env)))
    with open(os.path.join(bundle, "sdfg.json")) as f:
        sdfg_json = json.load(f)
    assert sdfg_json["name"] == "scale"
    with open(os.path.join(bundle, "manifest.json")) as f:
        manifest = json.load(f)
    assert "lib" not in manifest, "bundle must be machine-independent"
    assert manifest["symbols"] == {"N": 8}
    assert list(manifest["arrays"]) == ["A"]
    assert manifest["arrays"]["A"]["shape"] == [8]


def test_crash_feeds_circuit_breaker(crash_env):
    compiled = compile_sdfg(scale_sdfg(SEGFAULT_GLOBAL), backend="cpp")
    compiled(A=np.random.rand(8), N=8)
    assert BREAKERS.failures("cpp") >= 1
    assert BREAKERS.last_code("cpp") == "E201"


def test_repeated_crashes_open_breaker_and_skip_cpp(crash_env):
    """After `threshold` contained crashes the cpp breaker opens: the
    next compile_sdfg skips cpp entirely with a recorded hop."""
    for _ in range(BREAKERS.threshold):
        crashy = compile_sdfg(scale_sdfg(SEGFAULT_GLOBAL), backend="cpp")
        crashy(A=np.random.rand(8), N=8)
    assert BREAKERS.is_open("cpp")

    compiled = compile_sdfg(scale_sdfg(), backend="cpp")
    assert compiled.backend == "python"
    assert compiled.degradation[0]["error"] == "CircuitBreakerOpen"
    assert compiled.degradation[0]["code"] == "E201"


def test_hang_killed_by_watchdog_deadline(crash_env):
    compiled = compile_sdfg(
        scale_sdfg(HANG_GLOBAL), backend="cpp", deadline=1.0
    )
    with pytest.raises(WatchdogViolation) as exc:
        compiled(A=np.random.rand(8), N=8)
    assert exc.value.code == "R805"
    rec = compiled.degradation[-1]
    assert rec["code"] == "R805" and rec["to"] is None


def test_clean_cpp_run_through_harness(crash_env):
    """Isolation must be transparent for healthy artifacts: same
    results, backend stays cpp, breaker records the success."""
    BREAKERS.record_failure("cpp", code="E201")  # pre-existing strike
    compiled = compile_sdfg(scale_sdfg(), backend="cpp")
    assert compiled.backend == "cpp"
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)
    assert compiled.degradation == []
    assert BREAKERS.failures("cpp") == 0, "success closes the strike count"


def test_isolation_off_runs_in_process():
    compiled = compile_sdfg(scale_sdfg(), backend="cpp", isolate=False)
    assert compiled.backend == "cpp"
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)


def test_crash_error_reports_signal_and_is_retryable(crash_env):
    """The surfaced error names the killing signal, is marked retryable,
    and the caller's arrays stay pristine (the child worked on copies)."""
    compiled = compile_sdfg(scale_sdfg(SEGFAULT_GLOBAL), backend="cpp")
    A = np.arange(8, dtype=np.float64)
    before = A.copy()

    def no_degrade(err, attempts):
        raise err

    compiled._degrade_at_call = no_degrade
    with pytest.raises(BackendCrashError) as exc:
        compiled(A=A, N=8)
    err = exc.value
    assert err.retryable
    assert err.returncode is not None and err.returncode < 0
    assert err.bundle and os.path.isdir(err.bundle)
    np.testing.assert_array_equal(A, before), "caller arrays untouched"


# ------------------------------------------------------------ fault points
def test_spawn_fault_is_a_contained_crash(crash_env):
    """`isolation.spawn:raise-io`: the call never reaches the harness
    worker; it is a contained E201 that degrades to a correct python
    result."""
    from repro.chaos import FaultPlan, install_plan

    compiled = compile_sdfg(scale_sdfg(), backend="cpp")
    install_plan(FaultPlan.parse("isolation.spawn:raise-io@p=1"))
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)
    assert compiled.backend == "python"
    hop = compiled.degradation[-1]
    assert hop["from"] == "cpp" and hop["to"] == "python"
    assert hop["code"] == "E201" and hop["error"] == "BackendCrashError"
    assert hop["attempts"] == 2


def test_lost_crash_bundle_still_surfaces_the_crash(crash_env):
    """`pool.crash_bundle:enospc` during a genuine SIGSEGV: the bundle is
    lost, but the death still surfaces as E201 (no bundle on the hop)
    and the call degrades."""
    from repro.chaos import FaultPlan, install_plan

    compiled = compile_sdfg(scale_sdfg(SEGFAULT_GLOBAL), backend="cpp")
    install_plan(FaultPlan.parse("pool.crash_bundle:enospc@p=1"))
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)
    assert compiled.backend == "python"
    hop = compiled.degradation[-1]
    assert hop["code"] == "E201" and "signal" in hop["message"]
    assert "bundle" not in hop
    assert not os.path.exists(crash_env) or not os.listdir(crash_env)

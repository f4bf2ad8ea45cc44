"""Dynamic memlet sanitizer: each R-code must fire on its seeded fault
with the exact element index and SDFG location, on both the generated
Python backend and the reference interpreter; clean kernels must run
finding-free and agree with unsanitized runs to 1e-8."""

import copy

import numpy as np
import pytest

from repro.codegen.compiler import compile_sdfg
from repro.runtime.sanitizer import (
    SEEDED_FAULTS,
    GuardedView,
    Sanitizer,
    SanitizerError,
    fundamental_kernel_cases,
)
from repro.runtime.watchdog import WatchdogViolation

BACKENDS = ("python", "interpreter")


# ------------------------------------------------------------ seeded faults
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("code", ["R801", "R802", "R803", "R804"])
def test_seeded_fault_fires_with_exact_location(code, backend):
    sdfg, kwargs, expect = SEEDED_FAULTS[code]()
    compiled = compile_sdfg(sdfg, backend=backend, sanitize=True)
    with pytest.raises(SanitizerError) as exc:
        compiled(**kwargs)
    err = exc.value
    assert err.code == expect["code"]
    assert err.index == expect["index"], "finding must carry the exact element"
    assert err.diagnostic.data == expect["data"]
    assert err.diagnostic.sdfg == sdfg.name


@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_faults_collect_mode_does_not_abort(backend):
    sdfg, kwargs, expect = SEEDED_FAULTS["R801"]()
    compiled = compile_sdfg(sdfg, backend=backend, sanitize="collect")
    compiled(**kwargs)  # must complete
    findings = compiled.last_findings
    assert findings, "collect mode must still record the finding"
    assert any(f.code == "R801" and f.data == "X" for f in findings)


def test_r805_unbounded_loop_killed_by_deadline():
    sdfg, kwargs, expect = SEEDED_FAULTS["R805"]()
    compiled = compile_sdfg(sdfg, backend="python", deadline=0.5)
    with pytest.raises(WatchdogViolation) as exc:
        compiled(**kwargs)
    assert exc.value.code == "R805"


# --------------------------------------------------------- kernel fidelity
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(fundamental_kernel_cases()))
def test_kernels_clean_and_bitwise_close_under_sanitizer(name, backend):
    factory, data, extra, outputs = fundamental_kernel_cases()[name]
    ref_args = {**copy.deepcopy(data), **extra}
    san_args = {**copy.deepcopy(data), **extra}
    compile_sdfg(factory(), backend=backend)(**ref_args)
    guarded = compile_sdfg(factory(), backend=backend, sanitize="collect")
    guarded(**san_args)
    assert guarded.last_findings == [], f"{name} must run finding-free"
    if backend == "python":  # the vectorized tiers are off, and it says so
        assert "W702" in [w.code for w in guarded.codegen_warnings]
    for out in outputs:
        np.testing.assert_allclose(
            san_args[out], ref_args[out], rtol=1e-8, atol=1e-8
        )


def test_sanitizer_overhead_reported_via_instrumentation():
    factory, data, extra, outputs = fundamental_kernel_cases()["matmul"]
    guarded = compile_sdfg(factory(), backend="python", sanitize="collect")
    guarded(**{**copy.deepcopy(data), **extra})

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node.children.values())

    events = [n for n in walk(guarded.last_report.events)
              if n.kind == "sanitizer"]
    labels = {n.label for n in events}
    assert "checks" in labels and "overhead" in labels
    checks = next(n for n in events if n.label == "checks")
    assert checks.iterations > 0, "guards must actually have run"
    overhead = next(n for n in events if n.label == "overhead")
    assert overhead.duration is not None and overhead.duration >= 0.0


# ----------------------------------------------------------- env plumbing
def test_env_knob_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sdfg, kwargs, _ = SEEDED_FAULTS["R801"]()
    compiled = compile_sdfg(sdfg, backend="python")
    with pytest.raises(SanitizerError):
        compiled(**kwargs)


def test_sanitize_false_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sdfg, kwargs, _ = SEEDED_FAULTS["R801"]()
    kwargs["I"][3] = -2  # silent numpy wraparound instead of a hard raise
    compiled = compile_sdfg(sdfg, backend="python", sanitize=False)
    compiled(**kwargs)  # no guard: completes (reading X[-2] silently)


def test_sanitized_program_cached_separately():
    """A sanitized build must never be served from the plain program's
    cache slot (and vice versa)."""
    from repro.codegen.progcache import ProgramCache

    cache = ProgramCache()
    sdfg, kwargs, _ = SEEDED_FAULTS["R801"]()
    plain = compile_sdfg(sdfg, backend="python", cache=cache)
    guarded = compile_sdfg(sdfg, backend="python", cache=cache, sanitize=True)
    assert "__guard.load" in guarded.source
    assert "__guard.load" not in plain.source
    with pytest.raises(SanitizerError):
        guarded(**copy.deepcopy(kwargs))
    soft = copy.deepcopy(kwargs)
    soft["I"][3] = -2  # wraparound variant: plain build must run unchecked
    plain(**soft)


# --------------------------------------------------------- GuardedView unit
def test_guarded_view_checks_indirect_subscripts():
    san = Sanitizer(mode="raise")
    arr = np.arange(6, dtype=np.float64)
    view = GuardedView.wrap(arr, san, "X", None, "X[0:N]", ("s", "st", "n"))
    assert view[2] == 2.0
    with pytest.raises(SanitizerError) as exc:
        view[np.int64(6)]
    assert exc.value.code == "R801"
    with pytest.raises(SanitizerError):
        view[-1]  # negative = wraparound bug class, not Python sugar


def test_guarded_view_derived_arrays_lose_guard():
    san = Sanitizer(mode="raise")
    arr = np.arange(6, dtype=np.float64)
    view = GuardedView.wrap(arr, san, "X", None, "", None)
    derived = view + 1.0
    assert derived._san is None  # ufunc results are plain again
    sliced = view[1:3]
    assert sliced._san is None


def test_finding_dedupe_and_cap():
    san = Sanitizer(mode="collect")
    for _ in range(5):
        san.check_bounds("X", (4,), (9,), "X[9]", ("s", "st", "n"))
    assert san.counters["R801"] == 5
    assert len(san.findings) == 1, "identical findings must dedupe"

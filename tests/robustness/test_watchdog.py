"""Execution watchdog: deadlines kill unbounded loops within budget,
memory budgets stop runaway transients, retries back off exponentially,
and a kill stays on the artifact it killed.  Also the circuit breaker
that serve admission keeps per tenant."""

import time
import unittest.mock

import numpy as np
import pytest

import repro as rp
from repro.codegen.compiler import compile_sdfg
from repro.runtime import watchdog
from repro.runtime.isolation import BackendCrashError
from repro.runtime.sanitizer import SEEDED_FAULTS
from repro.runtime.watchdog import RetryPolicy, Watchdog, WatchdogViolation
from repro.sdfg import SDFG, Memlet, dtypes
from repro.serve.admission import CircuitBreakerRegistry


def breakers(threshold, cooldown):
    return CircuitBreakerRegistry(lambda key: (threshold, cooldown))


def scale_sdfg():
    sdfg = SDFG("scale")
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "s",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2",
        outputs={"b": Memlet.simple("A", "i")},
    )
    return sdfg


# ------------------------------------------------------------- deadlines
@pytest.mark.parametrize("backend", ("python", "interpreter"))
def test_unbounded_interstate_loop_killed_within_deadline(backend):
    """The acceptance case: an SDFG whose interstate loop makes no
    progress must be killed within its deadline, and the degradation
    record must show the violation."""
    sdfg, kwargs, expect = SEEDED_FAULTS["R805"]()
    deadline = 0.5
    compiled = compile_sdfg(sdfg, backend=backend, deadline=deadline)
    start = time.monotonic()
    with pytest.raises(WatchdogViolation) as exc:
        compiled(**kwargs)
    elapsed = time.monotonic() - start
    assert elapsed < deadline + 2.0, "cooperative kill must be prompt"
    assert exc.value.code == "R805"
    assert exc.value.kind == "deadline"
    assert compiled.degradation, "the violation must be recorded"
    rec = compiled.degradation[-1]
    assert rec["code"] == "R805"
    assert rec["from"] == backend
    assert rec["to"] is None, "watchdog violations do not degrade"


def test_deadline_not_tripped_by_healthy_run():
    compiled = compile_sdfg(scale_sdfg(), backend="python", deadline=30.0)
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)
    assert compiled.degradation == []


def test_watchdog_checkpoints_reported():
    compiled = compile_sdfg(scale_sdfg(), backend="python", deadline=30.0)
    compiled(A=np.random.rand(8), N=8)

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node.children.values())

    events = [n for n in walk(compiled.last_report.events)
              if n.kind == "watchdog"]
    assert events and events[0].label == "checkpoints"
    assert events[0].iterations > 0


# --------------------------------------------------------- memory budget
@pytest.mark.parametrize("backend", ("python", "interpreter"))
def test_memory_budget_stops_transient_allocation(backend):
    sdfg, kwargs, _ = SEEDED_FAULTS["R803"]()  # has an N-element transient
    compiled = compile_sdfg(sdfg, backend=backend, memory_budget=8)
    with pytest.raises(WatchdogViolation) as exc:
        compiled(**kwargs)
    assert exc.value.code == "R805"
    assert exc.value.kind == "memory"
    assert "T" in str(exc.value), "violation must name the allocation"


def test_generous_budget_allows_run():
    sdfg, kwargs, _ = SEEDED_FAULTS["R803"]()
    compiled = compile_sdfg(sdfg, backend="python", memory_budget=1 << 20)
    compiled(**kwargs)  # transient fits; reads of zeros are fine unsanitized


# ---------------------------------------------------------- watchdog unit
def test_watchdog_remaining_and_arm():
    dog = Watchdog(deadline=100.0)
    assert 99.0 < dog.remaining() <= 100.0
    dog.start -= 50.0
    assert 49.0 < dog.remaining() <= 50.0
    dog.arm()
    assert 99.0 < dog.remaining() <= 100.0
    assert Watchdog().remaining() is None


def test_watchdog_checkpoint_counts_and_stores_violation():
    dog = Watchdog(deadline=0.0, sdfg_name="x")
    dog.start -= 1.0
    with pytest.raises(WatchdogViolation):
        dog.checkpoint()
    assert dog.checkpoints == 1
    assert dog.violation is not None
    assert dog.violation.diagnostic.sdfg == "x"


# ------------------------------------------------------------ retry policy
def test_retry_policy_exponential_backoff():
    policy = RetryPolicy(retries=3, backoff=0.1)
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(2) == pytest.approx(0.4)


def test_call_retries_then_succeeds(monkeypatch):
    """A contained crash is retried with backoff; a success on retry
    leaves no degradation record."""
    monkeypatch.setattr(watchdog, "CALL_RETRY", RetryPolicy(retries=2, backoff=0.001))
    compiled = compile_sdfg(scale_sdfg(), backend="python")
    real_entry = compiled._entry
    calls = {"n": 0}

    def flaky(arrays, symbols, instr=None, guard=None):
        calls["n"] += 1
        if calls["n"] < 3:
            raise BackendCrashError("transient crash", sdfg="scale")
        return real_entry(arrays, symbols, instr, guard)

    compiled._entry = flaky
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)
    assert calls["n"] == 3
    assert compiled.degradation == []


def test_call_crash_degrades_after_retries(monkeypatch):
    """Retries exhausted: the call degrades to the next backend in the
    chain and the hop records the attempt count."""
    monkeypatch.setattr(watchdog, "CALL_RETRY", RetryPolicy(retries=1, backoff=0.001))
    compiled = compile_sdfg(scale_sdfg(), backend="python")

    def always_crash(arrays, symbols, instr=None, guard=None):
        raise BackendCrashError("hard crash", sdfg="scale")

    compiled._entry = always_crash
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)  # served by the interpreter fallback
    np.testing.assert_allclose(A, ref)
    assert compiled.backend == "interpreter"
    hop = compiled.degradation[-1]
    assert hop["from"] == "python" and hop["to"] == "interpreter"
    assert hop["attempts"] == 2  # first try + one retry


# --------------------------------------------------------- circuit breaker
def test_breaker_opens_after_threshold():
    reg = breakers(3, 300.0)
    for _ in range(2):
        reg.record_failure("cpp", code="E201")
    assert not reg.is_open("cpp")
    reg.record_failure("cpp", code="E201")
    assert reg.is_open("cpp")
    assert reg.failures("cpp") == 3
    assert reg.last_code("cpp") == "E201"


def test_breaker_success_closes():
    reg = breakers(2, 300.0)
    reg.record_failure("cpp")
    reg.record_failure("cpp")
    assert reg.is_open("cpp")
    reg.record_success("cpp")
    assert not reg.is_open("cpp")
    assert reg.failures("cpp") == 0


def test_breaker_half_open_probe_after_cooldown():
    reg = breakers(2, 0.05)
    reg.record_failure("cpp")
    reg.record_failure("cpp")
    assert reg.is_open("cpp")
    time.sleep(0.06)
    assert not reg.is_open("cpp"), "cooldown elapsed: one probe allowed"
    reg.record_failure("cpp")  # probe fails
    assert reg.is_open("cpp"), "failed probe re-opens immediately"


def test_deadline_kills_leave_other_programs_on_their_backend():
    """Kills belong to the killed artifact: three R805 kills of one
    program leave an unrelated program's compile on python, with no
    hop."""
    for _ in range(3):
        sdfg, kwargs, _ = SEEDED_FAULTS["R805"]()
        killed = compile_sdfg(sdfg, backend="python", deadline=1e-6)
        with pytest.raises(WatchdogViolation):
            killed(**kwargs)
        assert killed.degradation[-1]["code"] == "R805"
    compiled = compile_sdfg(scale_sdfg(), backend="python")
    assert compiled.backend == "python"
    assert compiled.degradation == []


# ----------------------------------------------------------- retry jitter
def test_retry_jitter_spreads_delays_within_bounds():
    """With jitter=j, the delay for attempt n is uniform over
    [b*2^n*(1-j), b*2^n*(1+j)] — never negative, mean preserved."""
    import random

    policy = RetryPolicy(retries=3, backoff=0.1, jitter=0.5,
                         rng=random.Random(42))
    for attempt in range(4):
        base = 0.1 * (2 ** attempt)
        delays = [policy.delay(attempt) for _ in range(200)]
        assert all(base * 0.5 <= d <= base * 1.5 for d in delays)
        spread = max(delays) - min(delays)
        assert spread > base * 0.5, "jitter must actually spread the delays"


def test_retry_jitter_deterministic_with_injected_rng():
    import random

    a = RetryPolicy(backoff=0.05, jitter=0.3, rng=random.Random(7))
    b = RetryPolicy(backoff=0.05, jitter=0.3, rng=random.Random(7))
    assert [a.delay(n) for n in (0, 1, 2)] == [b.delay(n) for n in (0, 1, 2)]


def test_retry_no_jitter_is_pure_exponential():
    policy = RetryPolicy(backoff=0.05, jitter=0.0)
    assert [policy.delay(n) for n in (0, 1, 2)] == [0.05, 0.1, 0.2]


def test_retry_jitter_clamped():
    assert RetryPolicy(jitter=2.5).jitter == 1.0
    assert RetryPolicy(jitter=-1.0).jitter == 0.0
    policy = RetryPolicy(backoff=0.1, jitter=1.0)
    for attempt in range(3):
        assert policy.delay(attempt) >= 0.0, "full jitter never goes negative"


# ------------------------------------------- half-open probe concurrency
def test_half_open_admits_exactly_one_probe_across_threads():
    """N threads race is_open() after the cooldown: exactly one caller
    is admitted as the probe, every loser keeps being short-circuited."""
    import threading

    reg = breakers(2, 0.05)
    reg.record_failure("cpp", code="E201")
    reg.record_failure("cpp", code="E201")
    assert reg.is_open("cpp")
    time.sleep(0.06)

    results = []
    barrier = threading.Barrier(8)

    def racer():
        barrier.wait()
        results.append(reg.is_open("cpp"))

    threads = [threading.Thread(target=racer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert results.count(False) == 1, "exactly one half-open probe"
    assert results.count(True) == 7, "losers stay short-circuited"
    assert reg.state("cpp") == "half_open"

    # While the probe is in flight, later callers are still rejected.
    assert reg.is_open("cpp")

    reg.record_success("cpp")
    assert reg.state("cpp") == "closed"
    assert not reg.is_open("cpp")


def test_half_open_transitions_are_logged_and_broadcast():
    seen = []
    reg = breakers(1, 0.05)
    reg.on_transition(lambda key, old, new: seen.append((key, old, new)))

    reg.record_failure("tenant_x", code="E201")
    time.sleep(0.06)
    assert not reg.is_open("tenant_x")  # admitted as the probe
    reg.record_failure("tenant_x", code="E201")  # probe fails: re-open
    time.sleep(0.06)
    assert not reg.is_open("tenant_x")  # second probe
    reg.record_success("tenant_x")  # probe succeeds: closed

    expected = [
        ("tenant_x", "closed", "open"),
        ("tenant_x", "open", "half_open"),
        ("tenant_x", "half_open", "open"),
        ("tenant_x", "open", "half_open"),
        ("tenant_x", "half_open", "closed"),
    ]
    assert seen == expected
    assert reg.transitions == expected, "bounded log mirrors the listeners"


def test_failed_probe_restarts_full_cooldown():
    reg = breakers(1, 0.2)
    reg.record_failure("cpp", code="E201")
    time.sleep(0.21)
    assert not reg.is_open("cpp")  # the probe
    reg.record_failure("cpp", code="E201")  # probe fails
    assert reg.is_open("cpp")
    assert reg.cooldown_remaining("cpp") > 0.1, "cooldown restarted in full"

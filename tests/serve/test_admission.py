"""Admission-control gates (R806/R807/R808)."""

import time

import pytest

from repro.instrumentation import InstrumentationRecorder
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    TenantPolicy,
)


def controller(**policy_kw):
    policy_kw.setdefault("breaker_cooldown", 0.2)
    return AdmissionController(default_policy=TenantPolicy(**policy_kw))


# --------------------------------------------------------- in-flight cap
def test_inflight_cap_rejects_r806_and_recovers():
    ctrl = controller(max_inflight=2)
    t1 = ctrl.admit("alice")
    t2 = ctrl.admit("alice")
    with pytest.raises(AdmissionError) as exc:
        ctrl.admit("alice")
    assert exc.value.code == "R806"
    assert exc.value.retry_after is not None

    # Other tenants have their own cap.
    ctrl.admit("bob").complete()

    t1.complete()
    t2.complete()
    ctrl.admit("alice").complete()  # slot freed


def test_ticket_complete_is_idempotent():
    ctrl = controller(max_inflight=1)
    ticket = ctrl.admit("alice")
    ticket.complete()
    ticket.complete()
    ticket.complete()
    stats = ctrl.stats()["tenants"]["alice"]
    assert stats["inflight"] == 0
    assert stats["ok"] == 1, "double settle must not double count"


# ------------------------------------------------------- circuit breaker
def test_breaker_opens_on_contained_failures_and_rejects_r807():
    ctrl = controller(breaker_threshold=3)
    for _ in range(3):
        ctrl.admit("mallory").complete(failure_code="E201")
    with pytest.raises(AdmissionError) as exc:
        ctrl.admit("mallory")
    assert exc.value.code == "R807"
    assert exc.value.retry_after is not None and exc.value.retry_after > 0
    # A different tenant is untouched by mallory's breaker.
    ctrl.admit("alice").complete()


def test_breaker_half_open_probe_closes_on_success():
    ctrl = controller(breaker_threshold=2, breaker_cooldown=0.1)
    for _ in range(2):
        ctrl.admit("mallory").complete(failure_code="E201")
    with pytest.raises(AdmissionError):
        ctrl.admit("mallory")
    time.sleep(0.15)
    probe = ctrl.admit("mallory")  # the single half-open probe
    assert ctrl.breakers.state("mallory") == "half_open"
    probe.complete(cost_seconds=0.01)  # success
    assert ctrl.breakers.state("mallory") == "closed"
    ctrl.admit("mallory").complete()


def test_breaker_half_open_probe_failure_reopens():
    ctrl = controller(breaker_threshold=2, breaker_cooldown=0.1)
    for _ in range(2):
        ctrl.admit("mallory").complete(failure_code="E201")
    time.sleep(0.15)
    probe = ctrl.admit("mallory")
    probe.complete(failure_code="R805")
    assert ctrl.breakers.state("mallory") == "open"
    with pytest.raises(AdmissionError) as exc:
        ctrl.admit("mallory")
    assert exc.value.code == "R807"


def test_half_open_probe_rolled_back_when_inflight_cap_rejects():
    """A probe rejected by a later gate must not strand the breaker.

    Regression: the breaker gate admitted one caller as the half-open
    probe, but when gate 2 (in-flight cap) then rejected that same
    request no Ticket existed to settle it — the breaker stayed
    HALF_OPEN with a phantom probe forever and the tenant was rejected
    with R807 (retry_after=0) even after becoming healthy.
    """
    ctrl = controller(max_inflight=1, breaker_threshold=1,
                      breaker_cooldown=0.05)
    held = ctrl.admit("m")  # occupies the tenant's only in-flight slot
    # A concurrent request's failure opens the breaker underneath it.
    ctrl.breakers.record_failure("m", code="E201")
    assert ctrl.breakers.state("m") == "open"

    time.sleep(0.08)  # cooldown elapses while `held` is still in flight
    with pytest.raises(AdmissionError) as exc:
        ctrl.admit("m")  # admitted by gate 1 as probe, bounced by gate 2
    assert exc.value.code == "R806"
    assert ctrl.breakers.state("m") == "open", \
        "the rejected probe must be rolled back, not stranded half-open"

    # The rollback leaves the cooldown already elapsed: as soon as the
    # slot frees, the tenant is immediately probed again.
    held.complete(failure_code="E201")
    probe = ctrl.admit("m")
    assert ctrl.breakers.state("m") == "half_open"
    probe.complete(cost_seconds=0.01)
    assert ctrl.breakers.state("m") == "closed"


def test_half_open_probe_rolled_back_when_budget_gate_rejects():
    """Same leak through gate 3: breaker-opening failures also charge
    the budget, so the probe can plausibly be rejected with R808."""
    ctrl = controller(breaker_threshold=1, breaker_cooldown=0.05,
                      budget_seconds=0.1, budget_window=10.0)
    ctrl.admit("m").complete(cost_seconds=5.0, failure_code="E201")
    assert ctrl.breakers.state("m") == "open"
    time.sleep(0.08)
    # Cooldown elapsed: this request passes gate 1 as the probe but is
    # rejected by gate 3 (the 5s spend blew the 0.1s budget).
    with pytest.raises(AdmissionError) as exc:
        ctrl.admit("m")
    assert exc.value.code == "R808"
    assert ctrl.breakers.state("m") == "open", \
        "the rejected probe must be rolled back, not stranded half-open"
    # Once the budget clears, the tenant is re-probed — not R807-locked.
    ctrl._tenants["m"].spend.clear()
    probe = ctrl.admit("m")
    assert ctrl.breakers.state("m") == "half_open"
    probe.complete(cost_seconds=0.01)
    assert ctrl.breakers.state("m") == "closed"


def test_per_tenant_breaker_policy_is_honored():
    """Regression: TenantPolicy.breaker_threshold/cooldown in `policies`
    were silently ignored (the registry only saw the default policy)."""
    ctrl = AdmissionController(
        default_policy=TenantPolicy(breaker_threshold=5,
                                    breaker_cooldown=60.0),
        policies={"fragile": TenantPolicy(breaker_threshold=1,
                                          breaker_cooldown=0.05)},
    )
    # The fragile tenant opens after a single failure...
    ctrl.admit("fragile").complete(failure_code="E201")
    assert ctrl.breakers.state("fragile") == "open"
    # ... and its short per-tenant cooldown (not the 60s default)
    # governs when the probe is re-admitted.
    assert ctrl.breakers.cooldown_remaining("fragile") <= 0.05
    time.sleep(0.08)
    probe = ctrl.admit("fragile")
    assert ctrl.breakers.state("fragile") == "half_open"
    probe.complete()
    # A default-policy tenant still needs 5 strikes.
    for _ in range(4):
        ctrl.admit("normal").complete(failure_code="E201")
    assert ctrl.breakers.state("normal") == "closed"
    ctrl.admit("normal").complete(failure_code="E201")
    assert ctrl.breakers.state("normal") == "open"


def test_validation_failures_do_not_charge_the_breaker():
    ctrl = controller(breaker_threshold=2)
    for _ in range(5):
        ctrl.admit("clumsy").complete(failure_code="V202")
    ctrl.admit("clumsy").complete()  # still admitted
    assert ctrl.breakers.state("clumsy") == "closed"


# ------------------------------------------------------- deadline budget
def test_rolling_budget_rejects_r808_until_window_expires():
    ctrl = controller(budget_seconds=0.1, budget_window=0.4)
    ctrl.admit("hog").complete(cost_seconds=0.15)  # blows the budget
    with pytest.raises(AdmissionError) as exc:
        ctrl.admit("hog")
    assert exc.value.code == "R808"
    assert 0.0 <= exc.value.retry_after <= 0.4
    # Light tenants are unaffected.
    ctrl.admit("alice").complete(cost_seconds=0.01)
    # The window rolls over and the hog is welcome again.
    time.sleep(0.45)
    ctrl.admit("hog").complete(cost_seconds=0.01)


def test_budget_unlimited_by_default():
    ctrl = controller()
    for _ in range(10):
        ctrl.admit("heavy").complete(cost_seconds=100.0)
    ctrl.admit("heavy").complete()


# ------------------------------------------------------- deadline clamp
def test_clamp_deadline():
    ctrl = AdmissionController(default_policy=TenantPolicy(deadline_cap=5.0))
    assert ctrl.clamp_deadline("t", None) == 5.0, "cap is the default"
    assert ctrl.clamp_deadline("t", 2.0) == 2.0
    assert ctrl.clamp_deadline("t", 50.0) == 5.0, "requests cannot exceed the cap"
    uncapped = AdmissionController(default_policy=TenantPolicy(deadline_cap=None))
    assert uncapped.clamp_deadline("t", None) is None
    assert uncapped.clamp_deadline("t", 50.0) == 50.0


def test_per_tenant_policy_overrides_default():
    ctrl = AdmissionController(
        default_policy=TenantPolicy(max_inflight=8),
        policies={"cheap": TenantPolicy(max_inflight=1)},
    )
    ctrl.admit("cheap")
    with pytest.raises(AdmissionError):
        ctrl.admit("cheap")
    for _ in range(8):
        ctrl.admit("normal")


# ------------------------------------------------------ instrumentation
def test_admission_emits_serve_and_breaker_events():
    recorder = InstrumentationRecorder()
    ctrl = AdmissionController(
        default_policy=TenantPolicy(breaker_threshold=1, breaker_cooldown=60.0),
        recorder=recorder,
    )
    ctrl.admit("mallory").complete(failure_code="E201")
    with pytest.raises(AdmissionError):
        ctrl.admit("mallory")
    labels = set(recorder.root.children.keys())
    assert ("serve", "admit[mallory]") in labels
    assert ("serve", "failure[mallory]:E201") in labels
    assert ("breaker", "mallory:closed->open") in labels
    assert ("serve", "reject[mallory]:R807") in labels

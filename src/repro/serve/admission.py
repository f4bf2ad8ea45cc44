"""Per-tenant admission control.

A multi-tenant service needs a failure reflex per **tenant**: the
caller whose kernels keep segfaulting or blowing deadlines must be
rejected fast — before consuming a worker — while every other tenant
stays unaffected.  Three gates run, cheapest first, on every
compile/execute request:

1. **circuit breaker** (``R807``) — consecutive contained failures
   (worker death ``E201``, watchdog ``R805``) open the tenant's breaker;
   open → fast rejection with ``retry_after``; after the cooldown
   exactly one request is admitted as the half-open probe (losers keep
   getting ``R807``), and its outcome closes or re-opens the breaker.
2. **in-flight cap** (``R806``) — at most ``max_inflight`` concurrent
   requests per tenant; the cap bounds how much of the pool one tenant
   can hold.
3. **deadline budget** (``R808``) — each tenant gets
   ``budget_seconds`` of worker wall-clock per rolling
   ``budget_window``; heavy users are throttled once the window fills,
   with ``retry_after`` pointing at the oldest spend's expiry.

Rejections are *cheap* by construction: a few dict lookups under one
lock, no sockets, no workers, no compilation — the 429 path.  An
admitted request is served as asked, never with rewritten options: it
waits for a free worker, and the pool refuses it with ``R806`` when
none frees up within its acquire timeout.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.chaos import faultpoint
from repro.diagnostics import DiagnosticError, Severity, make_diagnostic
from repro.telemetry.sink import TelemetrySink

#: Failure codes that charge a tenant's circuit breaker.  Validation
#: errors and admission rejections do NOT: a tenant sending an invalid
#: SDFG gets a precise error, not an open breaker.
BREAKER_CODES = ("E201", "R805")


#: Breaker states.  ``HALF_OPEN`` means the cooldown elapsed and exactly
#: one probe request has been admitted; until that probe resolves every
#: other caller is short-circuited as if the breaker were still open.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreakerRegistry:
    """Per-tenant failure counter with closed → open → half-open
    semantics.

    ``record_failure`` counts contained failures; once a key accumulates
    its threshold of consecutive failures the breaker *opens* and
    ``is_open`` returns True until its cooldown passes.  The first
    ``is_open`` call after the cooldown moves the breaker to *half-open*
    and admits that caller as the single probe (returns False);
    concurrent callers keep getting True until the probe resolves —
    ``record_success`` closes the breaker, ``record_failure`` re-opens
    it immediately.  ``limits(key)`` returns the key's ``(threshold,
    cooldown)``.  All transitions are thread-safe and observable via
    :meth:`on_transition` listeners and the bounded :attr:`transitions`
    log.
    """

    def __init__(self, limits: Callable[[str], Tuple[int, float]]):
        self._lock = threading.RLock()
        self._failures: Dict[str, int] = {}
        self._last_code: Dict[str, str] = {}
        self._opened_at: Dict[str, float] = {}
        self._state: Dict[str, str] = {}
        self._probe_inflight: Dict[str, bool] = {}
        self._limits = limits
        self._listeners: List[Callable[[str, str, str], None]] = []
        #: Bounded log of ``(key, old_state, new_state)`` transitions.
        self.transitions: List[Tuple[str, str, str]] = []

    # -------------------------------------------------------- observation
    def on_transition(self, listener: Callable[[str, str, str], None]) -> None:
        """Register a ``listener(key, old_state, new_state)`` callback
        (admission publishes transitions to its telemetry sink)."""
        with self._lock:
            self._listeners.append(listener)

    def _transition(self, key: str, new_state: str) -> None:
        old = self._state.get(key, CLOSED)
        if old == new_state:
            return
        self._state[key] = new_state
        if len(self.transitions) < 10000:
            self.transitions.append((key, old, new_state))
        for listener in list(self._listeners):
            try:
                listener(key, old, new_state)
            except Exception:
                continue

    def state(self, key: str) -> str:
        """Current breaker state (without side effects on it)."""
        with self._lock:
            return self._state.get(key, CLOSED)

    # ----------------------------------------------------------- recording
    def record_failure(self, key: str, code: Optional[str] = None) -> None:
        with self._lock:
            if code:
                self._last_code[key] = code
            if self._state.get(key) == HALF_OPEN:
                # The probe failed: re-open immediately, full cooldown.
                self._probe_inflight.pop(key, None)
                self._failures[key] = self._failures.get(key, 0) + 1
                self._opened_at[key] = time.monotonic()
                self._transition(key, OPEN)
                return
            n = self._failures.get(key, 0) + 1
            self._failures[key] = n
            if n >= self._limits(key)[0] and key not in self._opened_at:
                self._opened_at[key] = time.monotonic()
                self._transition(key, OPEN)

    def record_success(self, key: str) -> None:
        with self._lock:
            self._failures.pop(key, None)
            self._opened_at.pop(key, None)
            self._probe_inflight.pop(key, None)
            self._transition(key, CLOSED)

    # ------------------------------------------------------------- queries
    def failures(self, key: str) -> int:
        with self._lock:
            return self._failures.get(key, 0)

    def last_code(self, key: str) -> Optional[str]:
        with self._lock:
            return self._last_code.get(key)

    def cooldown_remaining(self, key: str) -> float:
        """Seconds until an open breaker will admit a probe (0 if it
        already would, or is not open)."""
        with self._lock:
            opened = self._opened_at.get(key)
            if opened is None or self._state.get(key) != OPEN:
                return 0.0
            return max(0.0, self._limits(key)[1] - (time.monotonic() - opened))

    def is_open(self, key: str) -> bool:
        """True when calls to ``key`` must be short-circuited.

        An elapsed cooldown admits exactly one caller as the half-open
        probe: that caller sees False, everyone else True until the
        probe resolves through ``record_success``/``record_failure``.
        """
        with self._lock:
            state = self._state.get(key, CLOSED)
            if state == CLOSED:
                return False
            if state == HALF_OPEN:
                # A probe is already in flight: short-circuit the losers.
                return bool(self._probe_inflight.get(key, False))
            opened = self._opened_at.get(key)
            if opened is None:  # defensive: open without a timestamp
                self._transition(key, CLOSED)
                return False
            threshold, cooldown = self._limits(key)
            if time.monotonic() - opened > cooldown:
                # This caller becomes the single half-open probe.
                self._opened_at.pop(key, None)
                self._failures[key] = threshold - 1
                self._probe_inflight[key] = True
                self._transition(key, HALF_OPEN)
                return False
            return True

    def abort_probe(self, key: str) -> None:
        """Roll back a half-open probe that never ran.

        The admitted probe caller can still be rejected by a later gate
        (the in-flight cap or the budget) before any work is attempted;
        without a rollback the breaker would be stuck in ``HALF_OPEN``
        with a phantom probe forever.  The breaker returns to ``OPEN``
        with its cooldown already elapsed, so the very next caller is
        re-admitted as a fresh probe.
        """
        with self._lock:
            if self._state.get(key) != HALF_OPEN:
                return
            self._probe_inflight.pop(key, None)
            self._opened_at[key] = time.monotonic() - self._limits(key)[1] - 1e-3
            self._transition(key, OPEN)


class TenantPolicy:
    """Static limits applied to one tenant (or the default for all)."""

    __slots__ = ("max_inflight", "deadline_cap", "budget_seconds",
                 "budget_window", "breaker_threshold", "breaker_cooldown")

    def __init__(
        self,
        max_inflight: int = 8,
        deadline_cap: Optional[float] = 30.0,
        budget_seconds: Optional[float] = None,
        budget_window: float = 60.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ):
        self.max_inflight = max(1, int(max_inflight))
        self.deadline_cap = deadline_cap
        self.budget_seconds = budget_seconds
        self.budget_window = max(1e-3, float(budget_window))
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = max(0.0, float(breaker_cooldown))


class AdmissionError(DiagnosticError):
    """A request was rejected at admission (codes ``R806``–``R808``)."""

    def __init__(self, code: str, message: str, tenant: str,
                 retry_after: Optional[float] = None):
        super().__init__(make_diagnostic(code, message, Severity.ERROR, data=tenant))
        self.tenant = tenant
        self.retry_after = retry_after


class Ticket:
    """One admitted request; must be settled exactly once."""

    __slots__ = ("controller", "tenant", "admitted_at", "_settled")

    def __init__(self, controller: "AdmissionController", tenant: str):
        self.controller = controller
        self.tenant = tenant
        self.admitted_at = time.monotonic()
        self._settled = False

    def complete(self, cost_seconds: float = 0.0,
                 failure_code: Optional[str] = None) -> None:
        """Settle the request: release the in-flight slot, charge the
        budget, and feed the breaker (``failure_code`` in
        :data:`BREAKER_CODES` counts as a strike; anything else — or
        None — counts as a success)."""
        if self._settled:
            return
        self._settled = True
        self.controller._settle(self.tenant, cost_seconds, failure_code)


class _TenantState:
    __slots__ = ("inflight", "spend", "admitted", "rejected", "failures", "ok")

    def __init__(self):
        self.inflight = 0
        #: Rolling (timestamp, cost_seconds) ledger of completed work.
        self.spend: Deque[Tuple[float, float]] = deque()
        self.admitted = 0
        self.rejected = 0
        self.failures = 0
        self.ok = 0


class AdmissionController:
    """Thread-safe per-tenant gate in front of the worker pool."""

    def __init__(
        self,
        default_policy: Optional[TenantPolicy] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        sink: Optional[TelemetrySink] = None,
    ):
        self.default_policy = default_policy or TenantPolicy()
        self.policies = dict(policies or {})
        self.sink = sink
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        # Honor per-tenant breaker knobs: a TenantPolicy in `policies`
        # with its own threshold/cooldown overrides the default.
        self.breakers = CircuitBreakerRegistry(limits=self._breaker_limits)
        # Publish every breaker transition: dashboards watch these events.
        self.breakers.on_transition(self._on_breaker_transition)

    def _breaker_limits(self, tenant: str) -> Tuple[int, float]:
        policy = self.policy(tenant)
        return policy.breaker_threshold, policy.breaker_cooldown

    def _on_breaker_transition(self, tenant: str, old: str, new: str) -> None:
        if self.sink is not None:
            self.sink.publish("breaker", tenant,
                              fields={"old": old, "new": new})

    def _publish_decision(self, tenant: str, decision: str,
                          code: Optional[str] = None) -> None:
        if self.sink is not None:
            self.sink.publish("admission", tenant,
                              fields={"event": decision, "code": code})

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    # ----------------------------------------------------------- admission
    def admit(self, tenant: str, deadline: Optional[float] = None) -> Ticket:
        """Run the three gates; returns a :class:`Ticket` or raises
        :class:`AdmissionError` (the fast-rejection path)."""
        # An engine fault here (not a policy rejection) must surface as
        # the daemon's structured E204, never as a dropped request.
        faultpoint("admission.admit", tenant=tenant)
        policy = self.policy(tenant)
        now = time.monotonic()
        with self._lock:
            state = self._state(tenant)

            # Gate 1: circuit breaker (cheapest; also the single-probe
            # half-open admission).  If this caller is admitted as the
            # half-open probe but a *later* gate rejects it, the probe
            # must be rolled back — no Ticket exists, so nothing would
            # ever settle it and the breaker would be stuck HALF_OPEN.
            pre_state = self.breakers.state(tenant)
            if self.breakers.is_open(tenant):
                state.rejected += 1
                self._publish_decision(tenant, "reject", "R807")
                retry_after = self.breakers.cooldown_remaining(tenant)
                raise AdmissionError(
                    "R807",
                    f"tenant {tenant!r} circuit breaker is open after "
                    f"{self.breakers.failures(tenant)} consecutive failures "
                    f"(last: {self.breakers.last_code(tenant)}); "
                    f"retry in {retry_after:.1f}s",
                    tenant=tenant,
                    retry_after=retry_after,
                )

            became_probe = (
                pre_state != HALF_OPEN
                and self.breakers.state(tenant) == HALF_OPEN
            )

            # Gate 2: concurrent in-flight cap.
            if state.inflight >= policy.max_inflight:
                if became_probe:
                    self.breakers.abort_probe(tenant)
                state.rejected += 1
                self._publish_decision(tenant, "reject", "R806")
                raise AdmissionError(
                    "R806",
                    f"tenant {tenant!r} already has {state.inflight} requests "
                    f"in flight (cap {policy.max_inflight})",
                    tenant=tenant,
                    retry_after=0.05,
                )

            # Gate 3: rolling deadline budget.
            if policy.budget_seconds is not None:
                horizon = now - policy.budget_window
                spend = state.spend
                while spend and spend[0][0] < horizon:
                    spend.popleft()
                spent = sum(cost for _, cost in spend)
                if spent >= policy.budget_seconds:
                    if became_probe:
                        self.breakers.abort_probe(tenant)
                    state.rejected += 1
                    self._publish_decision(tenant, "reject", "R808")
                    retry_after = (
                        spend[0][0] + policy.budget_window - now if spend else 0.0
                    )
                    raise AdmissionError(
                        "R808",
                        f"tenant {tenant!r} spent {spent:.3f}s of its "
                        f"{policy.budget_seconds:g}s budget in the last "
                        f"{policy.budget_window:g}s window",
                        tenant=tenant,
                        retry_after=max(0.0, retry_after),
                    )

            state.inflight += 1
            state.admitted += 1
            self._publish_decision(tenant, "admit")
            return Ticket(self, tenant)

    def clamp_deadline(self, tenant: str, requested: Optional[float]) -> Optional[float]:
        """Apply the tenant's deadline cap (the cap is also the default
        when the request names none)."""
        cap = self.policy(tenant).deadline_cap
        if requested is None:
            return cap
        try:
            value = float(requested)
        except (TypeError, ValueError):
            return cap
        if not math.isfinite(value) or value <= 0:
            # Protocol validation already rejects these; never let a
            # NaN/Infinity survive into worker timeouts regardless.
            return cap
        return value if cap is None else min(value, cap)

    def _settle(self, tenant: str, cost_seconds: float,
                failure_code: Optional[str]) -> None:
        failed = failure_code in BREAKER_CODES
        with self._lock:
            state = self._state(tenant)
            state.inflight = max(0, state.inflight - 1)
            state.spend.append((time.monotonic(), max(0.0, float(cost_seconds))))
            if failed:
                state.failures += 1
            else:
                state.ok += 1
        if failed:
            self.breakers.record_failure(tenant, code=failure_code)
        else:
            self.breakers.record_success(tenant)

    # --------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            tenants = {
                name: {
                    "inflight": s.inflight,
                    "admitted": s.admitted,
                    "rejected": s.rejected,
                    "failures": s.failures,
                    "ok": s.ok,
                    "breaker": self.breakers.state(name),
                    "window_spend": round(sum(c for _, c in s.spend), 6),
                }
                for name, s in self._tenants.items()
            }
        return {"tenants": tenants}

"""Execution watchdog: deadlines, memory budgets, retry, circuit breaking.

The north star of "any SDFG either runs correctly or fails with a
precise, bounded, recoverable error" needs a *resource* story on top of
the sanitizer's *value* story: a submitted SDFG with an unbounded
interstate loop, or a backend that has started segfaulting, must not
take the host process (or the whole serving fleet) with it.  This
module provides the three policies:

* :class:`Watchdog` — a per-call wall-clock deadline and memory budget.
  Cancellation is *cooperative*: generated state machines, consume
  loops, and the interpreter call :meth:`Watchdog.checkpoint` at loop
  boundaries, and transient allocations are accounted against the
  budget.  A violation raises :class:`WatchdogViolation` carrying an
  ``R805`` diagnostic.
* :class:`RetryPolicy` — bounded retries with exponential backoff for
  failures that are known not to have corrupted the inputs (crashes
  contained by the isolation harness, see
  :mod:`repro.runtime.isolation`).
* :class:`CircuitBreakerRegistry` — per-backend failure counting.  A
  backend that crashes or times out repeatedly is *opened*:
  ``compile_sdfg`` skips it with a recorded degradation hop instead of
  trying (and failing) again, until the cooldown elapses.

Knobs: ``REPRO_DEADLINE`` (seconds), ``REPRO_MEMORY_BUDGET`` (bytes),
``REPRO_RETRIES``, ``REPRO_RETRY_BACKOFF`` (seconds),
``REPRO_RETRY_JITTER`` (fraction), ``REPRO_BREAKER_THRESHOLD``,
``REPRO_BREAKER_COOLDOWN`` (seconds).
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos import faultpoint
from repro.diagnostics import DiagnosticError, Severity, make_diagnostic
from repro.telemetry.sink import active_sink


class WatchdogViolation(DiagnosticError):
    """A deadline or memory budget was exceeded (code ``R805``)."""

    def __init__(self, message: str, sdfg=None, kind: str = "deadline"):
        diag = make_diagnostic("R805", message, Severity.ERROR, sdfg=sdfg)
        super().__init__(diag)
        #: ``"deadline"`` or ``"memory"``.
        self.kind = kind
        sink = active_sink()
        if sink is not None:
            sink.publish(
                "watchdog", str(sdfg) if sdfg else "",
                fields={"event": kind, "code": "R805"},
            )


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def deadline_from_env() -> Optional[float]:
    """Wall-clock deadline in seconds from ``REPRO_DEADLINE`` (None = off)."""
    return _env_float("REPRO_DEADLINE")


def memory_budget_from_env() -> Optional[int]:
    """Transient-memory budget in bytes from ``REPRO_MEMORY_BUDGET``."""
    val = _env_float("REPRO_MEMORY_BUDGET")
    return int(val) if val is not None else None


class Watchdog:
    """Cooperative per-call deadline and transient-memory budget.

    One instance is armed per ``CompiledSDFG.__call__`` / interpreter
    call.  ``checkpoint()`` is cheap (one monotonic clock read) and is
    called from state-machine transitions, consume-loop rounds, and —
    under the sanitizer — every map iteration.  ``account_alloc()`` adds
    a transient allocation to the running total.
    """

    __slots__ = ("deadline", "memory_budget", "sdfg_name", "start",
                 "allocated", "checkpoints", "violation")

    def __init__(
        self,
        deadline: Optional[float] = None,
        memory_budget: Optional[int] = None,
        sdfg_name: Optional[str] = None,
    ):
        self.deadline = deadline
        self.memory_budget = memory_budget
        self.sdfg_name = sdfg_name
        self.start = time.monotonic()
        self.allocated = 0
        self.checkpoints = 0
        #: The violation that fired, if any (kept for reporting).
        self.violation: Optional[WatchdogViolation] = None

    def arm(self) -> "Watchdog":
        """Reset the clock (called right before the entry runs)."""
        self.start = time.monotonic()
        return self

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> Optional[float]:
        """Seconds left until the deadline (None when no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def checkpoint(self) -> None:
        self.checkpoints += 1
        # A `delay` rule here models a slow kernel between cooperative
        # checkpoints — the resulting R805 is a *genuine* deadline trip.
        faultpoint("watchdog.checkpoint")
        if self.deadline is not None and self.elapsed() > self.deadline:
            err = WatchdogViolation(
                f"execution exceeded deadline of {self.deadline:g}s "
                f"(elapsed {self.elapsed():.3f}s)",
                sdfg=self.sdfg_name,
                kind="deadline",
            )
            self.violation = err
            raise err

    def account_alloc(self, name: str, nbytes: int) -> None:
        self.allocated += int(nbytes)
        if self.memory_budget is not None and self.allocated > self.memory_budget:
            err = WatchdogViolation(
                f"transient allocation {name!r} ({int(nbytes)} bytes) exceeds "
                f"memory budget of {self.memory_budget} bytes "
                f"(total {self.allocated})",
                sdfg=self.sdfg_name,
                kind="memory",
            )
            self.violation = err
            raise err


class RetryPolicy:
    """Bounded retry with (optionally jittered) exponential backoff.

    Without jitter the delay before retry ``n`` is ``backoff * 2^n``.
    ``jitter`` spreads that over ``[base*(1-j), base*(1+j)]`` uniformly
    so a *pool* of workers retrying the same flaky backend does not
    thundering-herd it with synchronized probes.  The RNG is injectable
    (``rng=random.Random(seed)``) so delay schedules stay deterministic
    in tests; each policy otherwise gets its own independently seeded
    generator.
    """

    __slots__ = ("retries", "backoff", "jitter", "rng")

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.05,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.jitter = min(1.0, max(0.0, float(jitter)))
        self.rng = rng if rng is not None else random.Random()

    @staticmethod
    def from_env() -> "RetryPolicy":
        retries = _env_float("REPRO_RETRIES")
        backoff = _env_float("REPRO_RETRY_BACKOFF")
        jitter = _env_float("REPRO_RETRY_JITTER")
        return RetryPolicy(
            retries=int(retries) if retries is not None else 1,
            backoff=backoff if backoff is not None else 0.05,
            jitter=jitter if jitter is not None else 0.0,
        )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        ``b * 2^n``, spread uniformly over ``[b*2^n*(1-j), b*2^n*(1+j)]``
        when ``jitter=j`` is set (mean is unchanged; never negative).
        """
        base = self.backoff * (2 ** attempt)
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * (1.0 - self.jitter + 2.0 * self.jitter * self.rng.random())


#: Breaker states.  ``HALF_OPEN`` means the cooldown elapsed and exactly
#: one probe request has been admitted; until that probe resolves every
#: other caller is short-circuited as if the breaker were still open.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreakerRegistry:
    """Per-key (backend or tenant) failure counter with closed → open →
    half-open semantics.

    ``record_failure`` counts call-time crashes and watchdog violations;
    once a key accumulates ``threshold`` consecutive failures the
    breaker *opens* and ``is_open`` returns True until ``cooldown``
    seconds pass.  The first ``is_open`` call after the cooldown moves
    the breaker to *half-open* and admits that caller as the single
    probe (returns False); concurrent callers keep getting True until
    the probe resolves — ``record_success`` closes the breaker,
    ``record_failure`` re-opens it immediately.  All transitions are
    thread-safe and observable via :meth:`on_transition` listeners and
    the bounded :attr:`transitions` log.
    """

    def __init__(self, threshold: Optional[int] = None, cooldown: Optional[float] = None):
        self._lock = threading.RLock()
        self._failures: Dict[str, int] = {}
        self._last_code: Dict[str, str] = {}
        self._opened_at: Dict[str, float] = {}
        self._state: Dict[str, str] = {}
        self._probe_inflight: Dict[str, bool] = {}
        self._threshold = threshold
        self._cooldown = cooldown
        self._limit_resolver: Optional[
            Callable[[str], Tuple[Optional[int], Optional[float]]]
        ] = None
        self._listeners: List[Callable[[str, str, str], None]] = []
        #: Bounded log of ``(key, old_state, new_state)`` transitions.
        self.transitions: List[Tuple[str, str, str]] = []

    @property
    def threshold(self) -> int:
        if self._threshold is not None:
            return self._threshold
        val = _env_float("REPRO_BREAKER_THRESHOLD")
        return int(val) if val is not None else 3

    @property
    def cooldown(self) -> float:
        if self._cooldown is not None:
            return self._cooldown
        val = _env_float("REPRO_BREAKER_COOLDOWN")
        return val if val is not None else 300.0

    def set_limit_resolver(
        self, resolver: Callable[[str], Tuple[Optional[int], Optional[float]]]
    ) -> None:
        """Install a per-key ``(threshold, cooldown)`` resolver.

        The serve layer uses this to honor per-tenant breaker policy; a
        ``None`` in either slot falls back to the registry default."""
        with self._lock:
            self._limit_resolver = resolver

    def _threshold_for(self, key: str) -> int:
        if self._limit_resolver is not None:
            threshold, _ = self._limit_resolver(key)
            if threshold is not None:
                return max(1, int(threshold))
        return self.threshold

    def _cooldown_for(self, key: str) -> float:
        if self._limit_resolver is not None:
            _, cooldown = self._limit_resolver(key)
            if cooldown is not None:
                return max(0.0, float(cooldown))
        return self.cooldown

    # -------------------------------------------------------- observation
    def on_transition(self, listener: Callable[[str, str, str], None]) -> None:
        """Register a ``listener(key, old_state, new_state)`` callback
        (the serve layer mirrors transitions as instrumentation events)."""
        with self._lock:
            self._listeners.append(listener)

    def _transition(self, key: str, new_state: str) -> None:
        old = self._state.get(key, CLOSED)
        if old == new_state:
            return
        self._state[key] = new_state
        if len(self.transitions) < 10000:
            self.transitions.append((key, old, new_state))
        sink = active_sink()
        if sink is not None:
            sink.publish("breaker", key, fields={"old": old, "new": new_state})
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
            if n >= self._threshold_for(key) and key not in self._opened_at:
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
            return max(0.0, self._cooldown_for(key) - (time.monotonic() - opened))

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
            if time.monotonic() - opened > self._cooldown_for(key):
                # This caller becomes the single half-open probe.
                self._opened_at.pop(key, None)
                self._failures[key] = max(0, self._threshold_for(key) - 1)
                self._probe_inflight[key] = True
                self._transition(key, HALF_OPEN)
                return False
            return True

    def abort_probe(self, key: str) -> None:
        """Roll back a half-open probe that never ran.

        The admitted probe caller can still be rejected downstream (the
        serve layer's in-flight cap or budget gate) before any work is
        attempted; without a rollback the breaker would be stuck in
        ``HALF_OPEN`` with a phantom probe forever.  The breaker returns
        to ``OPEN`` with its cooldown already elapsed, so the very next
        caller is re-admitted as a fresh probe.
        """
        with self._lock:
            if self._state.get(key) != HALF_OPEN:
                return
            self._probe_inflight.pop(key, None)
            self._opened_at[key] = time.monotonic() - self._cooldown_for(key) - 1e-3
            self._transition(key, OPEN)

    def reset(self) -> None:
        with self._lock:
            self._failures.clear()
            self._last_code.clear()
            self._opened_at.clear()
            self._state.clear()
            self._probe_inflight.clear()
            self.transitions.clear()


#: Process-wide breaker state consulted by ``compile_sdfg``.
BREAKERS = CircuitBreakerRegistry()


def reset_breakers() -> None:
    """Clear all circuit-breaker state (tests and long-lived hosts)."""
    BREAKERS.reset()

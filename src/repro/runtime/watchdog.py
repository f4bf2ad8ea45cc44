"""Execution watchdog: deadlines, memory budgets, retry.

The north star of "any SDFG either runs correctly or fails with a
precise, bounded, recoverable error" needs a *resource* story on top of
the sanitizer's *value* story: a submitted SDFG with an unbounded
interstate loop, or a backend that has started segfaulting, must not
take the host process (or the whole serving fleet) with it.  This
module provides the two policies:

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

The watchdog owns no failure history: a violation is recorded as an
``R805`` hop on the artifact it killed, a contained crash is retried
and then degraded per artifact (``CompiledSDFG._invoke``), and the
serve layer's per-tenant admission breaker counts repeated failures
(:mod:`repro.serve.admission`).  The deadline and memory budget come
from ``compile_sdfg``'s arguments or a served request's fields.
"""

from __future__ import annotations

import random
import time
from typing import Optional

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

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        ``b * 2^n``, spread uniformly over ``[b*2^n*(1-j), b*2^n*(1+j)]``
        when ``jitter=j`` is set (mean is unchanged; never negative).
        """
        base = self.backoff * (2 ** attempt)
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * (1.0 - self.jitter + 2.0 * self.jitter * self.rng.random())


#: The retry policy of a contained crash at call time (one retry after
#: 0.05 s, no jitter); ``CompiledSDFG._invoke`` reads it per crash.
CALL_RETRY = RetryPolicy()

"""Bounded ring-buffer telemetry sink (the fleet's event bus).

Producers on hot paths — the instrumentation recorder's timed exits, the
program and tuning caches, the tuner, the watchdog, the serve layer —
call :meth:`TelemetrySink.publish`.  A publish is one ring-slot write under a
lock whose critical section is a couple of list operations: a few
microseconds, independent of how far behind any consumer is.  The sink
never blocks and never grows; when producers outrun the consumer the
oldest events are overwritten and the loss is **counted** (per-consumer,
via the drain cursor arithmetic) rather than silently absorbed.

Consumers (the windowed aggregator, the daemon's ``metrics`` endpoint,
the worker→supervisor propagation) call :meth:`drain` with the cursor
returned by their previous drain; they get every event still in the
ring past that cursor plus the exact number they missed.

A process has at most one *active* sink (:func:`active_sink`), installed
explicitly (:func:`install_sink`) or implicitly by setting
``REPRO_TELEMETRY=1`` in the environment (the worker pool sets it for
its workers).  The serve daemon installs none: it hands its own sink to
admission control and the pool, which publish into it directly.  With no
active sink every producer-side hook is a ``None`` check.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.chaos.engine import faultpoint

#: Default ring capacity.  4096 events outlast several aggregation
#: windows of serve traffic; one event is one small tuple (~200 bytes).
DEFAULT_CAPACITY = 4096


class TelemetryEvent(NamedTuple):
    """One published event.

    ``kind``/``label`` follow the instrumentation-recorder taxonomy
    (``kernel``, ``request``, ``cache``, ``breaker``, ``admission``,
    ``worker``, ``phase``, plus the IR-element kinds); ``value`` is the
    event's scalar measurement (seconds for timers, None otherwise) and
    ``fields`` carries everything else (tenant, status, counters...).
    """

    seq: int
    ts: float
    kind: str
    label: str
    value: Optional[float]
    fields: Optional[Dict[str, Any]]

    def to_json(self) -> List[Any]:
        """Compact wire form (used for worker → supervisor propagation)."""
        return [round(self.ts, 6), self.kind, self.label, self.value, self.fields]

    @staticmethod
    def fields_from_json(obj: Any) -> Optional[Dict[str, Any]]:
        return obj if isinstance(obj, dict) else None


class TelemetrySink:
    """Fixed-capacity ring of :class:`TelemetryEvent` with drop counting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._ring: List[Optional[TelemetryEvent]] = [None] * self.capacity
        self._seq = 0  # total events ever published (monotonic)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ producing
    def publish(
        self,
        kind: str,
        label: str,
        value: Optional[float] = None,
        ts: Optional[float] = None,
        fields: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append one event; returns its sequence number.

        ``ts`` defaults to the wall clock *now*; propagated events (from
        a worker process) carry their original timestamps so windowing
        stays faithful across the fleet.
        """
        # The engine guards against recursion here: its own `fault:*`
        # event publications skip fault-point evaluation.
        faultpoint("telemetry.publish", kind=kind)
        if ts is None:
            ts = time.time()
        with self._lock:
            seq = self._seq
            self._ring[seq % self.capacity] = TelemetryEvent(
                seq, ts, kind, label, value, fields
            )
            self._seq = seq + 1
        return seq

    # ------------------------------------------------------------ consuming
    def drain(
        self, cursor: int = 0, limit: Optional[int] = None
    ) -> Tuple[List[TelemetryEvent], int, int]:
        """Events published at or after ``cursor`` that are still in the
        ring, as ``(events, next_cursor, dropped)``.

        ``dropped`` is the number of events the consumer can never see:
        published after its cursor but already overwritten.  Pass the
        returned ``next_cursor`` to the next drain.  ``limit`` caps the
        batch (oldest first; the rest stay for the next drain).
        """
        faultpoint("telemetry.drain")
        with self._lock:
            seq = self._seq
            oldest = max(0, seq - self.capacity)
            start = max(cursor, oldest)
            dropped = start - cursor if cursor < start else 0
            end = seq if limit is None else min(seq, start + max(0, int(limit)))
            events = [self._ring[i % self.capacity] for i in range(start, end)]
        return events, end, dropped

    # -------------------------------------------------------------- queries
    @property
    def seq(self) -> int:
        """Total number of events ever published."""
        with self._lock:
            return self._seq

    def stats(self) -> Dict[str, int]:
        with self._lock:
            seq = self._seq
        return {
            "capacity": self.capacity,
            "published": seq,
            "resident": min(seq, self.capacity),
        }


# =====================================================================
# The process-active sink
# =====================================================================

#: Sentinel: "not yet resolved" (distinct from "resolved to None").
_UNSET = object()
_ACTIVE: Any = _UNSET
_ACTIVE_LOCK = threading.Lock()


def telemetry_enabled() -> bool:
    """True when ``REPRO_TELEMETRY`` asks for implicit collection."""
    from repro.codegen.options import parse_flag

    return parse_flag("REPRO_TELEMETRY", os.environ.get("REPRO_TELEMETRY"))


def active_sink() -> Optional[TelemetrySink]:
    """The process-active sink, or None when telemetry is off.

    Resolution is lazy and cached: the first call consults
    ``REPRO_TELEMETRY`` (creating a default-capacity sink when set);
    afterwards this is a global read — cheap enough for hot paths.
    """
    global _ACTIVE
    sink = _ACTIVE
    if sink is _UNSET:
        with _ACTIVE_LOCK:
            if _ACTIVE is _UNSET:
                _ACTIVE = TelemetrySink() if telemetry_enabled() else None
            sink = _ACTIVE
    return sink


def install_sink(sink: Optional[TelemetrySink]) -> Optional[TelemetrySink]:
    """Install ``sink`` as the process-active sink; returns the previous
    one (which may be None).  Pass the previous value to a later
    ``install_sink`` to restore it (tests, embedded servers)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = None if _ACTIVE is _UNSET else _ACTIVE
        _ACTIVE = sink
    return previous


def uninstall_sink() -> None:
    """Forget the active sink *and* the cached env resolution, so the
    next :func:`active_sink` re-consults ``REPRO_TELEMETRY``."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = _UNSET

"""Streaming telemetry for the serve fleet (sink → aggregator → detector).

PR 2's :class:`~repro.instrumentation.report.InstrumentationReport` is
per-run and in-memory — the right shape for a benchmark, the wrong one
for a daemon that serves traffic for days.  This package provides the
continuous counterpart:

* :mod:`repro.telemetry.sink` — a bounded ring-buffer event sink that
  the instrumentation recorder, the program/tuning/symbolic caches, the
  watchdog, and the serve layer's admission controller (with its tenant
  circuit breakers) all publish into.  Publishing is a single locked
  ring write (a couple of microseconds); overflow overwrites the oldest
  events and is *counted*, never blocking a hot path.
* :mod:`repro.telemetry.aggregate` — a windowed aggregator folding the
  stream into time-windowed summaries: per-kernel latency percentiles,
  cache hit rates, breaker-state timelines, per-tenant request/error
  counts, and top-N hot spots by timer and memlet volume.
* :mod:`repro.telemetry.regression` — a drift detector comparing
  windowed kernel timings against stored ``BENCH_*.json`` baselines and
  reporting ``W901 PerfDrift`` / ``W902 MissingBaseline`` structured
  diagnostics.
* ``python -m repro.telemetry`` — ``watch`` (live dashboard),
  ``snapshot`` (one aggregate as JSON), and ``check`` (baseline
  comparison with ``--fail-on-drift``, wired into CI).

Enable process-local collection with ``REPRO_TELEMETRY=1`` (the serve
daemon enables it for itself and its workers by default); everything is
a no-op otherwise.
"""

from __future__ import annotations

from repro.telemetry.aggregate import WindowedAggregator
from repro.telemetry.regression import (
    PerfDrift,
    check_drift,
    load_baselines,
)
from repro.telemetry.sink import (
    TelemetryEvent,
    TelemetrySink,
    active_sink,
    install_sink,
    telemetry_enabled,
    uninstall_sink,
)

__all__ = [
    "PerfDrift",
    "TelemetryEvent",
    "TelemetrySink",
    "WindowedAggregator",
    "active_sink",
    "check_drift",
    "install_sink",
    "load_baselines",
    "telemetry_enabled",
    "uninstall_sink",
]

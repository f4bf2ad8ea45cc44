"""Fault-tolerant multi-tenant compile-and-execute service.

The SDFG model's promise is *compile once, invoke many times* — which
only pays off operationally if the runtime that holds the warm programs
survives hostile inputs, crashing generated code, and concurrent load.
This package turns every prior subsystem into a supervised service
component:

* :mod:`repro.serve.protocol` — newline-delimited JSON over a local
  socket, arrays as base64-encoded buffers, structured diagnostic codes
  on every error (``E202``/``E203``/``R806``–``R808``).
* :mod:`repro.serve.worker` — the persistent worker process: compiles
  and executes SDFGs in-process (it *is* the crash-isolation boundary),
  keeping per-tenant program caches hot across requests.
* :mod:`repro.serve.pool` — the supervisor: spawn/health-check/recycle
  workers, contain SIGSEGV/OOM death, respawn and replay the victim
  request with jittered backoff.  :mod:`repro.runtime.isolation` runs
  isolated cpp calls through a one-worker pool of its own.
* :mod:`repro.serve.admission` — per-tenant admission control: max
  in-flight, rolling deadline budgets, circuit breakers with
  single-probe half-open semantics, and load shedding that degrades
  sanitize/instrumentation and backend tiers before failing anyone.
* :mod:`repro.serve.daemon` — the long-lived server
  (``python -m repro.serve``) gluing the above together.
* :mod:`repro.serve.client` — a minimal blocking client.
* :mod:`repro.serve.loadtest` — the mixed cold/warm load driver used by
  CI and ``benchmarks/test_serve_bench.py`` (writes ``BENCH_serve.json``).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    LoadShedder,
    TenantPolicy,
)
from repro.serve.client import ServeClient
from repro.serve.daemon import SDFGServer, ServeConfig
from repro.serve.pool import WorkerPool

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "LoadShedder",
    "TenantPolicy",
    "ServeClient",
    "SDFGServer",
    "ServeConfig",
    "WorkerPool",
]

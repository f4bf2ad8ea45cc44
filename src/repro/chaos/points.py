"""Registry of every named fault point woven through the stack.

The catalog is documentation *and* contract: ``python -m repro.chaos
list`` prints it, ``FaultPlan.parse(strict=True)`` validates plans
against it, and the chaos test suite asserts that each registered point
spans the layer it claims.  Keep entries in sync with the
``faultpoint(...)`` call sites — ``tests/chaos/test_engine.py`` checks
that each name is a literal in its ``module`` and that every literal
call site is registered.  Shared code (:mod:`repro.store`) receives the
names from the registered module rather than spelling them itself.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class FaultPoint(NamedTuple):
    layer: str
    module: str
    description: str


#: name -> (layer, module with the call site, what failing here models)
CATALOG: Dict[str, FaultPoint] = {
    # --- codegen -----------------------------------------------------
    "compiler.codegen": FaultPoint(
        "codegen", "repro.codegen.compiler",
        "backend code generation fails (raise-io exercises the "
        "cpp→python→interpreter degradation chain)",
    ),
    "compiler.exec": FaultPoint(
        "codegen", "repro.codegen.compiler",
        "exec of generated python source fails (degradable)",
    ),
    # --- caches ------------------------------------------------------
    "progcache.disk_write": FaultPoint(
        "cache", "repro.codegen.progcache",
        "program-cache disk store fails or tears (corrupt = torn write "
        "quarantined on the next read)",
    ),
    "progcache.disk_read": FaultPoint(
        "cache", "repro.codegen.progcache",
        "program-cache disk read fails or returns a torn entry",
    ),
    "tuningcache.disk_write": FaultPoint(
        "cache", "repro.tuning.cache",
        "tuning-cache store fails or tears",
    ),
    "tuningcache.disk_read": FaultPoint(
        "cache", "repro.tuning.cache",
        "tuning-cache read fails or returns a torn entry",
    ),
    # --- runtime -----------------------------------------------------
    "arguments.marshal": FaultPoint(
        "runtime", "repro.runtime.arguments",
        "argument validation/marshaling fails before execution",
    ),
    "isolation.spawn": FaultPoint(
        "runtime", "repro.runtime.isolation",
        "an isolated cpp call cannot reach the harness worker "
        "(raise-io = contained E201 crash, degradable)",
    ),
    "watchdog.checkpoint": FaultPoint(
        "runtime", "repro.runtime.watchdog",
        "a cooperative checkpoint stalls (delay = slow kernel that "
        "trips a genuine R805 deadline)",
    ),
    # --- serve -------------------------------------------------------
    "pool.worker_spawn": FaultPoint(
        "serve", "repro.serve.pool",
        "a freshly spawned service worker dies during/after its ready "
        "handshake (kill targets the child pid)",
    ),
    "pool.dispatch": FaultPoint(
        "serve", "repro.serve.pool",
        "the supervisor fails while dispatching a job to a worker",
    ),
    "pool.crash_bundle": FaultPoint(
        "serve", "repro.serve.pool",
        "writing a worker-death repro bundle fails (serve and isolated "
        "cpp calls; the death must still surface)",
    ),
    "daemon.frame_read": FaultPoint(
        "serve", "repro.serve.daemon",
        "reading a client request frame fails mid-connection",
    ),
    "daemon.frame_write": FaultPoint(
        "serve", "repro.serve.daemon",
        "writing a response frame fails (delay = slow client socket)",
    ),
    "admission.admit": FaultPoint(
        "serve", "repro.serve.admission",
        "the admission gate itself errors (not a policy rejection)",
    ),
    "worker.request": FaultPoint(
        "serve", "repro.serve.worker",
        "a worker fails on receipt of a job (kill = mid-request worker "
        "death, replayed by the supervisor)",
    ),
    "worker.response_write": FaultPoint(
        "serve", "repro.serve.worker",
        "a worker dies while writing its response",
    ),
    # --- telemetry ---------------------------------------------------
    "telemetry.publish": FaultPoint(
        "telemetry", "repro.telemetry.sink",
        "a producer-side publish fails (must never take a request down)",
    ),
    "telemetry.drain": FaultPoint(
        "telemetry", "repro.telemetry.sink",
        "a consumer-side drain fails (aggregator / worker propagation)",
    ),
}

#: The layers the catalog must span (asserted by the acceptance test).
LAYERS = ("codegen", "cache", "runtime", "serve", "telemetry")

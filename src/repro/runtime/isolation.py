"""Crash-isolated execution of gcc-compiled SDFG artifacts.

A generated-and-compiled shared object is untrusted native code: a
codegen bug (or hostile ``code_global``) can segfault, abort, or spin —
and a ``ctypes`` call into it takes the host Python process down with
it.  So an isolated cpp call never loads the artifact here; it is a
client of the serve pool's supervisor (:mod:`repro.serve.pool`):

* the *harness* is a lazily started, process-wide ``WorkerPool(size=1)``
  whose persistent worker dlopens each library once and is recycled
  only once its peak RSS passes :data:`HARNESS_MEMORY_BUDGET_KB`
  (never by request count);
* the call's arrays travel to the worker and back as raw bytes in the
  job and response frames (:mod:`repro.serve.protocol`; no file is
  written, and no frame size limit applies: the arrays are the
  caller's own), and the results are copied into the caller's arrays;
* a worker death is the pool's ``E201`` — it writes the minimized repro
  bundle under ``REPRO_CRASH_DIR`` and respawns the worker — and becomes
  :class:`BackendCrashError`, which the compiler retries and then
  degrades to the python backend;
* a worker killed at the watchdog deadline (the pool's ``R805``) becomes
  a deadline :class:`~repro.runtime.watchdog.WatchdogViolation`.

The pool never replays a call (``retries=0``): the compiler's
``RetryPolicy`` is the one retry loop.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.chaos import faultpoint
from repro.diagnostics import DiagnosticError, Severity, make_diagnostic


class BackendCrashError(DiagnosticError):
    """The isolated backend process died (code ``E201``).

    The crash was *contained*: the host process and the caller's arrays
    are intact (the worker ran on copies), so the call is safe to retry
    or degrade.  ``bundle`` points at the repro bundle, if one was
    written.
    """

    def __init__(
        self,
        message: str,
        sdfg: Optional[str] = None,
        bundle: Optional[str] = None,
        returncode: Optional[int] = None,
    ):
        super().__init__(make_diagnostic("E201", message, Severity.ERROR, sdfg=sdfg))
        self.bundle = bundle
        self.returncode = returncode
        #: Inputs were not mutated; a retry is semantically safe.
        self.retryable = True


def crash_dir() -> str:
    return os.environ.get("REPRO_CRASH_DIR", "").strip() or ".repro_crashes"


#: Default number of crash bundles each process keeps (newest first).
DEFAULT_CRASH_KEEP = 50


def crash_keep() -> int:
    """``REPRO_CRASH_KEEP`` knob: bundles retained per process."""
    raw = os.environ.get("REPRO_CRASH_KEEP", "").strip()
    try:
        return max(1, int(raw)) if raw else DEFAULT_CRASH_KEEP
    except ValueError:
        return DEFAULT_CRASH_KEEP


#: Peak RSS (KiB) past which the harness worker is retired after its
#: call.  The worker keeps every library it has loaded, so this, not a
#: request count, bounds its growth.
HARNESS_MEMORY_BUDGET_KB = 1 << 20

#: (owning pid, pool) of the harness; None until the first isolated call.
_HARNESS: Optional[Tuple[int, Any]] = None
_HARNESS_LOCK = threading.Lock()


def harness():
    """The process-wide harness pool, created on first use — and again
    in a forked child, which must not share its parent's pipes."""
    global _HARNESS
    with _HARNESS_LOCK:
        if _HARNESS is None or _HARNESS[0] != os.getpid():
            from repro.runtime.watchdog import RetryPolicy
            from repro.serve.pool import WorkerPool

            # run_isolated keeps queueing past each 1 s acquire timeout.
            # No recycling by count: a respawn costs far more than the
            # calls it would follow.
            _HARNESS = (os.getpid(), WorkerPool(
                size=1, retry=RetryPolicy(retries=0), acquire_timeout=1.0,
                recycle_after=sys.maxsize,
                memory_budget_kb=HARNESS_MEMORY_BUDGET_KB))
        return _HARNESS[1]


def close_harness() -> None:
    """Stop this process's harness worker (run at interpreter exit)."""
    global _HARNESS
    with _HARNESS_LOCK:
        owned, _HARNESS = _HARNESS, None
    if owned is not None and owned[0] == os.getpid():
        owned[1].close()


atexit.register(close_harness)


def run_isolated(
    name: str,
    lib_path: str,
    sdfg_json: str,
    arrays: Dict[str, np.ndarray],
    symbols: Dict[str, int],
    timeout: Optional[float] = None,
) -> None:
    """Run entry point ``name`` of library ``lib_path`` on the harness
    worker, mutating ``arrays`` in place like the direct ctypes path.
    ``sdfg_json`` is the canonical SDFG for the crash bundle;
    ``timeout=None`` means no deadline.  Raises
    :class:`BackendCrashError` on a contained crash and
    ``WatchdogViolation`` on a deadline kill."""
    from repro.runtime.watchdog import WatchdogViolation
    from repro.serve import protocol
    from repro.serve.pool import WorkerDeath

    job = {
        "op": "isolated_call",
        "backend": "cpp",
        "program": name,
        "lib": lib_path,
        "sdfg": sdfg_json,
        "arrays": protocol.encode_arrays(arrays),
        "symbols": {s: int(v) for s, v in symbols.items()},
    }
    try:
        faultpoint("isolation.spawn", sdfg=name)
        pool = harness()
        while True:
            pool.start()  # refill after a failed respawn
            resp = pool.submit(job, math.inf if timeout is None else timeout)
            if resp["status"] != "rejected":  # else: worker still busy
                break
    except (OSError, WorkerDeath) as err:
        # The call never ran and the arrays are untouched: a
        # contained crash, not a host-process error.
        raise BackendCrashError(
            f"isolated cpp call could not be dispatched: {err}", sdfg=name
        ) from err
    if resp["status"] == "ok":
        for a, out in protocol.decode_arrays(resp["arrays"]).items():
            np.copyto(arrays[a], out)
        return
    if resp["code"] == "R805":
        raise WatchdogViolation(
            f"isolated cpp execution exceeded deadline of {timeout:g}s "
            "and was killed",
            sdfg=name,
            kind="deadline",
        )
    raise BackendCrashError(
        f"isolated cpp call failed: {resp['message']}",
        sdfg=name,
        bundle=resp.get("bundle"),
        returncode=resp.get("returncode"),
    )

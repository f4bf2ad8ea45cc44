"""Crash-isolated execution of gcc-compiled SDFG artifacts.

A generated-and-compiled shared object is untrusted native code: a
codegen bug (or hostile ``code_global``) can segfault, abort, or spin —
and a ``ctypes`` call into it takes the host Python process down with
it.  On the "serving heavy traffic" path that is unacceptable, so the
cpp backend executes through a *subprocess harness*:

* the parent serializes the call's arrays and a small argument manifest
  into a scratch directory and spawns ``python -m
  repro.runtime.isolation <workdir>``;
* the child loads the shared object, runs the entry point, and writes
  the (in-place mutated) arrays back out;
* if the child dies on a signal or non-zero exit, the parent captures a
  *minimized repro bundle* — canonical SDFG JSON, the argument manifest
  (shapes/dtypes/symbol values, no array payloads), and the child's
  stderr — under ``REPRO_CRASH_DIR`` (default ``.repro_crashes``) and
  raises :class:`BackendCrashError` (code ``E201``), which the compiler
  turns into a degradation hop to the python backend;
* if the child outlives the watchdog deadline it is killed and the
  parent raises a ``R805`` :class:`~repro.runtime.watchdog.WatchdogViolation`.

Isolation is on by default for the cpp backend and can be switched off
with ``REPRO_ISOLATE=0`` (e.g. for benchmarking, where the ~10ms
process spawn and array round-trip matter).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np

from repro.chaos import faultpoint
from repro.diagnostics import DiagnosticError, Severity, make_diagnostic
from repro.store import write_bundle


class BackendCrashError(DiagnosticError):
    """The isolated backend process died (code ``E201``).

    The crash was *contained*: the host process and the caller's arrays
    are intact (the child worked on copies), so the call is safe to
    retry or degrade.  ``bundle`` points at the repro bundle, if one was
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


def isolate_from_env() -> bool:
    """``REPRO_ISOLATE`` knob; isolation defaults to on."""
    return os.environ.get("REPRO_ISOLATE", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


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


def write_crash_bundle(sdfg, manifest: Dict, stderr: str) -> Optional[str]:
    """Persist a minimized repro bundle; returns its path (None if the
    bundle itself could not be written — never masks the crash)."""
    from repro.sdfg.serialize import sdfg_to_json

    return write_bundle(
        crash_dir(),
        str(manifest.get("sdfg") or "sdfg"),
        manifest={k: v for k, v in manifest.items() if k != "lib"},
        files={
            "sdfg.json": sdfg_to_json(sdfg, canonical=True),
            "stderr.txt": stderr or "",
        },
        keep=crash_keep(),
        point="isolation.bundle_write",
        sdfg=manifest.get("sdfg"),
    )


def _repo_pythonpath() -> str:
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return src_root + (os.pathsep + existing if existing else "")


def run_isolated(
    sdfg,
    lib_path: str,
    arg_arrays: List[str],
    syms_order: List[str],
    arrays: Dict[str, np.ndarray],
    symbols: Dict[str, int],
    timeout: Optional[float] = None,
) -> None:
    """Execute one call of a compiled artifact in a child process.

    Mutates ``arrays`` in place on success, mirroring the direct ctypes
    path.  Raises :class:`BackendCrashError` on a contained crash and
    ``WatchdogViolation`` on a deadline kill.
    """
    from repro.runtime.watchdog import WatchdogViolation

    workdir = tempfile.mkdtemp(prefix=f"repro_iso_{sdfg.name}_")
    try:
        np.savez(
            os.path.join(workdir, "inputs.npz"),
            **{a: np.ascontiguousarray(arrays[a]) for a in arg_arrays},
        )
        manifest = {
            "sdfg": sdfg.name,
            "entry": sdfg.name,
            "lib": lib_path,
            "arrays": [
                {
                    "name": a,
                    "dtype": str(arrays[a].dtype),
                    "shape": list(arrays[a].shape),
                }
                for a in arg_arrays
            ],
            "symbols": {s: int(symbols[s]) for s in syms_order},
            "symbol_order": list(syms_order),
        }
        with open(os.path.join(workdir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)

        env = os.environ.copy()
        env["PYTHONPATH"] = _repo_pythonpath()
        cmd = [sys.executable, "-m", "repro.runtime.isolation", workdir]
        try:
            faultpoint("isolation.spawn", sdfg=sdfg.name)
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=timeout, env=env
            )
        except OSError as err:
            # Spawn failure (fork/exec denied, fd exhaustion): the call
            # never ran, arrays are untouched — a contained crash, not a
            # host-process error.
            raise BackendCrashError(
                f"isolated cpp backend could not be spawned: {err}",
                sdfg=sdfg.name,
            ) from err
        except subprocess.TimeoutExpired as err:
            stderr = err.stderr
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
            raise WatchdogViolation(
                f"isolated cpp execution exceeded deadline of {timeout:g}s "
                "and was killed",
                sdfg=sdfg.name,
                kind="deadline",
            ) from err
        if proc.returncode != 0:
            bundle = write_crash_bundle(
                sdfg, manifest, (proc.stderr or "") + (proc.stdout or "")
            )
            detail = (
                f"killed by signal {-proc.returncode}"
                if proc.returncode < 0
                else f"exit status {proc.returncode}"
            )
            raise BackendCrashError(
                f"isolated cpp backend crashed ({detail})"
                + (f"; repro bundle at {bundle}" if bundle else ""),
                sdfg=sdfg.name,
                bundle=bundle,
                returncode=proc.returncode,
            )
        with np.load(os.path.join(workdir, "outputs.npz")) as out:
            for a in arg_arrays:
                np.copyto(arrays[a], out[a])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# =====================================================================
# Child side: ``python -m repro.runtime.isolation <workdir>``
# =====================================================================


def _child_main(workdir: str) -> int:
    import ctypes

    from repro.codegen.cpp_gen import _CTYPE_MAP

    with open(os.path.join(workdir, "manifest.json")) as f:
        manifest = json.load(f)
    with np.load(os.path.join(workdir, "inputs.npz")) as data:
        arrays = {
            spec["name"]: np.ascontiguousarray(
                data[spec["name"]].astype(spec["dtype"], copy=False)
            )
            for spec in manifest["arrays"]
        }
    lib = ctypes.CDLL(manifest["lib"])
    fn = getattr(lib, manifest["entry"])
    fn.restype = None
    cargs = []
    for spec in manifest["arrays"]:
        ct = _CTYPE_MAP[spec["dtype"]]
        cargs.append(arrays[spec["name"]].ctypes.data_as(ctypes.POINTER(ct)))
    for s in manifest["symbol_order"]:
        cargs.append(ctypes.c_longlong(manifest["symbols"][s]))
    fn(*cargs)
    np.savez(os.path.join(workdir, "outputs.npz"), **arrays)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python -m repro.runtime.isolation <workdir>", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(_child_main(sys.argv[1]))

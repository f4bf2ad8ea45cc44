"""The persistent service worker (``python -m repro.serve.worker``).

One worker is one long-lived process owning the *unsafe* half of the
service: it validates, compiles, and executes tenant SDFGs **in
process** — it is the crash-isolation boundary.  If generated code
segfaults, the worker dies and the pool supervisor
(:mod:`repro.serve.pool`) respawns it and replays the request; the
daemon never executes tenant code itself.  Its supervisor-only
``isolated_call`` op serves :mod:`repro.runtime.isolation`'s harness.

Because the worker survives across requests it keeps warm state:

* an LRU of fully-built :class:`~repro.codegen.compiler.CompiledSDFG`
  artifacts keyed by the content hash and the request's
  :class:`~repro.codegen.options.CompileOptions` (resolved once per
  tenant and request fields) — a warm execute skips compile *and*
  ``exec`` *and* argument re-validation (the marshaling plan lives on
  the artifact);
* per-tenant :class:`~repro.codegen.progcache.ProgramCache` tiers
  (disk-backed under ``--cache-root``) so a recycled worker's
  replacement warms up from disk instead of from scratch;
* the C++ libraries ``isolated_call`` has dlopened.

Protocol: frames on binary stdin/stdout (see :mod:`repro.serve.protocol`):
a JSON header line, then the arrays' raw bytes.  A job's arrays are
decoded once as writable views of the buffer their bytes were read
into, the program runs on them in place, and the response sends views
of the same arrays back.  The worker re-points ``sys.stdout`` at stderr
right after startup so a stray ``print`` in tasklet code can never
corrupt the protocol stream.

Fault injection (``inject_fault`` request field) is honored only when
the supervisor starts the worker with ``--fault-injection`` — it exists
so the fault-tolerance suite and the CI load test can force genuine
worker deaths (``SIGSEGV``) and hangs without depending on a host C++
compiler.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import time
from collections import OrderedDict
from typing import Any, BinaryIO, Dict, Optional

from repro.chaos import ChaosFault, faultpoint
from repro.diagnostics import DiagnosticError
from repro.serve import protocol
from repro.telemetry.sink import active_sink

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

#: Max fully-built artifacts kept hot in one worker.
MAX_PROGRAMS = 32


def _rss_kb() -> Optional[int]:
    """Peak resident set size in KiB (None where unavailable), including
    any live parallel-tier fork workers this process spawned — they are
    separate processes the supervisor's recycling budget would otherwise
    never see."""
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    rss = int(usage // 1024) if sys.platform == "darwin" else int(usage)
    from repro.runtime.parallel import live_pool_rss_kb

    return rss + live_pool_rss_kb()


class WorkerRuntime:
    """Request dispatcher holding the warm state of one worker."""

    def __init__(self, cache_root: Optional[str] = None,
                 fault_injection: bool = False):
        self.cache_root = cache_root
        self.fault_injection = fault_injection
        #: (content_hash, CompileOptions) -> CompiledSDFG
        self._programs: "OrderedDict[tuple, Any]" = OrderedDict()
        #: (tenant, backend, sanitize, parallel) request fields -> their
        #: resolved CompileOptions, so a warm request reads no environment
        self._options: Dict[tuple, Any] = {}
        self._mem_caches: Dict[str, Any] = {}
        #: (library, entry) -> loaded entry point; lives until recycling
        self._libraries: Dict[tuple, Any] = {}
        self.served = 0
        self.started = time.monotonic()
        #: Drain cursor into this process's telemetry sink (the delta
        #: since the last response is attached to the next one).
        self._telemetry_cursor = 0

    # ----------------------------------------------------------- caches
    def _tenant_cache(self, tenant: str):
        from repro.codegen.progcache import ProgramCache, namespaced_cache

        if self.cache_root:
            return namespaced_cache(self.cache_root, tenant)
        cache = self._mem_caches.get(tenant)
        if cache is None:
            cache = self._mem_caches[tenant] = ProgramCache()
        return cache

    def _remember(self, key: tuple, compiled: Any) -> None:
        self._programs[key] = compiled
        self._programs.move_to_end(key)
        while len(self._programs) > MAX_PROGRAMS:
            _, evicted = self._programs.popitem(last=False)
            # The artifact may own a parallel worker pool; eviction is
            # the end of its life here, so tear the pool down instead of
            # leaking threads/fork children until GC gets around to it.
            try:
                evicted.close()
            except Exception:  # noqa: BLE001 - eviction must not fail a request
                pass

    # ---------------------------------------------------------- faults
    def _maybe_inject_fault(self, job: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        fault = job.get("inject_fault")
        if not fault:
            return None
        if not self.fault_injection:
            return protocol.error_response(
                "E202",
                "fault injection requested but this worker was not started "
                "with --fault-injection",
            )
        if fault == "segv":
            # A genuine fatal signal: the same death mode as a wild
            # pointer in generated native code.
            os.kill(os.getpid(), signal.SIGSEGV)
        elif fault == "exit":
            os._exit(70)
        elif fault == "hang":
            time.sleep(float(job.get("hang_seconds", 3600.0)))
        return protocol.error_response("E202", f"unknown inject_fault {fault!r}")

    # --------------------------------------------------------- handlers
    def handle(self, job: Dict[str, Any]) -> Dict[str, Any]:
        op = job.get("op")
        if op == "ping":
            from repro.runtime.parallel import live_pool_count, live_worker_pids

            return protocol.ok_response(
                op="pong", served=self.served, rss_kb=_rss_kb(),
                uptime=round(time.monotonic() - self.started, 6),
                pools=live_pool_count(),
                pool_workers=len(live_worker_pids()),
            )
        if op in ("compile", "execute", "isolated_call"):
            injected = self._maybe_inject_fault(job)
            if injected is not None:
                return injected
            try:
                if op == "isolated_call":
                    response = self._isolated_call(job)
                else:
                    response = self._compile_or_execute(job)
            except DiagnosticError as err:
                response = protocol.error_response(
                    err.code, str(err), op=op, served=self.served, rss_kb=_rss_kb()
                )
            except (TypeError, ValueError, KeyError) as err:
                # Bad arguments / malformed SDFG JSON: the request is at
                # fault, not the worker.
                response = protocol.error_response(
                    "E202", f"{type(err).__name__}: {err}", op=op,
                    served=self.served, rss_kb=_rss_kb(),
                )
            except Exception as err:  # noqa: BLE001 - the worker must not die quietly
                response = protocol.error_response(
                    "E204", f"{type(err).__name__}: {err}", op=op,
                    served=self.served, rss_kb=_rss_kb(),
                )
            return self._attach_telemetry(response)
        return protocol.error_response("E202", f"unknown worker op {op!r}")

    def _attach_telemetry(self, response: Dict[str, Any]) -> Dict[str, Any]:
        """Attach this process's telemetry delta to the response so the
        supervisor can republish it into the fleet sink."""
        sink = active_sink()
        if sink is None:
            return response
        events, self._telemetry_cursor, dropped = sink.drain(
            self._telemetry_cursor
        )
        if events:
            response["telemetry"] = [ev.to_json() for ev in events]
        if dropped:
            response["telemetry_dropped"] = dropped
        return response

    def _isolated_call(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """One call of a compiled C++ library for
        :func:`repro.runtime.isolation.run_isolated`: the job's arrays
        are decoded, passed to the entry point in sorted-name order and
        sent back in the response.  Supervisor-only (not in
        ``protocol.OPS``; daemon jobs are built field by field), so no
        tenant can make a worker dlopen a path it chose."""
        from repro.codegen.cpp_gen import call_entry, load_entry

        arrays = protocol.decode_arrays(job["arrays"])
        key = (job["lib"], job["program"])
        if key not in self._libraries:
            self._libraries[key] = load_entry(*key)
        call_entry(self._libraries[key], [arrays[name] for name in sorted(arrays)],
                   [v for _, v in sorted(job["symbols"].items())])
        self.served += 1
        return protocol.ok_response(op="isolated_call", served=self.served,
                                    rss_kb=_rss_kb(),
                                    arrays=protocol.encode_arrays(arrays))

    def _compile_or_execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        from repro.codegen.compiler import compile_with
        from repro.codegen.options import resolve_options
        from repro.sdfg.serialize import content_hash, sdfg_from_json

        op = job["op"]
        tenant = str(job.get("tenant", "default"))
        fields = (tenant, job.get("backend", "python"), job.get("sanitize"),
                  repr(job.get("parallel")))
        options = self._options.get(fields)
        if options is None:
            # An absent field falls back to this worker's environment, an
            # explicit one (including an explicit "off") wins.
            options = self._options[fields] = resolve_options(
                backend=fields[1],
                cache=self._tenant_cache(tenant),
                sanitize=fields[2],
                isolate=False,  # this worker IS the isolation boundary
                cache_namespace=tenant,
                parallel=job.get("parallel"),
            )

        sdfg_json = job.get("sdfg")
        program = job.get("program")
        if program is None and sdfg_json is None:
            return protocol.error_response("E202", "request carries neither 'sdfg' nor 'program'")

        sdfg = None
        if program is None:
            sdfg = sdfg_from_json(sdfg_json)
            program = content_hash(sdfg)
        key = (program, options)

        compiled = self._programs.get(key)
        warm = compiled is not None
        sink = active_sink()
        if sink is not None:
            sink.publish("cache", "artifacts",
                         fields={"event": "hit" if warm else "miss", "n": 1})
        if warm:
            self._programs.move_to_end(key)
        else:
            if sdfg is None and sdfg_json is None:
                # Execute-by-key from a client whose compile landed on a
                # different (or recycled) worker: ask it to resend.
                return protocol.error_response(
                    "E203",
                    f"program {program[:16]}… is not resident in this worker; "
                    "resend the request with the 'sdfg' body",
                    program=program,
                )
            if sdfg is None:
                sdfg = sdfg_from_json(sdfg_json)
            compiled = compile_with(sdfg, options)
            self._remember(key, compiled)

        self.served += 1
        base = dict(
            op=op,
            program=program,
            warm=warm,
            cache_hit=bool(getattr(compiled, "cache_hit", False)),
            backend=compiled.backend,
            served=self.served,
            rss_kb=_rss_kb(),
        )
        if op == "compile":
            return protocol.ok_response(**base)

        arrays = protocol.decode_arrays(job.get("arrays") or {})
        symbols = protocol.decode_symbols(job.get("symbols"))
        deadline = job.get("deadline")
        compiled.deadline = float(deadline) if deadline else None
        budget = job.get("memory_budget")
        compiled.memory_budget = int(budget) if budget else None

        start = time.perf_counter()
        compiled(**arrays, **symbols)
        runtime = time.perf_counter() - start

        if sink is not None:
            kernel = getattr(getattr(compiled, "sdfg", None), "name", None)
            sink.publish(
                "kernel", kernel or str(program)[:16], runtime,
                fields={"backend": compiled.backend, "warm": warm,
                        "tenant": tenant},
            )
            # Exemplar trace: ship the full instrumentation tree so the
            # aggregator can retain the slowest request per window.  Only
            # a profiled artifact's report is one: a deadline alone also
            # records, but only the watchdog's counters.
            report = compiled.last_report if compiled.records else None
            if report is not None and not report.is_empty():
                sink.publish(
                    "trace", kernel or str(program)[:16], runtime,
                    fields={"report": report.to_json(), "tenant": tenant,
                            "backend": compiled.backend},
                )

        findings = [
            f.to_json() if hasattr(f, "to_json") else str(f)
            for f in (compiled.last_findings or [])
        ]
        return protocol.ok_response(
            arrays=protocol.encode_arrays(arrays),
            runtime=round(runtime, 9),
            degradation=[
                {k: v for k, v in hop.items() if k != "message"}
                for hop in compiled.degradation
            ],
            findings=findings,
            **dict(base, backend=compiled.backend),
        )


# =====================================================================
# Entry point
# =====================================================================


def send_response(proto_out: BinaryIO, job: Dict[str, Any],
                  response: Dict[str, Any]) -> None:
    """Send one response, never letting an oversized payload kill us.

    A result can legitimately exceed ``MAX_MESSAGE_BYTES`` even when the
    request did not (e.g. a slim execute-by-program request whose output
    arrays inflate past the frame cap).  Dying here would make the
    supervisor replay the identical request into an identical death —
    answer with a compact structured error instead.
    """
    if "id" in job:
        response["id"] = job["id"]
    # Dying while writing a response is a real worker death mode (the
    # supervisor sees EOF, bundles, respawns, replays) — let kill/exit/
    # raise rules here propagate rather than answering structurally.
    faultpoint("worker.response_write", op=job.get("op"))
    try:
        protocol.send_message(proto_out, response,
                              protocol.frame_limit(job.get("op")))
    except protocol.ProtocolError as err:
        fallback = protocol.error_response(
            "E204",
            f"response for op {job.get('op')!r} exceeds the protocol frame "
            f"limit and was dropped ({err}); reduce the request's output "
            "size",
            op=job.get("op"),
            rss_kb=_rss_kb(),
        )
        if "id" in job:
            fallback["id"] = job["id"]
        protocol.send_message(proto_out, fallback)


def _protect_protocol_stream() -> BinaryIO:
    """Claim fd 1 for the protocol; stray prints go to stderr."""
    proto = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return proto


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="repro service worker (spawned by the pool supervisor)",
    )
    parser.add_argument("--cache-root", default=None,
                        help="root directory for per-tenant disk program caches")
    parser.add_argument("--fault-injection", action="store_true",
                        help="honor the inject_fault request field (tests)")
    args = parser.parse_args(argv)

    proto_out = _protect_protocol_stream()
    runtime = WorkerRuntime(cache_root=args.cache_root,
                            fault_injection=args.fault_injection)
    protocol.send_message(proto_out, {"ready": True, "pid": os.getpid()})

    stdin = sys.stdin.buffer
    while True:
        try:
            # The supervisor checked the job against its op's limit.
            job = protocol.recv_message(stdin, math.inf)
        except protocol.ProtocolError as err:
            protocol.send_message(
                proto_out, protocol.error_response(err.code, str(err))
            )
            if isinstance(err, protocol.FrameError):
                return 1  # out of step with the supervisor: retire
            continue
        if job is None:  # supervisor closed our stdin: clean retirement
            return 0
        try:
            # `kill`/`exit` rules die here (mid-request worker death,
            # contained by the supervisor); `raise`/`raise-io`/`delay`
            # surface as a structured error on the live worker.
            faultpoint("worker.request", op=job.get("op"))
        except (ChaosFault, OSError) as err:
            send_response(
                proto_out, job,
                protocol.error_response(
                    "E204", f"injected fault on request receipt: {err}",
                    op=job.get("op"),
                ),
            )
            continue
        send_response(proto_out, job, runtime.handle(job))


if __name__ == "__main__":
    raise SystemExit(main())

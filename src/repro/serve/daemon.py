"""The long-lived compile-and-execute daemon (``python -m repro.serve``).

Accepts framed requests (:mod:`repro.serve.protocol`: a JSON header
line, raw array bytes after it) from many concurrent clients over a local
socket (Unix domain by default, TCP on request), authenticates nothing —
it is a *local* service — but trusts nobody: every request passes
admission control before it may touch a worker, every worker is
expendable, and every failure maps to a stable diagnostic code.

Failure matrix (see DESIGN §11 for the full table):

=====================  =============  ===================================
event                   code           client-visible outcome
=====================  =============  ===================================
malformed request       ``E202``       ``status=error`` immediately
bad array spec          ``E202``       ``status=error``, connection closed
unknown program key     ``E203``       ``status=error``; resend with sdfg
worker SIGSEGV/OOM      ``E201``       replayed; ``error`` after retries
deadline (cooperative)  ``R805``       ``status=error``, worker survives
deadline (hang)         ``R805``       worker killed + respawned
breaker open            ``R807``       ``status=rejected`` + retry_after
in-flight cap           ``R806``       ``status=rejected`` + retry_after
budget exhausted        ``R808``       ``status=rejected`` + retry_after
pool saturated          ``R806``       ``status=rejected`` + retry_after
=====================  =============  ===================================

An admitted request runs with the options it asked for: overload is
refused at admission or by the saturated pool, never served degraded.

The daemon itself must never exit on a request's account: connection
handlers catch everything, the pool contains worker death, and admission
contains tenant abuse.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from typing import Any, Dict, Optional

from repro.chaos import ChaosFault, active_engine, faultpoint
from repro.runtime.isolation import crash_dir
from repro.runtime.watchdog import RetryPolicy
from repro.serve import protocol
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    TenantPolicy,
)
from repro.serve.pool import WorkerPool
from repro.telemetry.aggregate import WindowedAggregator
from repro.telemetry.sink import TelemetrySink, active_sink, install_sink

#: The longest path an ``AF_UNIX`` socket binds to (``sun_path`` less its NUL).
_UNIX_PATH_MAX = 107


class ServeConfig:
    """Everything the daemon needs, with test-friendly defaults."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        tcp: Optional[tuple] = None,
        workers: int = 2,
        recycle_after: int = 200,
        memory_budget_kb: Optional[int] = None,
        cache_root: Optional[str] = None,
        default_policy: Optional[TenantPolicy] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        retry: Optional[RetryPolicy] = None,
        fault_injection: bool = False,
        allow_shutdown: bool = True,
        health_interval: float = 10.0,
        telemetry: bool = True,
        telemetry_window: float = 60.0,
        telemetry_capacity: int = 4096,
        telemetry_windows: int = 15,
        drain_grace: float = 10.0,
        fsck_on_start: bool = True,
    ):
        self.socket_path = socket_path
        self.tcp = tcp
        self.workers = max(1, int(workers))
        self.recycle_after = recycle_after
        self.memory_budget_kb = memory_budget_kb
        self.cache_root = cache_root
        self.default_policy = default_policy or TenantPolicy()
        self.policies = policies or {}
        self.retry = retry
        self.fault_injection = fault_injection
        self.allow_shutdown = allow_shutdown
        self.health_interval = health_interval
        self.telemetry = telemetry
        self.telemetry_window = max(1e-3, float(telemetry_window))
        self.telemetry_capacity = max(64, int(telemetry_capacity))
        self.telemetry_windows = max(1, int(telemetry_windows))
        self.drain_grace = max(0.0, float(drain_grace))
        self.fsck_on_start = fsck_on_start

    def resolve_address(self) -> tuple:
        """(family, address) — Unix socket unless TCP was requested."""
        if self.tcp is not None:
            return (socket.AF_INET, (self.tcp[0], int(self.tcp[1])))
        path = self.socket_path
        if not path:
            path = os.path.join(tempfile.mkdtemp(prefix="repro_serve_"), "serve.sock")
            if len(os.fsencode(path)) > _UNIX_PATH_MAX:
                # A deep temp dir: the socket would not bind there.
                os.rmdir(os.path.dirname(path))
                path = os.path.join(
                    tempfile.mkdtemp(prefix="repro_serve_", dir="/tmp"), "serve.sock"
                )
            self.socket_path = path
        return (socket.AF_UNIX, path)


class SDFGServer:
    """Threaded accept loop + per-connection request handlers."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        # The fleet event bus: daemon-side producers (admission, pool,
        # request accounting) publish into this sink explicitly, and the
        # workers' process-local sinks are propagated into it by the
        # pool, so one aggregator sees the whole fleet.  From start() to
        # stop() it is also the process sink, so producers that publish
        # through active_sink() (crash-bundle rotation, chaos faults)
        # reach it too.
        self.sink: Optional[TelemetrySink] = None
        #: The process sink start() displaced (it holds one entry
        #: while this server's sink is installed).
        self._displaced: list = []
        self.aggregator: Optional[WindowedAggregator] = None
        if self.config.telemetry:
            self.sink = TelemetrySink(capacity=self.config.telemetry_capacity)
            self.aggregator = WindowedAggregator(
                self.sink,
                window_seconds=self.config.telemetry_window,
                max_windows=self.config.telemetry_windows,
            )
        self.admission = AdmissionController(
            default_policy=self.config.default_policy,
            policies=self.config.policies,
            sink=self.sink,
        )
        self.pool = WorkerPool(
            size=self.config.workers,
            cache_root=self.config.cache_root,
            recycle_after=self.config.recycle_after,
            memory_budget_kb=self.config.memory_budget_kb,
            retry=self.config.retry,
            fault_injection=self.config.fault_injection,
            sink=self.sink,
        )
        self.started = time.monotonic()
        self._listener: Optional[socket.socket] = None
        self._threads: list = []
        self._stop = threading.Event()
        self._stopped = threading.Event()  # stop() has run to its end
        self._draining = threading.Event()
        self._wake = threading.Event()
        self._inflight_cv = threading.Condition()
        self._inflight_jobs = 0
        #: Set by :meth:`drain`: True when every in-flight request
        #: completed inside the grace window, False when some were
        #: abandoned, None when the server was stopped without draining.
        self.drained_clean: Optional[bool] = None
        self.fsck_report: Optional[Dict[str, Any]] = None
        self._requests = {"total": 0, "ok": 0, "rejected": 0, "errors": 0}
        self._req_lock = threading.Lock()
        self.address: Optional[Any] = None
        self._socket_dir: Optional[str] = None

    # ---------------------------------------------------------- lifecycle
    def start(self) -> "SDFGServer":
        if self.sink is not None:
            # active_sink(), not install_sink()'s return: it resolves a
            # REPRO_TELEMETRY sink not yet made, which stop() restores.
            self._displaced.append(active_sink())
            install_sink(self.sink)
        private_socket = not (self.config.socket_path or self.config.tcp)
        family, address = self.config.resolve_address()
        if private_socket:  # in a directory made for it, which stop() removes
            self._socket_dir = os.path.dirname(address)
        if self.config.fsck_on_start:
            # Integrity sweep before any traffic: quarantine torn cache
            # entries and stale crash bundles a previous crash left.
            try:
                from repro.serve.fsck import fsck_sweep

                self.fsck_report = fsck_sweep(
                    cache_root=self.config.cache_root,
                    crash_root=crash_dir(),
                )
                if self.sink is not None and not self.fsck_report["clean"]:
                    self.sink.publish(
                        "lifecycle", "fsck",
                        fields={"repairs": self.fsck_report["repairs"]},
                    )
            except Exception:  # noqa: BLE001 - the sweep must not block boot
                self.fsck_report = None
        # Bind before any worker exists: an address that cannot be bound
        # (taken, or a path too long for AF_UNIX) fails with nothing to
        # undo but the listener and the socket directory.
        listener = socket.socket(family, socket.SOCK_STREAM)
        try:
            listener.settimeout(0.5)
            if family == socket.AF_UNIX:
                try:
                    os.unlink(address)
                except OSError:
                    pass
            else:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            listener.listen(64)
            self._listener = listener
            self.address = listener.getsockname() if family != socket.AF_UNIX else address
            self.pool.start()
            accept = threading.Thread(target=self._accept_loop, daemon=True,
                                      name="serve-accept")
            accept.start()
            self._threads.append(accept)
            keeper = threading.Thread(target=self._housekeeping_loop, daemon=True,
                                      name="serve-housekeeping")
            keeper.start()
            self._threads.append(keeper)
        except BaseException:
            # Stop the workers, close the listener, remove the socket and
            # the private directory made for it.
            listener.close()
            self.stop()
            raise
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        try:
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
            self.pool.close()
            for remove, path in ((os.unlink, self.config.socket_path),
                                 (os.rmdir, self._socket_dir)):
                if path:
                    try:
                        remove(path)
                    except OSError:
                        pass
        finally:
            try:
                previous = self._displaced.pop()
            except IndexError:  # never installed, or restored already
                pass
            else:
                if active_sink() is self.sink:  # not replaced meanwhile
                    install_sink(previous)
            self._stopped.set()

    def request_shutdown(self, grace: Optional[float] = None) -> None:
        """Begin a graceful drain (signal handlers, the shutdown op).

        Idempotent and non-blocking: the drain itself runs on a
        dedicated thread so a connection handler (or a signal frame) is
        never the thread waiting on its own request to finish.
        """
        with self._inflight_cv:
            if self._draining.is_set() or self._stop.is_set():
                return
            self._draining.set()
        self._wake.set()
        threading.Thread(
            target=self.drain, args=(grace,), daemon=True, name="serve-drain"
        ).start()

    def drain(self, grace: Optional[float] = None) -> bool:
        """Stop accepting, wait (bounded) for in-flight work, then stop.

        Returns True when nothing was dropped: every request that had
        been admitted before the drain began got its response.
        """
        grace = self.config.drain_grace if grace is None else max(0.0, grace)
        with self._inflight_cv:
            self._draining.set()
        # New connections stop here; established connections live on so
        # in-flight responses (and R809 rejections) can be written.
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.monotonic() + grace
        with self._inflight_cv:
            while self._inflight_jobs > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cv.wait(min(remaining, 0.2))
            abandoned = self._inflight_jobs
        self.drained_clean = abandoned == 0
        if self.sink is not None:
            self.sink.publish(
                "lifecycle", "drain",
                fields={"clean": self.drained_clean, "abandoned": abandoned},
            )
        self.stop()
        return self.drained_clean

    def __enter__(self) -> "SDFGServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the CLI entry point's main loop).

        A ``KeyboardInterrupt`` (or anything that called
        :meth:`request_shutdown`) drains gracefully rather than dropping
        in-flight requests on the floor.
        """
        try:
            while not self._stop.is_set():
                self._wake.wait(0.2)
                self._wake.clear()
        except KeyboardInterrupt:
            self.drain()
        finally:
            if not self._stop.is_set():
                self.stop()
            # A drain thread may still be inside stop(): the pool's
            # workers and their stderr files go before this returns.
            self._stopped.wait()

    # -------------------------------------------------------------- loops
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            handler.start()

    def _housekeeping_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval):
            try:
                self.pool.health_check()
            except Exception:  # noqa: BLE001 - housekeeping must not die
                continue

    # -------------------------------------------------------- connections
    def _handle_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        if conn.family != socket.AF_UNIX:
            # A frame is one sendmsg, but a large one leaves in several
            # segments: do not let Nagle hold its tail back for an ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = conn.makefile("rb")
        try:
            while not self._stop.is_set():
                try:
                    faultpoint("daemon.frame_read")
                    request = protocol.recv_message(stream)
                except protocol.ProtocolError as err:
                    protocol.send_message(
                        conn, protocol.error_response(err.code, str(err))
                    )
                    if isinstance(err, protocol.FrameError):
                        return  # an untrusted trailer cannot be skipped
                    continue
                except ChaosFault as err:
                    # The read path itself failed; the frame (if any) is
                    # unrecoverable — answer structurally and keep the
                    # connection.
                    protocol.send_message(
                        conn, protocol.error_response("E204", str(err))
                    )
                    continue
                if request is None:
                    return
                response = self._dispatch(request)
                if "id" in request:
                    response["id"] = request["id"]
                try:
                    faultpoint("daemon.frame_write")
                except ChaosFault:
                    # Simulated dead client socket: drop the connection
                    # exactly as a genuine EPIPE would.
                    return
                protocol.send_message(conn, response)
                if request.get("op") == "shutdown" and response.get("status") == "ok":
                    self.request_shutdown()
                    return
        except (OSError, ValueError):
            return  # client went away; never the daemon's problem
        finally:
            try:
                stream.close()
                conn.close()
            except OSError:
                pass

    # ----------------------------------------------------------- dispatch
    def _count(self, status: str) -> None:
        with self._req_lock:
            self._requests["total"] += 1
            if status == "ok":
                self._requests["ok"] += 1
            elif status == "rejected":
                self._requests["rejected"] += 1
            else:
                self._requests["errors"] += 1

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            request = protocol.validate_request(request)
        except protocol.ProtocolError as err:
            self._count("error")
            return protocol.error_response(err.code, str(err))
        op = request["op"]
        try:
            if op == "ping":
                self._count("ok")
                return protocol.ok_response(op="pong", uptime=self.uptime())
            if op == "stats":
                self._count("ok")  # before the snapshot: stats count themselves
                return protocol.ok_response(op="stats", **self.stats())
            if op == "metrics":
                if self.aggregator is None:
                    self._count("error")
                    return protocol.error_response(
                        "E202", "telemetry is disabled on this server"
                    )
                self._count("ok")
                return protocol.ok_response(
                    op="metrics", metrics=self.aggregator.snapshot()
                )
            if op == "shutdown":
                if not self.config.allow_shutdown:
                    self._count("error")
                    return protocol.error_response(
                        "E202", "shutdown is disabled on this server"
                    )
                self._count("ok")
                return protocol.ok_response(op="shutdown")
            # Job ops (compile/execute): refused once draining; counted
            # in-flight otherwise so the drain can wait for them.  The
            # check and the increment share the condition's lock, so a
            # request is either visibly in flight or R809-rejected —
            # never silently dropped mid-drain.
            with self._inflight_cv:
                if self._draining.is_set():
                    self._count("rejected")
                    return protocol.rejected_response(
                        "R809",
                        "server is draining: no new work is being "
                        "accepted; retry against a live instance",
                        retry_after=1.0,
                    )
                self._inflight_jobs += 1
            try:
                return self._serve_job(request)
            finally:
                with self._inflight_cv:
                    self._inflight_jobs -= 1
                    self._inflight_cv.notify_all()
        except Exception as err:  # noqa: BLE001 - the daemon never dies for a request
            self._count("error")
            return protocol.error_response(
                "E204", f"internal error: {type(err).__name__}: {err}"
            )

    def _publish_request(self, op: str, tenant: str, status: str,
                         code: Optional[str] = None) -> None:
        if self.sink is not None:
            self.sink.publish(
                "request", op,
                fields={"tenant": tenant, "status": status, "code": code},
            )

    def _publish_job_events(self, response: Dict[str, Any], tenant: str) -> None:
        """The worker-side events of a job, derived from its response:
        one ``cache:artifacts`` lookup wherever the worker got as far as
        its artifact table (``warm``), and one ``kernel`` timing per
        executed call (``runtime``)."""
        if self.sink is None or "warm" not in response:
            return
        warm = bool(response["warm"])
        self.sink.publish("cache", "artifacts",
                          fields={"event": "hit" if warm else "miss", "n": 1})
        if "runtime" in response:
            self.sink.publish(
                "kernel", response["kernel"], float(response["runtime"]),
                fields={"backend": response.get("backend"), "warm": warm,
                        "tenant": tenant},
            )

    def _serve_job(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = request.get("tenant", "default")
        deadline = self.admission.clamp_deadline(tenant, request.get("deadline"))

        # Gate: fast rejection without touching the pool.
        try:
            ticket = self.admission.admit(tenant, deadline)
        except AdmissionError as err:
            self._count("rejected")
            self._publish_request(request["op"], tenant, "rejected",
                                  code=err.code)
            return protocol.rejected_response(
                err.code, str(err), retry_after=err.retry_after, tenant=tenant
            )

        job = {
            "op": request["op"],
            "tenant": tenant,
            "backend": request.get("backend", "python"),
            "sdfg": request.get("sdfg"),
            "program": request.get("program"),
            "arrays": request.get("arrays"),
            "symbols": request.get("symbols"),
            "sanitize": request.get("sanitize"),
            "deadline": deadline,
            "memory_budget": request.get("memory_budget"),
        }
        if request.get("inject_fault"):
            job["inject_fault"] = request["inject_fault"]
            if request.get("hang_seconds"):
                job["hang_seconds"] = request["hang_seconds"]
        job = {k: v for k, v in job.items() if v is not None}

        start = time.monotonic()
        response = None
        try:
            response = self.pool.submit(job)
        finally:
            cost = time.monotonic() - start
            failure_code = (
                response.get("code")
                if response is not None and response.get("status") != "ok"
                else None
            )
            ticket.complete(cost_seconds=cost, failure_code=failure_code)

        response["tenant"] = tenant
        self._publish_job_events(response, tenant)
        self._count(response.get("status", "error"))
        self._publish_request(
            request["op"], tenant, response.get("status", "error"),
            code=response.get("code"),
        )
        return response

    # --------------------------------------------------------------- info
    def uptime(self) -> float:
        return round(time.monotonic() - self.started, 6)

    def stats(self) -> Dict[str, Any]:
        with self._req_lock:
            requests = dict(self._requests)
        engine = active_engine()
        return {
            "uptime": self.uptime(),
            "draining": self._draining.is_set(),
            "chaos": engine.snapshot() if engine is not None else None,
            "fsck": self.fsck_report,
            "requests": requests,
            "pool": self.pool.stats(),
            "admission": self.admission.stats(),
            "breaker_transitions": [
                list(t) for t in self.admission.breakers.transitions[-50:]
            ],
            "telemetry": self.sink.stats() if self.sink is not None else None,
        }

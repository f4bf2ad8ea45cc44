"""Blocking client for the compile-and-execute service.

Usage::

    with ServeClient(socket_path="/tmp/repro.sock", tenant="alice") as c:
        c.compile(sdfg)                      # warm the service
        out = c.execute(sdfg, arrays={"A": a, "B": b}, symbols={"N": 64})
        a[:] = out["arrays"]["A"]            # the arrays the SDFG writes

The client is deliberately thin: one socket, one request in flight,
structured responses passed through verbatim.  Arrays travel as raw
bytes after each message's JSON header line
(:mod:`repro.serve.protocol`): a request carries every array the caller
passes, read straight out of the caller's arrays, and a response
carries only the arrays the SDFG writes, each a writable view of the
received buffer.  The only smarts it has is
the ``E203`` dance — if an execute-by-key lands on a worker that does
not hold the program (fresh respawn, recycled worker), the client
transparently resends the request with the full SDFG body attached.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, Optional

import numpy as np

from repro.serve import protocol


class ServeError(RuntimeError):
    """Raised by the strict helpers when the service reports a failure."""

    def __init__(self, response: Dict[str, Any]):
        self.response = response
        self.code = response.get("code")
        self.retry_after = response.get("retry_after")
        super().__init__(
            f"[{self.code or response.get('status')}] "
            f"{response.get('message', 'service request failed')}"
        )


class ServeTimeout(ServeError):
    """A client-side socket deadline expired (code ``E205``).

    The *request* may still be executing on the daemon — only this
    client gave up waiting — so the fault is retryable, but this
    connection is unusable (a late response would desynchronize the
    request/response pairing); open a fresh :class:`ServeClient`.
    """

    def __init__(self, phase: str, seconds: Optional[float]):
        bound = f"{seconds:g}s" if seconds is not None else "its"
        super().__init__({
            "status": "error",
            "code": "E205",
            "retryable": True,
            "message": f"client-side {phase} deadline of {bound} expired; "
                       "the daemon may still be processing the request",
        })


class ServeClient:
    """One connection to an :class:`~repro.serve.daemon.SDFGServer`."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        tcp: Optional[tuple] = None,
        tenant: str = "default",
        timeout: Optional[float] = 60.0,
        read_timeout: Optional[float] = None,
    ):
        """``timeout`` bounds the *connect*; ``read_timeout`` (default
        off) bounds each response wait, so a wedged daemon cannot block
        the caller forever — it raises a retryable ``E205``
        :class:`ServeTimeout` instead."""
        if (socket_path is None) == (tcp is None):
            raise ValueError("pass exactly one of socket_path= or tcp=")
        self.tenant = tenant
        self.read_timeout = read_timeout
        self._broken = False
        self._ids = itertools.count(1)
        try:
            if socket_path is not None:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(socket_path)
            else:
                self._sock = socket.create_connection(
                    (tcp[0], int(tcp[1])), timeout=timeout
                )
        except TimeoutError as err:
            raise ServeTimeout("connect", timeout) from err
        self._sock.settimeout(read_timeout)
        if tcp is not None:
            # A large frame leaves in several segments; no Nagle stall.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")

    # ------------------------------------------------------------ plumbing
    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw request and block for its response."""
        if self._broken:
            raise ConnectionError(
                "connection unusable after a client-side timeout (E205) or "
                "a malformed response frame; open a new ServeClient"
            )
        payload = dict(payload)
        payload.setdefault("v", protocol.PROTOCOL_VERSION)
        payload.setdefault("tenant", self.tenant)
        payload.setdefault("id", next(self._ids))
        try:
            protocol.send_message(self._sock, payload)
            response = protocol.recv_message(self._stream)
        except (socket.timeout, TimeoutError) as err:
            # A late response would pair with the *next* request; the
            # connection is done.
            self._broken = True
            raise ServeTimeout("read", self.read_timeout) from err
        except protocol.FrameError:
            self._broken = True  # out of step with the server's frames
            raise
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    def close(self) -> None:
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ protocol
    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def metrics(self) -> Dict[str, Any]:
        """One telemetry aggregate snapshot (``metrics`` field of the
        response); errors when the server runs with telemetry off."""
        return self.request({"op": "metrics"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})

    def _job(self, op: str, sdfg=None, **options: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": op}
        if sdfg is not None:
            payload["sdfg"] = (
                sdfg if isinstance(sdfg, dict) else sdfg.to_json()
            )
        for key, value in options.items():
            if value is not None:
                payload[key] = value
        return payload

    def compile(
        self,
        sdfg: Any,
        backend: str = "python",
        sanitize: Any = None,
        strict: bool = True,
        **options: Any,
    ) -> Dict[str, Any]:
        """Compile ``sdfg`` on the service; returns the response payload.

        The response's ``program`` field is the content hash — pass it as
        ``program=`` to :meth:`execute` to skip re-serializing the SDFG.
        """
        response = self.request(
            self._job("compile", sdfg, backend=backend, sanitize=sanitize,
                      **options)
        )
        if strict and response.get("status") != "ok":
            raise ServeError(response)
        return response

    def execute(
        self,
        sdfg: Any = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        symbols: Optional[Dict[str, int]] = None,
        program: Optional[str] = None,
        backend: str = "python",
        deadline: Optional[float] = None,
        sanitize: Any = None,
        strict: bool = True,
        decode: bool = True,
        **options: Any,
    ) -> Dict[str, Any]:
        """Execute on the service.  The request carries ``arrays`` by
        value; the response's ``arrays`` holds the ones the SDFG writes
        (its ``write_set``), with their results.

        On ``E203`` (program not resident — e.g. the worker that compiled
        it died and was respawned) the request is resent once with the
        full SDFG body, provided ``sdfg`` was given.
        """
        payload = self._job(
            "execute",
            None if program else sdfg,
            program=program,
            backend=backend,
            deadline=deadline,
            sanitize=sanitize,
            arrays=protocol.encode_arrays(arrays or {}),
            symbols=symbols,
            **options,
        )
        response = self.request(payload)
        if response.get("code") == "E203" and sdfg is not None:
            resend = dict(payload)
            resend["sdfg"] = sdfg if isinstance(sdfg, dict) else sdfg.to_json()
            resend.pop("id", None)
            response = self.request(resend)
            response["resent"] = True
        if strict and response.get("status") != "ok":
            raise ServeError(response)
        if decode and response.get("status") == "ok" and "arrays" in response:
            response["arrays"] = protocol.decode_arrays(response["arrays"])
        return response

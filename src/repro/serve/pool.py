"""Crash-isolated warm worker pool (the one out-of-process supervisor).

A fixed set of **persistent** workers (:mod:`repro.serve.worker`) each
own warm compiled programs (or, for the isolated cpp harness of
:mod:`repro.runtime.isolation`, loaded libraries), and the supervisor in
this module owns their lifecycle.  Served requests and isolated cpp
calls share it: one worker spawn site, one deadline-kill path, one
stderr capture and one crash-bundle writer.  Jobs and responses cross
the worker's stdin/stdout pipes as :mod:`repro.serve.protocol` frames
(a JSON header line, raw array bytes after it); the supervisor writes
them with ``protocol.send_message`` and reads them with
``protocol.recv_message`` over a buffered reader of the worker's stdout
that enforces the request deadline, and never parses the format itself,
so a daemon forwards a client's array bytes to a worker without building
an ndarray.

* **health checks** — a ready handshake at spawn, on-demand pings;
* **recycling** — a worker is gracefully retired after ``recycle_after``
  requests or once its RSS, read from ``/proc/<pid>/statm`` after each
  response while a budget is set, crosses ``memory_budget_kb``
  (long-lived processes executing tenant code leak; bounded lifetimes
  turn that from an outage into a blip);
* **crash containment** — a worker dying mid-request (SIGSEGV from
  generated code, OOM kill) is detected by stream EOF, a repro bundle
  (job manifest + worker stderr) is written under ``REPRO_CRASH_DIR``,
  the worker is respawned, and the request is **replayed** with the
  jittered :class:`~repro.runtime.watchdog.RetryPolicy` backoff —
  replay is always semantically safe because workers mutate their own
  copies of the request arrays;
* **hang containment** — a worker that blows through the request's
  wall-clock backstop is killed and the caller gets a structured
  ``R805`` error (no replay: deadline violations are not retryable).

The pool never raises for request-level faults — every outcome is a
protocol response payload, so a noisy tenant cannot take the dispatch
thread down with it.
"""

from __future__ import annotations

import fcntl
import io
import math
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from queue import Empty, Queue
from typing import Any, Dict, List, Optional

from repro.chaos import ChaosFault, faultpoint
from repro.runtime.isolation import DEFAULT_CRASH_KEEP, crash_dir
from repro.runtime.watchdog import RetryPolicy
from repro.serve import protocol
from repro.serve.worker import rss_kb
from repro.store import write_bundle
from repro.telemetry.sink import TelemetryEvent, TelemetrySink

#: Seconds granted to a worker for its ready handshake.
DEFAULT_SPAWN_TIMEOUT = 30.0

#: Capacity asked for each worker pipe (Linux grants up to
#: ``/proc/sys/fs/pipe-max-size``, 1 MiB by default).
PIPE_BYTES = 1 << 20

#: Backstop applied when a request carries no deadline of its own.
DEFAULT_REQUEST_TIMEOUT = 120.0


class WorkerDeath(Exception):
    """The worker process died mid-request (contained; retryable)."""

    def __init__(self, message: str, returncode: Optional[int] = None,
                 stderr_tail: str = ""):
        super().__init__(message)
        self.returncode = returncode
        self.stderr_tail = stderr_tail


class WorkerTimeout(Exception):
    """The worker blew the wall-clock backstop (killed; not retryable)."""


class _DeadlinePipe(io.RawIOBase):
    """A worker's stdout as a raw stream under the current request's
    deadline: each read first waits in ``select`` and raises
    :class:`WorkerTimeout` once ``deadline`` passes, ``EOFError`` at EOF.
    It does not own the fd (``proc.stdout`` does)."""

    def __init__(self, fd: int, worker: str):
        self.fd = fd
        self.worker = worker
        self.deadline: Optional[float] = None

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        while True:
            remaining = None
            if self.deadline is not None:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerTimeout(f"{self.worker} exceeded the request backstop")
            if select.select([self.fd], [], [], remaining)[0]:
                break
        got = os.readv(self.fd, [buf])
        if not got:
            raise EOFError
        return got


class WorkerHandle:
    """One supervised worker subprocess and its protocol streams."""

    _seq = 0

    def __init__(self, cache_root: Optional[str], fault_injection: bool,
                 spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
                 sink: Optional[TelemetrySink] = None):
        WorkerHandle._seq += 1
        self.name = f"worker-{WorkerHandle._seq}"
        self.served = 0
        self.sink = sink
        self._stderr_file = tempfile.NamedTemporaryFile(
            mode="w+b", prefix="repro_worker_", suffix=".stderr", delete=False
        )
        cmd = [sys.executable, "-m", "repro.serve.worker"]
        if cache_root:
            cmd += ["--cache-root", cache_root]
        if fault_injection:
            cmd.append("--fault-injection")
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")]))
        env["PYTHONUNBUFFERED"] = "1"
        if sink is not None:
            # Workers collect into their own process-local ring and
            # attach the delta to each response, so the fleet sink sees
            # worker-side kernel timings and cache traffic.
            env["REPRO_TELEMETRY"] = "1"
        try:
            self.proc = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr_file,
                bufsize=0,
                env=env,
            )
        except OSError as err:  # fork/exec denied, fd exhaustion
            self._cleanup_stderr()
            raise WorkerDeath(f"{self.name} could not be spawned: {err}") from err
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:  # a whole frame per write: no ping-pong at 64 KiB
                fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except (AttributeError, OSError):  # not Linux, or over a limit
                pass
        self._pipe = _DeadlinePipe(self.proc.stdout.fileno(), self.name)
        self._reader = io.BufferedReader(self._pipe, 1 << 16)
        try:
            # `kill` here SIGKILLs the fresh child (spawn-then-die);
            # `raise`/`raise-io` model fork/exec level failures.  Either
            # way the death is contained as a WorkerDeath.
            faultpoint("pool.worker_spawn", child=self.proc.pid,
                       worker=self.name)
            ready = self._read_message(time.monotonic() + spawn_timeout)
        except (ChaosFault, OSError) as err:
            self.kill()
            raise WorkerDeath(
                f"{self.name} spawn aborted: {err}",
                returncode=self.proc.poll(),
                stderr_tail=self.stderr_tail(),
            ) from err
        except BaseException:
            # A handshake death or timeout: no handle leaves this
            # constructor, so nothing else would reap the child or
            # remove its stderr file.
            self.kill()
            raise
        if not (isinstance(ready, dict) and ready.get("ready")):
            self.kill()
            raise WorkerDeath(
                f"{self.name} failed its ready handshake",
                returncode=self.proc.poll(),
                stderr_tail=self.stderr_tail(),
            )
        self.pid = ready.get("pid", self.proc.pid)

    # ------------------------------------------------------------ streams
    def _read_message(self, deadline: Optional[float],
                      limit: Optional[float] = None) -> Dict[str, Any]:
        """Read one protocol frame with a wall-clock deadline."""
        self._pipe.deadline = deadline
        try:
            message = protocol.recv_message(self._reader, limit)
        except EOFError:
            message = None
        except protocol.ProtocolError as err:
            raise WorkerDeath(
                f"{self.name} wrote junk on its protocol stream: {err}",
                returncode=self.proc.poll(),
                stderr_tail=self.stderr_tail(),
            ) from err
        if message is None:
            raise WorkerDeath(
                f"{self.name} died (EOF on protocol stream)",
                returncode=self._exit_code(),
                stderr_tail=self.stderr_tail(),
            )
        return message

    def request(self, job: Dict[str, Any], timeout: Optional[float]) -> Dict[str, Any]:
        """Send one job and await its response."""
        op = job.get("op")
        limit = protocol.frame_limit(op)
        if op == "isolated_call":
            # The harness worker never reads the SDFG; the caller's job
            # keeps it for the crash bundle.
            job = {k: v for k, v in job.items() if k != "sdfg"}
        try:
            protocol.send_message(self.proc.stdin, job, limit)
        except protocol.ProtocolError as err:
            # Refused before a byte was written: the worker is untouched.
            return protocol.error_response(err.code, str(err))
        except OSError as err:
            raise WorkerDeath(
                f"{self.name} died before accepting the request",
                returncode=self._exit_code(),
                stderr_tail=self.stderr_tail(),
            ) from err
        deadline = None
        if timeout is not None and math.isfinite(timeout):
            deadline = time.monotonic() + timeout
        resp = self._read_message(deadline, limit)
        self.served = int(resp.get("served", self.served) or self.served)
        self._propagate_telemetry(resp)
        return resp

    def _propagate_telemetry(self, resp: Dict[str, Any]) -> None:
        """Republish the worker's attached telemetry delta (original
        timestamps preserved) into the supervisor's fleet sink.  A warm
        execute attaches none: the daemon derives its cache and kernel
        events from the response itself."""
        events = resp.pop("telemetry", None)
        if self.sink is None or not isinstance(events, list):
            return
        for item in events:
            if not (isinstance(item, list) and len(item) == 5):
                continue
            ts, kind, label, value, fields = item
            try:
                self.sink.publish(
                    str(kind), str(label),
                    None if value is None else float(value),
                    ts=float(ts),
                    fields=TelemetryEvent.fields_from_json(fields),
                )
            except (TypeError, ValueError):
                continue
        dropped = resp.pop("telemetry_dropped", None)
        if dropped:
            self.sink.publish("drop", self.name, float(dropped))

    def ping(self, timeout: float = 5.0) -> bool:
        try:
            resp = self.request({"op": "ping"}, timeout)
            return resp.get("status") == "ok"
        except (WorkerDeath, WorkerTimeout):
            return False

    # ---------------------------------------------------------- lifecycle
    def _exit_code(self, timeout: float = 2.0) -> Optional[int]:
        """The worker's exit status after a death was observed.

        EOF on the protocol stream can precede the exit status becoming
        visible (the pipe closes before the process is reaped), so a
        bare ``poll()`` here races to ``None``; wait briefly instead.
        """
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.proc.poll()

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self, grace: float = 2.0) -> None:
        """Graceful retirement: EOF on the worker's stdin (it exits once
        the jobs already sent are answered), then SIGKILL after
        ``grace``.  Closing the pipe never blocks, so a wedged worker
        that stopped draining its stdin cannot hold this thread past
        the grace."""
        if self.alive():
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.kill()
        self._release()

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self._release()

    def stderr_tail(self, limit: int = 8192) -> str:
        try:
            self._stderr_file.flush()
            with open(self._stderr_file.name, "rb") as f:
                f.seek(0, os.SEEK_END)
                size = f.tell()
                f.seek(max(0, size - limit))
                return f.read().decode(errors="replace")
        except OSError:
            return ""

    def _release(self) -> None:
        """Close the protocol pipes and their reader (left to GC they
        warn, one ``ResourceWarning`` per worker) and remove the stderr
        capture."""
        for pipe in (self._reader, self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (OSError, ValueError):
                pass
        self._cleanup_stderr()

    def _cleanup_stderr(self) -> None:
        try:
            self._stderr_file.close()
        except OSError:
            pass
        try:
            os.unlink(self._stderr_file.name)
        except OSError:
            pass


def write_crash_bundle(job: Dict[str, Any], death: WorkerDeath) -> Optional[str]:
    """Minimized repro bundle for a worker death (no array payloads, no
    host paths), named after the job's tenant, else its program.
    raise-io/enospc at ``pool.crash_bundle`` loses the bundle, but the
    death is still surfaced to the caller (E201 without a bundle path)."""
    files: Dict[str, Any] = {"stderr.txt": death.stderr_tail or ""}
    if job.get("sdfg") is not None:
        files["sdfg.json"] = job["sdfg"]
    tenant = job.get("tenant")
    stem = f"serve_{tenant}" if tenant else str(job.get("program") or "serve")
    manifest = {
        "op": job.get("op"),
        "tenant": tenant,
        "backend": job.get("backend", "python"),
        "program": job.get("program"),
        "returncode": death.returncode,
        "arrays": {
            name: {"dtype": spec.get("dtype"), "shape": spec.get("shape")}
            for name, spec in (job.get("arrays") or {}).items()
            if isinstance(spec, dict)
        },
        "symbols": job.get("symbols") or {},
    }
    return write_bundle(
        crash_dir(), stem, manifest=manifest, files=files, keep=DEFAULT_CRASH_KEEP,
        point="pool.crash_bundle", tenant=tenant,
    )


class WorkerPool:
    """Fixed-size pool of :class:`WorkerHandle` with supervised dispatch."""

    def __init__(
        self,
        size: int = 2,
        cache_root: Optional[str] = None,
        recycle_after: int = 200,
        memory_budget_kb: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        acquire_timeout: float = 30.0,
        fault_injection: bool = False,
        sink: Optional[TelemetrySink] = None,
    ):
        self.size = max(1, int(size))
        self.sink = sink
        self.cache_root = cache_root
        self.recycle_after = max(1, int(recycle_after))
        self.memory_budget_kb = memory_budget_kb
        #: Jitter is on by default here: N workers replaying against one
        #: flaky backend must not retry in lockstep.
        self.retry = retry if retry is not None else RetryPolicy(
            retries=1, backoff=0.05, jitter=0.5
        )
        self.acquire_timeout = acquire_timeout
        self.fault_injection = fault_injection
        self._idle: "Queue[WorkerHandle]" = Queue()
        self._lock = threading.Lock()
        self._workers: List[WorkerHandle] = []
        self._spawning = 0  # in-progress spawns (reserve a pool slot)
        self._closed = False
        self.stats_counters: Dict[str, int] = {
            "spawned": 0, "deaths": 0, "recycled": 0, "replays": 0,
            "timeouts": 0, "requests": 0, "saturated": 0,
        }
        self._in_flight = 0

    # ---------------------------------------------------------- lifecycle
    def start(self) -> "WorkerPool":
        """Spawn workers until the pool is full (spawns under way count)."""
        # Tolerate a bounded number of failed spawns (chaos-killed or
        # genuinely flaky children) so one bad handshake cannot keep the
        # whole service from booting.
        failures = 0
        while True:
            with self._lock:
                if self._closed or len(self._workers) + self._spawning >= self.size:
                    return self
            try:
                self._add_worker()
            except WorkerDeath:
                failures += 1
                if failures > self.size * 3 + 2:
                    raise

    def _publish_worker_event(self, handle: "WorkerHandle", event: str) -> None:
        if self.sink is not None:
            self.sink.publish("worker", handle.name, fields={"event": event})

    def _add_worker(self) -> None:
        # Reserve a slot first: a retire-path respawn and the health
        # check's heal loop can both observe a deficit concurrently, and
        # without the reservation each would fill it — growing the pool
        # past its configured size (a slow worker-process leak).
        with self._lock:
            if self._closed or len(self._workers) + self._spawning >= self.size:
                return
            self._spawning += 1
        try:
            handle = WorkerHandle(self.cache_root, self.fault_injection,
                                  sink=self.sink)
        except BaseException:
            with self._lock:
                self._spawning -= 1
            raise
        with self._lock:
            self._spawning -= 1
            closed = self._closed
            if not closed:
                self._workers.append(handle)
                self.stats_counters["spawned"] += 1
        if closed:  # close() ran during the spawn and never saw this one
            handle.stop()
            return
        self._publish_worker_event(handle, "spawn")
        self._idle.put(handle)

    def _retire(self, handle: WorkerHandle, *, kill: bool,
                counter: Optional[str] = None) -> None:
        with self._lock:
            if handle in self._workers:
                self._workers.remove(handle)
            if counter:
                self.stats_counters[counter] += 1
        if counter:
            self._publish_worker_event(
                handle, {"deaths": "death", "recycled": "recycle"}[counter]
            )
        if kill:
            handle.kill()
        else:
            handle.stop()
        if not self._closed:
            try:
                self._add_worker()
            except WorkerDeath:
                # The replacement failed its handshake; the next submit
                # that fails to acquire a worker will surface saturation.
                pass

    def close(self) -> None:
        self._closed = True
        with self._lock:
            workers = list(self._workers)
            self._workers.clear()
        for handle in workers:
            handle.stop()
        while True:
            try:
                self._idle.get_nowait()
            except Empty:
                break

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- health
    def health_check(self) -> int:
        """Ping every currently-idle worker; replace the unresponsive.
        Returns the number of workers replaced."""
        replaced = 0
        checked: List[WorkerHandle] = []
        while True:
            try:
                handle = self._idle.get_nowait()
            except Empty:
                break
            if handle.alive() and handle.ping():
                checked.append(handle)
            else:
                self._retire(handle, kill=True, counter="deaths")
                replaced += 1
        for handle in checked:
            self._idle.put(handle)
        # Heal the pool: failed respawns (in _retire, or chaos-killed
        # replacements) silently shrink it; top back up to size so a
        # fault storm cannot permanently reduce capacity.
        spawned = self.stats_counters["spawned"]
        try:
            self.start()
        except WorkerDeath:
            pass  # still failing; the next health tick retries
        return replaced + self.stats_counters["spawned"] - spawned

    # ----------------------------------------------------------- dispatch
    def _checkout(self) -> Optional[WorkerHandle]:
        deadline = time.monotonic() + self.acquire_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                handle = self._idle.get(timeout=min(remaining, 1.0))
            except Empty:
                continue
            if not handle.alive():
                self._retire(handle, kill=True, counter="deaths")
                continue
            return handle

    def _checkin(self, handle: WorkerHandle) -> None:
        over_requests = handle.served >= self.recycle_after
        over_memory = False
        if self.memory_budget_kb is not None and not over_requests:
            rss = rss_kb(handle.pid)  # the worker's own, from /proc
            over_memory = rss is not None and rss > self.memory_budget_kb
        if over_requests or over_memory:
            self._retire(handle, kill=False, counter="recycled")
        else:
            self._idle.put(handle)

    def submit(self, job: Dict[str, Any], timeout: Optional[float] = None) -> Dict[str, Any]:
        """Dispatch one job; always returns a protocol response payload.

        Worker deaths are contained: bundle, respawn, replay (with
        jittered backoff) up to ``retry.retries`` times, then a
        structured ``E201`` error.  Backstop timeouts kill the worker
        and yield ``R805`` without replay.
        """
        if timeout is None:
            try:
                deadline = float(job.get("deadline") or 0.0)
            except (TypeError, ValueError):
                deadline = 0.0
            timeout = (
                deadline + 10.0
                if math.isfinite(deadline) and deadline > 0
                else DEFAULT_REQUEST_TIMEOUT
            )
        with self._lock:
            self.stats_counters["requests"] += 1
        # A fault here fails the dispatch before any worker is touched;
        # the daemon's catch-all turns it into a structured E204.
        faultpoint("pool.dispatch", tenant=job.get("tenant"),
                   op=job.get("op"))
        attempt = 0
        last_bundle: Optional[str] = None
        while True:
            handle = self._checkout()
            if handle is None:
                with self._lock:
                    self.stats_counters["saturated"] += 1
                return protocol.rejected_response(
                    "R806",
                    f"worker pool saturated: no worker became available "
                    f"within {self.acquire_timeout:g}s",
                    retry_after=self.acquire_timeout,
                )
            with self._lock:
                self._in_flight += 1
            try:
                resp = handle.request(job, timeout)
            except WorkerDeath as death:
                with self._lock:
                    self.stats_counters["deaths"] += 1
                self._publish_worker_event(handle, "death")
                last_bundle = write_crash_bundle(job, death) or last_bundle
                self._retire(handle, kill=True)
                if attempt < self.retry.retries:
                    time.sleep(self.retry.delay(attempt))
                    attempt += 1
                    with self._lock:
                        self.stats_counters["replays"] += 1
                    self._publish_worker_event(handle, "replay")
                    continue  # the finally clause settles _in_flight
                detail = (
                    f"killed by signal {-death.returncode}"
                    if death.returncode is not None and death.returncode < 0
                    else f"exit status {death.returncode}"
                )
                return protocol.error_response(
                    "E201",
                    f"worker died while executing the request ({detail}) "
                    f"after {attempt + 1} attempt(s)"
                    + (f"; repro bundle at {last_bundle}" if last_bundle else ""),
                    attempts=attempt + 1,
                    bundle=last_bundle,
                    returncode=death.returncode,
                    retryable=True,
                )
            except WorkerTimeout:
                with self._lock:
                    self.stats_counters["timeouts"] += 1
                self._publish_worker_event(handle, "timeout")
                self._retire(handle, kill=True)
                return protocol.error_response(
                    "R805",
                    f"request exceeded its {timeout:g}s wall-clock backstop; "
                    "the worker was killed",
                    attempts=attempt + 1,
                )
            except BaseException:
                # Anything unexpected (bug, KeyboardInterrupt, ...): the
                # worker's stream state is unknown and the handle is
                # checked out — retire it so it can never leak, then let
                # the caller see the real failure.
                self._retire(handle, kill=True, counter="deaths")
                raise
            else:
                self._checkin(handle)
                if attempt:
                    resp.setdefault("replays", attempt)
                return resp
            finally:
                with self._lock:
                    self._in_flight -= 1

    # -------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out = dict(self.stats_counters)
            out["size"] = self.size
            out["alive"] = sum(1 for w in self._workers if w.alive())
            out["in_flight"] = self._in_flight
        return out

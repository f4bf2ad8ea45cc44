"""Multicore execution pool for the parallel map tier (ROADMAP item 3).

The generated-Python backend's ``parallel=`` tier chunks the iteration
domain of proof-carrying conflict-free maps (see
:func:`repro.sdfg.validation.analyze_map_parallelism`) across a
persistent worker pool owned by the :class:`~repro.codegen.compiler.
CompiledSDFG` that the lowering belongs to.  Two worker tiers:

* **thread** — a persistent :class:`~concurrent.futures.
  ThreadPoolExecutor`.  Right for NumPy/ufunc-dominated chunk bodies:
  the ufunc inner loops release the GIL, so chunks genuinely overlap.
  Disjoint output writes land directly in the caller's arrays (shared
  address space, no copy-back).
* **fork** — persistent fork()ed worker processes, for pure-Python loop
  bodies the GIL would serialize.  Workers inherit the generated module
  through fork (chunk functions are registered *before* the first
  fork), receive ``(fn, lo, hi, args)`` tasks over pipes, and send the
  chunk's written output slices / WCR partial accumulators back; the
  parent copies disjoint slices home and merges WCR partials at the
  barrier.

Both tiers share one calling convention: a chunk function receives the
half-open chunk ``[lo, hi)`` of the chunked parameter plus the
containers/symbols it needs, writes disjoint outputs in place, and
returns ``(copyback_views, wcr_partials)``.  The pool returns the
per-chunk results *in chunk order*, so WCR merges are deterministic for
a given chunk count.

Pools start lazily on the first parallel map execution and are torn
down by :meth:`MapWorkerPool.close` — called from
``CompiledSDFG.close()``/``__del__`` and when the serve worker's
artifact LRU evicts the owning program — plus an ``atexit`` sweep over
the live-pool registry.  :func:`live_pool_rss_kb` lets the serve
layer's RSS recycling budget account for nested fork workers.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos import faultpoint

__all__ = [
    "ParallelConfig",
    "MapWorkerPool",
    "ParallelRun",
    "live_pool_rss_kb",
    "live_pool_count",
    "live_worker_pids",
    "shutdown_all_pools",
]


# =====================================================================
# Configuration
# =====================================================================


class ParallelConfig:
    """Knobs of the parallel execution tier.

    ``workers`` is the target concurrency; ``tier`` selects the worker
    kind (``"auto"`` lets the lowering pick threads for vectorized
    bodies and forks for pure-Python loop bodies); ``chunks_per_worker``
    trades scheduling slack against merge overhead; ``min_chunk`` stops
    the partitioner from splitting domains too small to amortize
    dispatch.  All four are tunable through
    :class:`repro.tuning.cost.MeasuredCost` and surface in the program
    cache's variant key (different knobs generate different code).
    """

    __slots__ = ("workers", "tier", "chunks_per_worker", "min_chunk")

    TIERS = ("auto", "thread", "fork")

    def __init__(
        self,
        workers: int = 0,
        tier: str = "auto",
        chunks_per_worker: int = 1,
        min_chunk: int = 2,
    ):
        if workers <= 0:
            workers = os.cpu_count() or 1
        if tier not in self.TIERS:
            raise ValueError(f"unknown parallel tier {tier!r}; use one of {self.TIERS}")
        self.workers = int(workers)
        self.tier = tier
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        self.min_chunk = max(1, int(min_chunk))

    # ------------------------------------------------------------- identity
    def key_fragment(self) -> str:
        """Stable fragment for cache/variant keys."""
        return (
            f"w{self.workers}:{self.tier}:c{self.chunks_per_worker}"
            f":m{self.min_chunk}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "tier": self.tier,
            "chunks_per_worker": self.chunks_per_worker,
            "min_chunk": self.min_chunk,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "ParallelConfig":
        return ParallelConfig(
            workers=int(data.get("workers", 0)),
            tier=str(data.get("tier", "auto")),
            chunks_per_worker=int(data.get("chunks_per_worker", 1)),
            min_chunk=int(data.get("min_chunk", 2)),
        )

    @staticmethod
    def parse(spec: Any) -> Optional["ParallelConfig"]:
        """Coerce a user-facing ``parallel=`` value into a config.

        Accepted: ``None``/``False``/``0``/``""``/``"off"`` (disabled),
        ``True`` (all cores), an int worker count, a config instance, a
        dict of constructor fields, or a string ``"[tier:]workers"``
        (``"4"``, ``"thread:4"``, ``"fork:2"``).
        """
        if spec is None or spec is False:
            return None
        if isinstance(spec, ParallelConfig):
            return spec
        if spec is True:
            return ParallelConfig()
        if isinstance(spec, int):
            return ParallelConfig(workers=spec) if spec > 0 else None
        if isinstance(spec, dict):
            return ParallelConfig.from_json(spec)
        if isinstance(spec, str):
            text = spec.strip().lower()
            if text in ("", "0", "off", "false", "no", "none"):
                return None
            tier = "auto"
            if ":" in text:
                tier, _, text = text.partition(":")
            workers = int(text) if text not in ("", "auto") else 0
            return ParallelConfig(workers=workers, tier=tier)
        raise ValueError(f"cannot interpret parallel spec {spec!r}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ParallelConfig)
            and self.key_fragment() == other.key_fragment()
        )

    def __hash__(self) -> int:
        return hash(self.key_fragment())

    def __repr__(self) -> str:
        return f"ParallelConfig({self.key_fragment()})"


# =====================================================================
# Pool registry (teardown + RSS accounting for the serve layer)
# =====================================================================

_LIVE_POOLS: "weakref.WeakSet[MapWorkerPool]" = weakref.WeakSet()
_registry_lock = threading.Lock()


def _register(pool: "MapWorkerPool") -> None:
    with _registry_lock:
        _LIVE_POOLS.add(pool)


def live_pools() -> List["MapWorkerPool"]:
    with _registry_lock:
        return [p for p in _LIVE_POOLS if not p.closed]


def live_pool_count() -> int:
    """Number of live (not yet closed) pools in this process."""
    return len(live_pools())


def live_worker_pids() -> List[int]:
    """PIDs of all fork workers currently alive under this process."""
    pids: List[int] = []
    for pool in live_pools():
        pids.extend(pool.worker_pids())
    return pids


def _proc_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def live_pool_rss_kb() -> int:
    """Total resident set of all fork workers of all live pools.

    The serve worker adds this to its own RSS when reporting to the
    supervisor, so the recycling budget sees the *whole* process tree —
    a worker whose nested pools balloon is recycled like one whose own
    heap does.
    """
    return sum(_proc_rss_kb(pid) for pid in live_worker_pids())


def shutdown_all_pools() -> None:
    for pool in live_pools():
        pool.close()


atexit.register(shutdown_all_pools)


# =====================================================================
# Fork worker protocol
# =====================================================================

_LEN = struct.Struct("!Q")


def _send_obj(fd: int, obj: Any) -> None:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(fd, _LEN.pack(len(blob)))
    view = memoryview(blob)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _recv_exact(fd: int, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def _recv_obj(fd: int) -> Optional[Any]:
    head = _recv_exact(fd, _LEN.size)
    if head is None:
        return None
    body = _recv_exact(fd, _LEN.unpack(head)[0])
    if body is None:
        return None
    return pickle.loads(body)


class _ForkWorker:
    """One persistent forked worker process.

    The child inherits the parent's memory image — including the
    generated module and the pool's function registry — at fork time,
    so tasks can reference chunk functions by name instead of pickling
    them.  Input arrays ship pickled over the request pipe; the chunk's
    return value (written output slices + WCR partials) ships back the
    same way.
    """

    def __init__(self, registry: Dict[str, Callable]):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(req_w)
            os.close(resp_r)
            try:
                self._child_loop(registry, req_r, resp_w)
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(resp_w)
        self.pid = pid
        self._req_w = req_w
        self._resp_r = resp_r
        self.alive = True

    @staticmethod
    def _child_loop(registry: Dict[str, Callable], req_r: int, resp_w: int) -> None:
        while True:
            task = _recv_obj(req_r)
            if task is None or task[0] == "stop":
                return
            _, fn_name, lo, hi, args = task
            t0 = time.perf_counter()
            try:
                fn = registry[fn_name]
                ret = fn(lo, hi, *args)
                _send_obj(resp_w, ("ok", ret, time.perf_counter() - t0))
            except BaseException as err:  # noqa: BLE001 — shipped to parent
                try:
                    _send_obj(resp_w, ("err", f"{type(err).__name__}: {err}", 0.0))
                except BaseException:
                    return

    def submit(self, fn_name: str, lo: int, hi: int, args: tuple) -> None:
        _send_obj(self._req_w, ("run", fn_name, lo, hi, args))

    def recv(self) -> Optional[Tuple[str, Any, float]]:
        return _recv_obj(self._resp_r)

    def stop(self, kill: bool = False) -> None:
        if not self.alive:
            return
        self.alive = False
        try:
            if not kill:
                _send_obj(self._req_w, ("stop",))
        except OSError:
            kill = True
        for fd in (self._req_w, self._resp_r):
            try:
                os.close(fd)
            except OSError:
                pass
        if kill:
            try:
                os.kill(self.pid, 9)
            except OSError:
                pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


# =====================================================================
# The pool
# =====================================================================


class ParallelRun:
    """Result of one chunked map execution.

    ``parts`` is ``[(lo, hi, ret), ...]`` in chunk order; ``copyback``
    tells the generated merge code whether disjoint output slices must
    be copied home (fork tier) or already landed in place (thread tier
    and the inline single-chunk path).
    """

    __slots__ = ("parts", "copyback", "tier", "wall")

    def __init__(self, parts, copyback: bool, tier: str, wall: float):
        self.parts = parts
        self.copyback = copyback
        self.tier = tier
        self.wall = wall


class MapWorkerPool:
    """Persistent worker pool executing chunked map lowerings.

    One pool per :class:`CompiledSDFG`; both tiers start lazily on
    first use, so a compiled program that never runs a parallel map
    never spawns a thread or a process.
    """

    def __init__(self, config: ParallelConfig, name: str = "sdfg"):
        self.config = config
        self.name = name
        self.closed = False
        self._lock = threading.RLock()
        self._executor = None
        self._fork_workers: List[_ForkWorker] = []
        self._fn_registry: Dict[str, Callable] = {}
        #: Monotonic counters surfaced through telemetry and tests.
        self.stats: Dict[str, int] = {
            "runs": 0,
            "chunks": 0,
            "inline_runs": 0,
            "thread_runs": 0,
            "fork_runs": 0,
            "fork_respawns": 0,
            "fallbacks": 0,
        }
        self._pending_event: Optional[Dict[str, Any]] = None
        _register(self)

    # --------------------------------------------------------------- setup
    def register_functions(self, fns: Dict[str, Callable]) -> None:
        """Register the generated module's chunk functions.

        Must happen before the first fork so children inherit the
        registry contents; the registry dict itself is shared by
        reference with already-forked children only through fork-time
        inheritance, hence re-registration after a fork triggers a
        worker respawn on next use.
        """
        with self._lock:
            missing = [k for k in fns if k not in self._fn_registry]
            self._fn_registry.update(fns)
            if missing and self._fork_workers:
                # Children predate these functions: retire them.
                self._teardown_forks()

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [w.pid for w in self._fork_workers if w.alive]

    def rss_kb(self) -> int:
        return sum(_proc_rss_kb(pid) for pid in self.worker_pids())

    # ----------------------------------------------------------- partition
    def partition(self, start: int, stop: int, step: int) -> List[Tuple[int, int]]:
        """Split ``range(start, stop, step)`` into contiguous chunks.

        Chunk boundaries are aligned to the step so each chunk is itself
        a ``range(lo, hi, step)``; the list is empty for empty domains.
        """
        start, stop, step = int(start), int(stop), int(step)
        n = len(range(start, stop, step))
        if n == 0:
            return []
        cfg = self.config
        chunks = min(cfg.workers * cfg.chunks_per_worker, max(1, n // cfg.min_chunk))
        chunks = max(1, min(chunks, n))
        out: List[Tuple[int, int]] = []
        base, extra = divmod(n, chunks)
        idx = 0
        for c in range(chunks):
            cnt = base + (1 if c < extra else 0)
            lo = start + idx * step
            hi = start + (idx + cnt) * step
            idx += cnt
            out.append((lo, hi))
        return out

    # ----------------------------------------------------------------- run
    def run(
        self,
        fn: Callable,
        start: int,
        stop: int,
        step: int,
        args: Sequence[Any],
        label: str = "map",
        tier: str = "thread",
    ) -> ParallelRun:
        """Execute ``fn`` over the chunked domain; returns chunk results
        in order.  Falls back to inline execution when the pool is
        closed, the domain yields a single chunk, or the fork tier
        fails mid-run (fork chunks never mutate parent state, so a
        wholesale inline re-run is safe)."""
        chunks = self.partition(start, stop, step)
        t0 = time.perf_counter()
        self.stats["runs"] += 1
        self.stats["chunks"] += len(chunks)
        # The call-site tier is a capability bound: 'thread' means the
        # chunk mutates shared arrays in place and must not fork (the
        # writes would stay in the child).  A configured tier can force
        # threads everywhere, or force fork only where the chunk
        # supports it.
        if self.config.tier != "auto" and tier != "thread":
            tier = self.config.tier
        busy = 0.0
        if self.closed or len(chunks) <= 1 or self.config.workers <= 1:
            parts = [(lo, hi, fn(lo, hi, *args)) for lo, hi in chunks]
            self.stats["inline_runs"] += 1
            run = ParallelRun(parts, False, "inline", time.perf_counter() - t0)
        elif tier == "fork":
            try:
                parts, busy = self._run_fork(fn, chunks, args)
                self.stats["fork_runs"] += 1
                run = ParallelRun(parts, True, "fork", time.perf_counter() - t0)
            except _ForkTierBroken:
                self.stats["fallbacks"] += 1
                parts = [(lo, hi, fn(lo, hi, *args)) for lo, hi in chunks]
                run = ParallelRun(parts, False, "inline", time.perf_counter() - t0)
        else:
            parts, busy = self._run_threads(fn, chunks, args)
            self.stats["thread_runs"] += 1
            run = ParallelRun(parts, False, "thread", time.perf_counter() - t0)
        self._pending_event = {
            "label": label,
            "tier": run.tier,
            "chunks": len(chunks),
            "workers": self.config.workers,
            "wall_s": run.wall,
            "utilization": (
                busy / (self.config.workers * run.wall)
                if busy and run.wall > 0
                else (1.0 if run.tier == "inline" else 0.0)
            ),
        }
        return run

    def note_merge(self, label: str, merge_s: float) -> None:
        """Called by the generated code after the barrier merge; flushes
        the per-map ``parallel:*`` telemetry event."""
        event = self._pending_event
        self._pending_event = None
        if event is None or event.get("label") != label:
            event = {"label": label, "tier": "?", "chunks": 0,
                     "workers": self.config.workers, "wall_s": 0.0,
                     "utilization": 0.0}
        event["merge_s"] = merge_s
        try:
            from repro.telemetry.sink import active_sink

            sink = active_sink()
            if sink is not None:
                sink.publish(
                    "parallel",
                    f"parallel:{self.name}:{label}",
                    value=event["wall_s"],
                    fields=event,
                )
        except Exception:
            pass

    # --------------------------------------------------------------- tiers
    def _ensure_executor(self):
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._executor is None:
                faultpoint("parallel.pool_spawn", tier="thread",
                           pool=self.name)
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix=f"pmap-{self.name}",
                )
            return self._executor

    def _run_threads(self, fn, chunks, args):
        executor = self._ensure_executor()
        busy = [0.0] * len(chunks)

        def timed(i, lo, hi):
            t0 = time.perf_counter()
            ret = fn(lo, hi, *args)
            busy[i] = time.perf_counter() - t0
            return ret

        futures = [
            executor.submit(timed, i, lo, hi) for i, (lo, hi) in enumerate(chunks)
        ]
        parts = [
            (lo, hi, fut.result()) for (lo, hi), fut in zip(chunks, futures)
        ]
        return parts, sum(busy)

    def _ensure_forks(self) -> List[_ForkWorker]:
        with self._lock:
            dead = [w for w in self._fork_workers if not w.alive]
            if dead:
                self._fork_workers = [w for w in self._fork_workers if w.alive]
            while len(self._fork_workers) < self.config.workers:
                faultpoint("parallel.pool_spawn", tier="fork",
                           pool=self.name)
                self._fork_workers.append(_ForkWorker(self._fn_registry))
                self.stats["fork_respawns"] += 1
            return list(self._fork_workers)

    def _run_fork(self, fn, chunks, args):
        fn_name = getattr(fn, "__name__", None)
        if fn_name is None or fn_name not in self._fn_registry:
            raise _ForkTierBroken("chunk function not registered")
        workers = self._ensure_forks()
        results: Dict[int, Any] = {}
        busy = 0.0
        pending = list(enumerate(chunks))
        inflight: Dict[int, Tuple[_ForkWorker, int]] = {}
        try:
            while pending or inflight:
                while pending and len(inflight) < len(workers):
                    widx = next(
                        i for i, w in enumerate(workers)
                        if i not in {wi for wi, _ in inflight.values()} and w.alive
                    )
                    ci, (lo, hi) = pending.pop(0)
                    workers[widx].submit(fn_name, int(lo), int(hi), tuple(args))
                    inflight[ci] = (widx, ci)
                # Synchronous farm: collect one result per loop turn.
                ci, (widx, _) = next(iter(inflight.items()))
                resp = workers[widx].recv()
                del inflight[ci]
                if resp is None:  # worker died (EOF)
                    workers[widx].stop(kill=True)
                    raise _ForkTierBroken("fork worker died")
                status, payload, elapsed = resp
                if status != "ok":
                    raise RuntimeError(f"parallel chunk failed in fork worker: {payload}")
                busy += elapsed
                results[ci] = payload
        except _ForkTierBroken:
            self._teardown_forks()
            raise
        parts = [
            (lo, hi, results[i]) for i, (lo, hi) in enumerate(chunks)
        ]
        return parts, busy

    # ------------------------------------------------------------ teardown
    def _teardown_forks(self) -> None:
        with self._lock:
            workers, self._fork_workers = self._fork_workers, []
        for w in workers:
            w.stop()

    def close(self) -> None:
        """Tear down both tiers.  Idempotent; a closed pool still
        executes (inline), so late calls through a cached entry stay
        correct."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self._teardown_forks()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class _ForkTierBroken(RuntimeError):
    """Internal: the fork tier is unusable; rerun inline."""

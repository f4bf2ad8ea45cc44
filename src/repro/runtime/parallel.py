"""Multicore execution pool for the parallel map tier (DESIGN §14).

The generated-Python backend's ``parallel=`` tier chunks the iteration
domain of proof-carrying conflict-free maps (see
:func:`repro.sdfg.validation.analyze_map_parallelism`) across a
persistent pool owned by the :class:`~repro.codegen.compiler.
CompiledSDFG` that the lowering belongs to.  Both worker tiers are
standard :mod:`concurrent.futures` executors behind one
submit-and-collect loop:

* **thread** — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Right for NumPy/ufunc-dominated chunk bodies: the ufunc inner loops
  release the GIL, so chunks genuinely overlap.  Disjoint output writes
  land directly in the caller's arrays (shared address space, no
  copy-back).
* **fork** — a fork-context :class:`~concurrent.futures.
  ProcessPoolExecutor`, for pure-Python loop bodies the GIL would
  serialize.  Its workers inherit the pool's chunk-function registry
  when they are forked, so a task names its chunk function instead of
  pickling it; the chunk's written output slices / WCR partials come
  back as the task's result, and the parent copies disjoint slices home
  and merges WCR partials at the barrier.

Both tiers share one calling convention: a chunk function receives the
half-open chunk ``[lo, hi)`` of the chunked parameter plus the
containers/symbols it needs, writes disjoint outputs in place, and
returns ``(copyback_views, wcr_partials)``.  The pool returns the
per-chunk results *in chunk order*, so WCR merges are deterministic for
a given chunk count.

Nothing here supervises processes.  An executor that cannot be created,
or a fork worker that dies (``BrokenProcessPool``), turns the run into
an inline run of every chunk — no pooled chunk has written the caller's
arrays by then — and the next run starts a fresh executor.  Fork
workers exit when their parent dies (:func:`exit_with_parent`).  The one
crash boundary (fresh interpreter, deadlines, crash bundles) is
:mod:`repro.serve.pool`.

Pools start lazily on the first parallel map execution and are torn
down by :meth:`MapWorkerPool.close` — called from
``CompiledSDFG.close()``/``__del__`` and when the serve worker's
artifact LRU evicts the owning program — plus an ``atexit`` sweep over
the live-pool registry.  :func:`live_pool_rss_kb` lets the serve
layer's RSS recycling budget account for fork workers.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos import ChaosFault, faultpoint

__all__ = [
    "ParallelConfig",
    "MapWorkerPool",
    "ParallelRun",
    "live_pool_rss_kb",
    "live_pool_count",
    "live_worker_pids",
    "exit_with_parent",
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
    """PIDs of all fork workers currently alive under this process
    (``[]`` at once when no live pool has started any)."""
    return [
        proc.pid
        for pool in live_pools()
        for proc in pool._fork_workers
        if proc.is_alive()
    ]


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
# Chunk execution (runs on a pool thread or in a fork worker)
# =====================================================================

#: In a fork worker: the owning pool's chunk functions, by name.
_CHUNKS: Dict[str, Callable] = {}


def exit_with_parent() -> None:
    """Worker initializer: exit when the parent process dies.

    An executor's workers block reading a task queue whose write end
    they inherited, so they never see EOF when the parent is killed;
    left alone they would outlive it and hold its pipes open.  A daemon
    thread waits on the parent's sentinel instead.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _adopt_chunks(registry: Dict[str, Callable]) -> None:
    """Fork-worker initializer.  ``registry`` is the pool's own dict,
    inherited through fork, not serialized."""
    global _CHUNKS
    _CHUNKS = registry
    exit_with_parent()


def _worker_context():
    """A fork context that keeps the processes started through it, so a
    pool can name its own workers."""
    import multiprocessing

    class WorkerContext(type(multiprocessing.get_context("fork"))):
        def __init__(self):
            self.workers: List[Any] = []

        def Process(self, *args, **kwargs):
            proc = super().Process(*args, **kwargs)
            self.workers.append(proc)
            return proc

    return WorkerContext()


def _timed_chunk(fn, lo: int, hi: int, args: tuple) -> Tuple[Any, float]:
    """Run one chunk and time it.  ``fn`` is the chunk function on a
    thread and its registered name in a fork worker."""
    if isinstance(fn, str):
        fn = _CHUNKS[fn]
    t0 = time.perf_counter()
    ret = fn(lo, hi, *args)
    return ret, time.perf_counter() - t0


# =====================================================================
# The pool
# =====================================================================


class ParallelRun:
    """Result of one chunked map execution.

    ``parts`` is ``[(lo, hi, ret), ...]`` in chunk order; ``copyback``
    tells the generated merge code whether disjoint output slices must
    be copied home (fork tier) or already landed in place (thread tier
    and the inline path).
    """

    __slots__ = ("parts", "copyback", "tier", "wall")

    def __init__(self, parts, copyback: bool, tier: str, wall: float):
        self.parts = parts
        self.copyback = copyback
        self.tier = tier
        self.wall = wall


class _PoolUnavailable(RuntimeError):
    """Internal: the tier's executor could not run the chunks; rerun
    inline."""


class MapWorkerPool:
    """Persistent worker pool executing chunked map lowerings.

    One pool per :class:`CompiledSDFG`; each tier's executor starts
    lazily on first use, so a compiled program that never runs a
    parallel map never spawns a thread or a process.
    """

    def __init__(self, config: ParallelConfig, name: str = "sdfg"):
        self.config = config
        self.name = name
        self.closed = False
        self._lock = threading.RLock()
        #: Live executors by tier ("thread", "fork").
        self._executors: Dict[str, Any] = {}
        self._fn_registry: Dict[str, Callable] = {}
        #: Processes of the live fork executor, as it started them.
        self._fork_workers: List[Any] = []
        #: Monotonic counters surfaced through telemetry and tests.
        #: ``fork_respawns`` counts fork workers started.
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

        Fork workers see the registry as it was when they were forked,
        so registering a new name retires the fork executor; the next
        fork run starts a fresh one.
        """
        with self._lock:
            missing = [k for k in fns if k not in self._fn_registry]
            self._fn_registry.update(fns)
            if missing:
                self._drop_executor("fork")

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
        in order.  Runs inline when the pool is closed or the domain
        yields a single chunk, and falls back to inline (counted in
        ``stats["fallbacks"]``) when the tier's executor cannot be
        created or a fork worker dies."""
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
            self.stats["inline_runs"] += 1
            tier = "inline"
        else:
            try:
                parts, busy = self._run_pooled(tier, fn, chunks, tuple(args))
                self.stats[f"{tier}_runs"] += 1
            except _PoolUnavailable:
                self.stats["fallbacks"] += 1
                tier = "inline"
        if tier == "inline":
            parts = [(lo, hi, fn(lo, hi, *args)) for lo, hi in chunks]
        run = ParallelRun(parts, tier == "fork", tier, time.perf_counter() - t0)
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

    # ----------------------------------------------------------- executors
    def _executor(self, tier: str):
        """The tier's executor, created on first use."""
        with self._lock:
            executor = self._executors.get(tier)
            if executor is None:
                from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

                faultpoint("parallel.pool_spawn", tier=tier, pool=self.name)
                if tier == "fork":
                    context = _worker_context()
                    executor = ProcessPoolExecutor(
                        max_workers=self.config.workers,
                        mp_context=context,
                        initializer=_adopt_chunks,
                        initargs=(self._fn_registry,),
                    )
                    self._fork_workers = context.workers
                    self.stats["fork_respawns"] += self.config.workers
                else:
                    executor = ThreadPoolExecutor(
                        max_workers=self.config.workers,
                        thread_name_prefix=f"pmap-{self.name}",
                    )
                self._executors[tier] = executor
            return executor

    def _run_pooled(self, tier: str, fn: Callable, chunks, args: tuple):
        """Submit every chunk to the tier's executor and collect the
        results in chunk order; returns ``(parts, busy_seconds)``.
        Raises :class:`_PoolUnavailable` when the executor cannot be
        created or breaks (a fork worker died)."""
        from concurrent.futures import BrokenExecutor

        task: Any = fn
        if tier == "fork":
            task = getattr(fn, "__name__", None)
            if task not in self._fn_registry:
                raise _PoolUnavailable("chunk function not registered")
        try:
            executor = self._executor(tier)
            futures = [
                executor.submit(_timed_chunk, task, lo, hi, args)
                for lo, hi in chunks
            ]
        except (ChaosFault, OSError, BrokenExecutor) as err:
            self._drop_executor(tier)
            raise _PoolUnavailable(f"{tier} pool cannot start: {err}") from err
        try:
            results = [future.result() for future in futures]
        except BrokenExecutor as err:
            self._drop_executor(tier)
            raise _PoolUnavailable(f"{tier} worker died: {err}") from err
        parts = [(lo, hi, ret) for (lo, hi), (ret, _) in zip(chunks, results)]
        return parts, sum(busy for _, busy in results)

    def _drop_executor(self, tier: str) -> None:
        with self._lock:
            executor = self._executors.pop(tier, None)
        if executor is not None:
            # Wait for fork workers so none outlives the pool; a thread
            # pool may be dropped from one of its own threads.
            executor.shutdown(wait=(tier == "fork"), cancel_futures=True)

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        """Tear down both tiers.  Idempotent; a closed pool still
        executes (inline), so late calls through a cached entry stay
        correct."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
        for tier in ("thread", "fork"):
            self._drop_executor(tier)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

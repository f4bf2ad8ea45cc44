"""Multicore execution pool for the parallel map tier (DESIGN §14).

The generated-Python backend's ``parallel=`` tier chunks the iteration
domain of maps whose NumPy lowering shows chunks cannot conflict (see
:func:`repro.codegen.chunking.chunk_plan`) across a
:class:`~concurrent.futures.ThreadPoolExecutor` owned by the
:class:`~repro.codegen.compiler.CompiledSDFG` that the lowering belongs
to.  NumPy's ufunc inner loops release the GIL, so chunks of vectorized
bodies genuinely overlap; the generator chunks no other map.  Maps with
pure-Python loop bodies gain nothing from threads; the cpp backend runs
them in parallel, as the paper does, through the ``#pragma omp parallel
for`` its generated C++ carries.
Each run of a chunkable map asks :meth:`MapWorkerPool.accepts` whether
it carries :data:`WORK_FLOOR` points per worker; if not, it runs serially.

A chunk function receives the half-open chunk ``[lo, hi)`` of the
chunked parameter plus the containers/symbols it needs, writes its
disjoint outputs in place (the threads share the caller's arrays) and
returns its private WCR partials.  The pool returns the chunk results
*in chunk order*, so WCR merges are deterministic for a given chunk
count.

Nothing here supervises.  An executor that cannot be created turns the
run into an inline run of every chunk, and the next run tries again.
The one crash boundary (fresh interpreter, deadlines, crash bundles) is
:mod:`repro.serve.pool`.

The executor starts lazily on the first parallel map execution and is
torn down by :meth:`MapWorkerPool.close` — called from
``CompiledSDFG.close()``/``__del__`` and when the serve worker's
artifact LRU evicts the owning program — plus an ``atexit`` sweep over
the live-pool registry.
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
    "live_pool_count",
    "shutdown_all_pools",
]

#: Domain points per worker below which a map runs its serial lowering:
#: smaller chunks do not pay for a dispatch and a merge.  Calibrated on a
#: slice-tier map at two workers against serial (DESIGN §14); a pool
#: reads it when it is built.
WORK_FLOOR = 131072


# =====================================================================
# Configuration
# =====================================================================


class ParallelConfig:
    """The parallel tier's one knob: ``workers``, the number of pool
    threads (None means all cores).  It surfaces in the program cache's
    variant key."""

    __slots__ = ("workers",)

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if int(workers) < 1:
            raise ValueError(f"a pool needs at least one worker, not {workers}")
        self.workers = int(workers)

    # ------------------------------------------------------------- identity
    def key_fragment(self) -> str:
        """Stable fragment for cache/variant keys."""
        return f"w{self.workers}"

    @staticmethod
    def parse(spec: Any) -> Optional["ParallelConfig"]:
        """Coerce a user-facing ``parallel=`` value into a config.

        Accepted: ``None``/``False`` and the off spellings of a flag
        (disabled), ``True`` and the on spellings (all cores), an int
        worker count, a config instance, a dict ``{"workers": N}``, or a
        string ``"[tier:]workers"`` (``"4"``, ``"thread:4"``, ``"auto"``).
        ``thread`` and ``auto`` name the one tier.  A count of 0 is off
        in every spelling; a missing count means all cores.
        """
        if spec is None or spec is False:
            return None
        if isinstance(spec, ParallelConfig):
            return spec
        if spec is True:
            return ParallelConfig()
        if isinstance(spec, int):
            return _from_count(spec)
        if isinstance(spec, dict):
            unknown = set(spec) - {"workers", "tier"}
            if unknown:
                raise ValueError(
                    f"unknown parallel field(s) {sorted(unknown)}; use 'workers'"
                )
            _check_tier(spec.get("tier", "thread"))
            return _from_count(spec.get("workers"))
        if isinstance(spec, str):
            text = spec.strip().lower()
            if text in ("", "off", "false", "no", "none"):
                return None
            if text in ("true", "on", "yes"):
                return ParallelConfig()
            tier, _, count = text.rpartition(":")
            if not tier and not count.isdigit():
                tier, count = count, ""
            _check_tier(tier or "thread")
            if count in ("", "auto"):
                return ParallelConfig()
            if count.isdigit():
                return _from_count(count)
        raise ValueError(f"cannot interpret parallel spec {spec!r}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParallelConfig) and self.workers == other.workers

    def __hash__(self) -> int:
        return hash(self.workers)

    def __repr__(self) -> str:
        return f"ParallelConfig(workers={self.workers})"


def _from_count(count: Any) -> Optional[ParallelConfig]:
    """All cores for a missing count; off for a count of 0 or less."""
    if count is None:
        return ParallelConfig()
    count = int(count)
    return ParallelConfig(workers=count) if count > 0 else None


def _check_tier(tier: Any) -> None:
    if str(tier).strip().lower() not in ("thread", "auto"):
        raise ValueError(
            f"unknown parallel tier {tier!r}: the parallel tier is one thread "
            "pool ('thread' or 'auto'); for loop-bodied maps compile with "
            'backend="cpp", whose generated C++ runs them under OpenMP'
        )


# =====================================================================
# Pool registry (teardown)
# =====================================================================

_LIVE_POOLS: "weakref.WeakSet[MapWorkerPool]" = weakref.WeakSet()
_registry_lock = threading.Lock()


def live_pools() -> List["MapWorkerPool"]:
    with _registry_lock:
        return [p for p in _LIVE_POOLS if not p.closed]


def live_pool_count() -> int:
    """Number of live (not yet closed) pools in this process."""
    return len(live_pools())


def shutdown_all_pools() -> None:
    for pool in live_pools():
        pool.close()


atexit.register(shutdown_all_pools)


def _timed_chunk(fn: Callable, lo: int, hi: int, args: tuple) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    ret = fn(lo, hi, *args)
    return ret, time.perf_counter() - t0


# =====================================================================
# The pool
# =====================================================================


class MapWorkerPool:
    """Persistent thread pool executing chunked map lowerings.

    One pool per :class:`CompiledSDFG`; its executor starts lazily on
    first use, so a compiled program that never runs a parallel map
    never starts a thread.
    """

    def __init__(self, config: ParallelConfig, name: str = "sdfg"):
        self.config = config
        self.name = name
        self.closed = False
        #: Smallest map, in points, that :meth:`accepts` chunks.
        workers = config.workers
        self._floor = WORK_FLOOR * workers if workers > 1 else float("inf")
        self._lock = threading.Lock()
        self._executor = None
        #: Monotonic counters surfaced through telemetry and tests:
        #: ``runs`` counts chunked runs; ``inline_runs`` counts maps run
        #: without threads (refused by :meth:`accepts`, or one chunk).
        self.stats: Dict[str, int] = {
            "runs": 0,
            "chunks": 0,
            "inline_runs": 0,
            "thread_runs": 0,
            "fallbacks": 0,
        }
        self._pending_event: Optional[Dict[str, Any]] = None
        with _registry_lock:
            _LIVE_POOLS.add(self)

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
        chunks = min(self.config.workers, n)
        out: List[Tuple[int, int]] = []
        base, extra = divmod(n, chunks)
        idx = 0
        for c in range(chunks):
            cnt = base + (1 if c < extra else 0)
            out.append((start + idx * step, start + (idx + cnt) * step))
            idx += cnt
        return out

    # ----------------------------------------------------------------- run
    def accepts(self, points: int) -> bool:
        """Whether a map of ``points`` domain points runs chunked on this
        pool.  A closed pool, a one-worker pool and a map under
        :data:`WORK_FLOOR` points per worker do not take it: the
        generated code runs the serial lowering instead, counted in
        ``stats["inline_runs"]``."""
        if points < self._floor:
            self.stats["inline_runs"] += 1
            return False
        return True

    def run(
        self,
        fn: Callable,
        start: int,
        stop: int,
        step: int,
        args: Sequence[Any],
        label: str = "map",
    ) -> List[Any]:
        """Execute ``fn`` over the chunked domain; returns the chunk
        results in chunk order.  Runs inline when the domain yields a
        single chunk, and falls back to inline (counted in
        ``stats["fallbacks"]``) when the executor cannot be created."""
        chunks = self.partition(start, stop, step)
        t0 = time.perf_counter()
        self.stats["runs"] += 1
        self.stats["chunks"] += len(chunks)
        args = tuple(args)
        busy = 0.0
        parts = None
        tier = "inline"
        if len(chunks) <= 1:
            self.stats["inline_runs"] += 1
        else:
            executor = self._start_executor()
            if executor is None:
                self.stats["fallbacks"] += 1
            else:
                from concurrent.futures import wait

                futures = [
                    executor.submit(_timed_chunk, fn, lo, hi, args)
                    for lo, hi in chunks
                ]
                # Every chunk finishes before a failed one raises, so no
                # chunk still writes the caller's arrays after it.
                wait(futures)
                results = [future.result() for future in futures]
                parts = [ret for ret, _ in results]
                busy = sum(seconds for _, seconds in results)
                self.stats["thread_runs"] += 1
                tier = "thread"
        if parts is None:
            parts = [fn(lo, hi, *args) for lo, hi in chunks]
        wall = time.perf_counter() - t0
        self._pending_event = {
            "label": label,
            "tier": tier,
            "chunks": len(chunks),
            "workers": self.config.workers,
            "wall_s": wall,
            "utilization": (
                busy / (self.config.workers * wall)
                if busy and wall > 0
                else (1.0 if tier == "inline" else 0.0)
            ),
        }
        return parts

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

    # ------------------------------------------------------------ executor
    def _start_executor(self):
        """The executor, created on first use; None when it cannot be
        created or the pool is closed."""
        with self._lock:
            if self.closed:
                return None
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                try:
                    faultpoint("parallel.pool_spawn", tier="thread", pool=self.name)
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.config.workers,
                        thread_name_prefix=f"pmap-{self.name}",
                    )
                except (ChaosFault, OSError):
                    return None
            return self._executor

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        """Tear the executor down.  Idempotent; a closed pool accepts no
        map, so late calls through a cached entry run the serial
        lowering and stay correct."""
        with self._lock:
            self.closed = True
            self._floor = float("inf")
            executor, self._executor = self._executor, None
        if executor is not None:
            # A pool may be dropped from one of its own threads (GC).
            executor.shutdown(wait=False, cancel_futures=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

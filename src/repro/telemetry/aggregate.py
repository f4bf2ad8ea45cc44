"""Windowed aggregation of the telemetry stream.

The aggregator drains a :class:`~repro.telemetry.sink.TelemetrySink`
and folds events into fixed-width wall-clock windows.  Each window
keeps:

* per-kernel execution-time samples (bounded; percentiles computed on
  demand) keyed by SDFG name;
* cache hit/miss/store counters per cache name (``progcache``,
  ``tuning``, ``symcache:<fn>``, the workers' warm-artifact LRU);
* per-tenant request / ok / rejected / error counts;
* the breaker-state timeline (``(ts, key, old, new)`` transitions);
* top-N hot spots by summed timer duration and by memlet volume;
* the number of events lost to ring overflow (``dropped``).

Windows rotate by event timestamp, not by call time, so a snapshot is
deterministic given the stream.  Events timestamped before the oldest
retained window (clock skew, late worker propagation) are folded into
the oldest window and counted as ``skewed`` rather than silently
dropped or crashing the rotation.

Everything here is consumer-side: cost is paid by whoever asks for a
snapshot (the ``metrics`` endpoint, the CLI), never by the hot path.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.sink import TelemetryEvent, TelemetrySink

#: Per-kernel, per-window sample cap.  Past this the sample list keeps
#: every k-th sample (decimation) — counts and sums stay exact, the
#: percentile basis is thinned.
MAX_SAMPLES = 2048

#: Hot-spot table cap per window.
MAX_HOTSPOTS = 256

#: Breaker-timeline cap per window.
MAX_TRANSITIONS = 256


def percentile(samples: List[float], q: float) -> Optional[float]:
    """Linear-interpolation percentile (numpy's default), pure Python.

    A single sample is every percentile of itself; an empty list has
    none.  ``q`` is in [0, 100].
    """
    if not samples:
        return None
    data = sorted(samples)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class _KernelStats:
    """Bounded sample accumulator for one kernel in one window."""

    __slots__ = ("count", "total", "max", "samples", "_stride", "warm", "cold")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.samples: List[float] = []
        self._stride = 1
        self.warm = 0
        self.cold = 0

    def add(self, value: float, warm: Optional[bool]) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if warm is True:
            self.warm += 1
        elif warm is False:
            self.cold += 1
        if self.count % self._stride == 0:
            self.samples.append(value)
            if len(self.samples) >= MAX_SAMPLES:
                # Decimate: keep every other retained sample, double the
                # stride for future ones.  Percentiles stay representative.
                self.samples = self.samples[::2]
                self._stride *= 2

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else None,
            "max": self.max if self.count else None,
            "p50": percentile(self.samples, 50),
            "p95": percentile(self.samples, 95),
            "p99": percentile(self.samples, 99),
            "warm": self.warm,
            "cold": self.cold,
            "samples": len(self.samples),
        }


class _Window:
    """One aggregation window (all fields fold-in only)."""

    __slots__ = ("start", "width", "kernels", "caches", "tenants",
                 "breakers", "hotspot_time", "hotspot_volume",
                 "tuning", "exemplar", "events", "dropped", "skewed")

    def __init__(self, start: float, width: float):
        self.start = start
        self.width = width
        self.kernels: Dict[str, _KernelStats] = {}
        self.caches: Dict[str, Dict[str, int]] = {}
        self.tenants: Dict[str, Dict[str, int]] = {}
        self.breakers: List[Tuple[float, str, str, str]] = []
        self.hotspot_time: Dict[str, float] = {}
        self.hotspot_volume: Dict[str, int] = {}
        #: Per-label tuning counters (``xform:<name>``, ``cutout:<label>``):
        #: numeric event fields summed, timed values under ``seconds``.
        self.tuning: Dict[str, Dict[str, float]] = {}
        #: Slowest traced request of the window: the full instrumentation
        #: tree of the worst ``trace`` event, kept whole for debugging.
        self.exemplar: Optional[Dict[str, Any]] = None
        self.events = 0
        self.dropped = 0
        self.skewed = 0

    # ---------------------------------------------------------------- folds
    def _tenant(self, name: str) -> Dict[str, int]:
        bucket = self.tenants.get(name)
        if bucket is None:
            bucket = self.tenants[name] = {
                "requests": 0, "ok": 0, "rejected": 0, "errors": 0,
            }
        return bucket

    def fold(self, ev: TelemetryEvent) -> None:
        self.events += 1
        kind, label, value = ev.kind, ev.label, ev.value
        fields = ev.fields or {}
        if kind == "kernel":
            if value is not None:
                stats = self.kernels.get(label)
                if stats is None:
                    stats = self.kernels[label] = _KernelStats()
                stats.add(float(value), fields.get("warm"))
        elif kind == "request":
            bucket = self._tenant(str(fields.get("tenant", "default")))
            bucket["requests"] += 1
            status = fields.get("status")
            if status == "ok":
                bucket["ok"] += 1
            elif status == "rejected":
                bucket["rejected"] += 1
            else:
                bucket["errors"] += 1
        elif kind == "cache":
            counters = self.caches.get(label)
            if counters is None:
                counters = self.caches[label] = {}
            event = str(fields.get("event", "hit"))
            counters[event] = counters.get(event, 0) + int(fields.get("n", 1))
        elif kind == "breaker":
            if len(self.breakers) < MAX_TRANSITIONS:
                self.breakers.append(
                    (ev.ts, label, str(fields.get("old", "?")),
                     str(fields.get("new", "?")))
                )
        elif kind == "tuning":
            bucket = self.tuning.get(label)
            if bucket is None:
                bucket = self.tuning[label] = {"events": 0, "seconds": 0.0}
            bucket["events"] += 1
            if value is not None:
                bucket["seconds"] += float(value)
            for key, val in fields.items():
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    continue
                bucket[key] = bucket.get(key, 0) + val
        elif kind == "trace":
            if value is not None and (
                self.exemplar is None
                or float(value) > self.exemplar.get("seconds", 0.0)
            ):
                self.exemplar = {
                    "kernel": label,
                    "seconds": float(value),
                    "ts": ev.ts,
                    "tenant": fields.get("tenant"),
                    "backend": fields.get("backend"),
                    "report": fields.get("report"),
                }
        elif kind == "drop":
            self.dropped += int(value or 0)
        # Timer/volume hot spots: any timed or volume-carrying event
        # (map/tasklet/state scopes from the instrumentation recorder,
        # compile phases, kernels) competes for the top-N tables.
        # ``trace`` mirrors an already-folded kernel timing and would
        # double-count it.
        if value is not None and kind not in ("drop", "request", "trace"):
            key = f"{kind}:{label}"
            if len(self.hotspot_time) < MAX_HOTSPOTS or key in self.hotspot_time:
                self.hotspot_time[key] = self.hotspot_time.get(key, 0.0) + float(value)
        volume = fields.get("volume_bytes")
        if volume:
            key = f"{kind}:{label}"
            if len(self.hotspot_volume) < MAX_HOTSPOTS or key in self.hotspot_volume:
                self.hotspot_volume[key] = (
                    self.hotspot_volume.get(key, 0) + int(volume)
                )

    # ------------------------------------------------------------- summaries
    def summary(self, top: int = 10) -> Dict[str, Any]:
        caches = {}
        for name, counters in sorted(self.caches.items()):
            hits = counters.get("hit", 0)
            misses = counters.get("miss", 0)
            total = hits + misses
            caches[name] = dict(counters)
            caches[name]["hit_rate"] = round(hits / total, 6) if total else None
        return {
            "start": self.start,
            "end": self.start + self.width,
            "events": self.events,
            "dropped": self.dropped,
            "skewed": self.skewed,
            "kernels": {
                name: stats.summary()
                for name, stats in sorted(self.kernels.items())
            },
            "caches": caches,
            "tuning": {k: dict(v) for k, v in sorted(self.tuning.items())},
            "exemplar": dict(self.exemplar) if self.exemplar else None,
            "tenants": {t: dict(b) for t, b in sorted(self.tenants.items())},
            "breaker_transitions": [
                [round(ts, 6), key, old, new]
                for ts, key, old, new in self.breakers
            ],
            "hotspots": {
                "by_time": [
                    {"element": k, "seconds": round(v, 9)}
                    for k, v in sorted(self.hotspot_time.items(),
                                       key=lambda kv: -kv[1])[:top]
                ],
                "by_volume": [
                    {"element": k, "bytes": v}
                    for k, v in sorted(self.hotspot_volume.items(),
                                       key=lambda kv: -kv[1])[:top]
                ],
            },
        }


class WindowedAggregator:
    """Folds a sink's stream into rotating time windows.

    ``collect()`` drains whatever is new and files it; ``snapshot()``
    collects and returns the JSON summary.  Both are thread-safe (the
    daemon serves ``metrics`` from concurrent connection handlers).
    """

    def __init__(
        self,
        sink: TelemetrySink,
        window_seconds: float = 60.0,
        max_windows: int = 15,
    ):
        self.sink = sink
        self.window_seconds = max(1e-3, float(window_seconds))
        self.max_windows = max(1, int(max_windows))
        self._cursor = 0
        self._windows: "Dict[int, _Window]" = {}  # window index -> window
        self._lock = threading.Lock()
        self.total_events = 0
        self.total_dropped = 0
        self.total_skewed = 0
        #: Breaker keys' *current* state (survives window rotation).
        self.breaker_states: Dict[str, str] = {}

    # -------------------------------------------------------------- folding
    def _index(self, ts: float) -> int:
        return int(ts // self.window_seconds)

    def _window_for(self, ts: float) -> Tuple[_Window, bool]:
        """The window owning ``ts``; second slot is True when the event
        is skewed (older than everything retained)."""
        idx = self._index(ts)
        win = self._windows.get(idx)
        if win is not None:
            return win, False
        if self._windows and idx < min(self._windows):
            # Late event from before the retention horizon: fold into
            # the oldest retained window, flagged as skewed.
            return self._windows[min(self._windows)], True
        win = self._windows[idx] = _Window(
            idx * self.window_seconds, self.window_seconds
        )
        while len(self._windows) > self.max_windows:
            del self._windows[min(self._windows)]
        return win, False

    def collect(self) -> int:
        """Drain and fold everything new; returns the event count."""
        with self._lock:
            events, self._cursor, dropped = self.sink.drain(self._cursor)
            if dropped:
                self.total_dropped += dropped
            for ev in events:
                win, skewed = self._window_for(ev.ts)
                win.fold(ev)
                if skewed:
                    win.skewed += 1
                    self.total_skewed += 1
                if ev.kind == "drop":
                    self.total_dropped += int(ev.value or 0)
                elif ev.kind == "breaker" and ev.fields:
                    self.breaker_states[ev.label] = str(
                        ev.fields.get("new", "?")
                    )
            self.total_events += len(events)
            # Note ring-level drops on the window carrying the newest data.
            if dropped and self._windows:
                self._windows[max(self._windows)].dropped += dropped
            return len(events)

    # ------------------------------------------------------------ snapshots
    def snapshot(self, top: int = 10) -> Dict[str, Any]:
        """Collect, then summarize every retained window (newest first)
        plus cross-window merged kernel stats (what the regression
        detector compares against baselines)."""
        self.collect()
        with self._lock:
            windows = [
                self._windows[idx].summary(top=top)
                for idx in sorted(self._windows, reverse=True)
            ]
            merged: Dict[str, _KernelStats] = {}
            for idx in self._windows:
                for name, stats in self._windows[idx].kernels.items():
                    acc = merged.get(name)
                    if acc is None:
                        acc = merged[name] = _KernelStats()
                    acc.count += stats.count
                    acc.total += stats.total
                    acc.max = max(acc.max, stats.max)
                    acc.warm += stats.warm
                    acc.cold += stats.cold
                    acc.samples.extend(stats.samples)
            tuning: Dict[str, Dict[str, float]] = {}
            exemplar: Optional[Dict[str, Any]] = None
            for idx in self._windows:
                win = self._windows[idx]
                for label, counters in win.tuning.items():
                    bucket = tuning.setdefault(label, {})
                    for key, val in counters.items():
                        bucket[key] = bucket.get(key, 0) + val
                if win.exemplar is not None and (
                    exemplar is None
                    or win.exemplar.get("seconds", 0.0)
                    > exemplar.get("seconds", 0.0)
                ):
                    exemplar = win.exemplar
            return {
                "window_seconds": self.window_seconds,
                "windows": windows,
                "kernels": {
                    name: stats.summary() for name, stats in sorted(merged.items())
                },
                "tuning": {k: dict(v) for k, v in sorted(tuning.items())},
                "exemplar": dict(exemplar) if exemplar else None,
                "totals": {
                    "events": self.total_events,
                    "dropped": self.total_dropped,
                    "skewed": self.total_skewed,
                    "windows": len(windows),
                },
                "breaker_states": dict(sorted(self.breaker_states.items())),
                "sink": self.sink.stats(),
            }


def merge_tenant_counters(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
    """Cross-window per-tenant totals of a :meth:`snapshot` payload
    (used by the CLI dashboard and the CI traffic assertions)."""
    totals: Dict[str, Dict[str, int]] = {}
    for window in snapshot.get("windows", ()):
        for tenant, counters in window.get("tenants", {}).items():
            bucket = totals.setdefault(
                tenant, {"requests": 0, "ok": 0, "rejected": 0, "errors": 0}
            )
            for key, val in counters.items():
                bucket[key] = bucket.get(key, 0) + int(val)
    return totals


def merge_cache_counters(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Cross-window cache counters with recomputed hit rates."""
    totals: Dict[str, Dict[str, Any]] = {}
    for window in snapshot.get("windows", ()):
        for name, counters in window.get("caches", {}).items():
            bucket = totals.setdefault(name, {})
            for key, val in counters.items():
                if key == "hit_rate" or val is None:
                    continue
                bucket[key] = bucket.get(key, 0) + int(val)
    for name, bucket in totals.items():
        hits = bucket.get("hit", 0)
        misses = bucket.get("miss", 0)
        denom = hits + misses
        bucket["hit_rate"] = round(hits / denom, 6) if denom else None
    return totals

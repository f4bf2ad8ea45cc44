"""In-memory span recorder for the traced run.

A span is one call from the benchmark into a layer's public function:
``{name, op, parent, start, end, cpu}``.  ``start``/``end`` are wall
seconds since the tracer was created, ``cpu`` is the CPU the *calling
thread's process* burned inside the span (``time.process_time`` delta).
Spans of one op share its ``op`` identifier.  Nothing is written until
:meth:`Tracer.dump`; an untraced run holds a disabled tracer whose
``span()`` hands back one shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from typing import Any, Dict, List, Optional


_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "rec", "cpu0")

    def __init__(self, tracer: "Tracer", rec: Dict[str, Any]):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        stack = self.tracer._stack()
        self.rec["parent"] = stack[-1] if stack else None
        stack.append(self.rec["id"])
        self.cpu0 = time.process_time()
        self.rec["start"] = time.perf_counter() - self.tracer.epoch
        return self

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter() - self.tracer.epoch
        self.rec["cpu"] = time.process_time() - self.cpu0
        self.tracer._stack().pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: Optional[str] = None):
        if not self.enabled:
            return _NULL
        with self._lock:
            rec = {"id": len(self.spans), "name": name, "op": op}
            self.spans.append(rec)
        return _Span(self, rec)

    # ------------------------------------------------------------ queries
    def samples(self, name: str, field: str = "cpu") -> Dict[str, List[float]]:
        """Milliseconds per op for every finished span called ``name``:
        ``cpu`` (CPU inside the span) or ``wall`` (end - start)."""
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            if s["name"] == name and "end" in s:
                value = s["cpu"] if field == "cpu" else s["end"] - s["start"]
                out.setdefault(s["op"], []).append(value * 1e3)
        return out

    def geomean_ms(self, name: str) -> float:
        """Geometric mean over ops of each op's median CPU ms — one slow
        program cannot stand in for the corpus, and ratios between two
        commits average correctly."""
        medians = [statistics.median(v) for v in self.samples(name).values()]
        return statistics.geometric_mean(medians)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total wall ms, and self wall ms (the
        span's duration minus the part its child spans cover)."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s.get("parent") is not None and "end" in s:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if "end" not in s:
                continue
            row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = s["end"] - s["start"]
            row["count"] += 1
            row["total_ms"] += dur * 1e3
            row["self_ms"] += (dur - covered.get(s["id"], 0.0)) * 1e3
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "by_name": self.self_times()}, f)

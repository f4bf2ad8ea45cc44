"""The per-run profile recorder.

A recorder profiles one run or one compile: the interpreter and the
generated Python modules report an execution into it (the artifact's
``last_report``), and the compilation driver reports its phases into
its own (``compile_report``).  Process-lifetime counters — cache hits,
admission decisions, tuning totals — stay with their owners'
``stats()`` and stream through the telemetry sink instead; the package
keeps no recorder past the run it profiles.

Events form an *aggregated profile tree*: ``enter``/``exit`` pairs push
and pop a stack, and repeated executions of the same element (same
kind + label under the same parent) merge into one :class:`EventNode`,
summing durations, counts, iterations, and bytes moved.  The resulting
tree is deterministic — two backends that visit the same elements in
the same nesting produce structurally identical trees, which is what
the backend-consistency tests assert.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.instrumentation.types import InstrumentationType
from repro.telemetry.sink import active_sink


class EventNode:
    """One aggregated entry of the profile tree."""

    __slots__ = ("kind", "label", "itype", "count", "duration", "iterations",
                 "volume_bytes", "children")

    def __init__(self, kind: str, label: str, itype: str = "TIMER"):
        self.kind = kind
        self.label = label
        self.itype = itype
        #: Number of enter/exit pairs merged into this node.
        self.count: int = 0
        #: Summed wall-clock seconds (None when the type records no time).
        self.duration: Optional[float] = None
        #: Summed iteration counts (map scopes).
        self.iterations: Optional[int] = None
        #: Summed bytes moved across the element boundary.
        self.volume_bytes: Optional[int] = None
        self.children: Dict[Tuple[str, str], "EventNode"] = {}

    def child(self, kind: str, label: str, itype: str) -> "EventNode":
        key = (kind, label)
        node = self.children.get(key)
        if node is None:
            node = EventNode(kind, label, itype)
            self.children[key] = node
        return node

    # ---------------------------------------------------------- recording
    def add(
        self,
        duration: Optional[float] = None,
        iterations: Optional[int] = None,
        volume_bytes: Optional[int] = None,
    ) -> None:
        """Fold one enter/exit pair (or leaf event) into this node."""
        self.count += 1
        if duration is not None:
            self.duration = (self.duration or 0.0) + float(duration)
        if iterations is not None:
            self.iterations = (self.iterations or 0) + int(iterations)
        if volume_bytes is not None:
            self.volume_bytes = (self.volume_bytes or 0) + int(volume_bytes)

    # ------------------------------------------------------------- queries
    def total_duration(self) -> float:
        """This node's duration, or the sum of its children's when it has
        no clock of its own."""
        if self.duration is not None:
            return self.duration
        return sum(c.total_duration() for c in self.children.values())

    def structure(self) -> tuple:
        """Backend-independent projection: everything except wall-clock."""
        return (
            self.kind,
            self.label,
            self.itype,
            self.count,
            self.iterations,
            self.volume_bytes,
            tuple(c.structure() for c in self.children.values()),
        )

    # -------------------------------------------------------------- (de)ser
    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "label": self.label,
            "itype": self.itype,
            "count": self.count,
            "duration": self.duration,
            "iterations": self.iterations,
            "volume_bytes": self.volume_bytes,
            "children": [c.to_json() for c in self.children.values()],
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "EventNode":
        node = EventNode(obj["kind"], obj["label"], obj.get("itype", "TIMER"))
        node.count = int(obj.get("count", 0))
        node.duration = obj.get("duration")
        node.iterations = obj.get("iterations")
        node.volume_bytes = obj.get("volume_bytes")
        for c in obj.get("children", ()):
            child = EventNode.from_json(c)
            node.children[(child.kind, child.label)] = child
        return node

    def __repr__(self) -> str:
        return f"EventNode({self.kind}:{self.label}, count={self.count})"


class InstrumentationRecorder:
    """Collects enter/exit events into an aggregated profile tree.

    The interpreter, generated Python modules and the compilation
    driver all call the same three methods.  Generated code receives
    the recorder as the ``__instr`` argument of its entry function.

    The recorder is thread-safe: each thread gets its own enter/exit
    stack (rooted at the shared tree), and mutation of the shared
    :class:`EventNode` tree is serialized by a lock whose critical
    section is a dict lookup plus a few additions.  No package code
    shares a recorder across threads; the lock is there for callers
    that do, so their counts stay exact.

    When a telemetry sink is active (see :mod:`repro.telemetry.sink`),
    every *timed* exit/event is also forwarded to it, so phase timings
    and IR-element hot spots stream into the fleet aggregator.  Pure
    counters (cache hits, admission decisions) are published at their
    call sites, which know the proper labels.
    """

    def __init__(self):
        self._root = EventNode("root", "")
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _frames(self) -> Tuple[List[EventNode], List[Optional[float]]]:
        """This thread's (stack, starts) pair, created on first use."""
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = [self._root]
            tls.starts = [None]
        return stack, tls.starts

    # ----------------------------------------------------------- recording
    def enter(self, kind: str, label: str, itype: str = "TIMER") -> EventNode:
        """Open a nested event; must be paired with :meth:`exit`."""
        stack, starts = self._frames()
        with self._lock:
            node = stack[-1].child(kind, label, itype)
        stack.append(node)
        timed = InstrumentationType[itype].records_time()
        starts.append(time.perf_counter() if timed else None)
        return node

    def exit(
        self,
        iterations: Optional[int] = None,
        volume: Optional[int] = None,
    ) -> None:
        """Close the innermost open event, folding in its measurements."""
        stack, starts = self._frames()
        if len(stack) <= 1:
            raise RuntimeError("InstrumentationRecorder.exit without enter")
        node = stack.pop()
        start = starts.pop()
        duration = time.perf_counter() - start if start is not None else None
        with self._lock:
            node.add(duration=duration, iterations=iterations,
                     volume_bytes=volume)
        if duration is not None:
            sink = active_sink()
            if sink is not None:
                sink.publish(
                    node.kind, node.label, duration,
                    fields={"volume_bytes": volume} if volume else None,
                )

    def event(
        self,
        kind: str,
        label: str,
        itype: str = "TIMER",
        duration: Optional[float] = None,
        iterations: Optional[int] = None,
        volume: Optional[int] = None,
    ) -> EventNode:
        """Record a leaf event with pre-measured values (pipeline phases)."""
        stack, _ = self._frames()
        with self._lock:
            node = stack[-1].child(kind, label, itype)
            node.add(duration=duration, iterations=iterations,
                     volume_bytes=volume)
        if duration is not None:
            sink = active_sink()
            if sink is not None:
                sink.publish(
                    kind, label, duration,
                    fields={"volume_bytes": volume} if volume else None,
                )
        return node

    # ------------------------------------------------------------- queries
    @property
    def root(self) -> EventNode:
        return self._root

    def is_balanced(self) -> bool:
        """True when *this thread* has no open enter/exit pair."""
        stack, _ = self._frames()
        return len(stack) == 1

    def report(self, sdfg: str, backend: str = ""):
        """Snapshot the collected tree into an immutable report."""
        from repro.instrumentation.report import InstrumentationReport

        with self._lock:
            events = list(self._root.children.values())
        return InstrumentationReport(
            sdfg=sdfg,
            backend=backend,
            events=events,
        )

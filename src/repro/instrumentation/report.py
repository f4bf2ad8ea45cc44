"""Instrumentation reports: a JSON-serializable profile of one SDFG run.

The report is the system's performance-feedback artifact (paper §4.4:
instrumented results feed DIODE's optimization loop): a tree of
:class:`~repro.instrumentation.recorder.EventNode` aggregates with a
text renderer (per-element hot-spot table) and a differ for comparing
two runs (e.g. naive vs ``auto_optimize``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.instrumentation.recorder import EventNode

#: Schema version of the serialized report.
REPORT_SCHEMA_VERSION = 1


@dataclass
class InstrumentationReport:
    """Profile of one SDFG execution (or pipeline run)."""

    sdfg: str
    backend: str = ""
    events: List[EventNode] = field(default_factory=list)
    #: Compile reports of the Python backend: the tier each map scope
    #: lowered to (``CompiledSDFG.lowering``), also read as
    #: ``report["lowering"]``.
    lowering: List[Dict[str, Any]] = field(default_factory=list)

    def __getitem__(self, name: str) -> Any:
        if name != "lowering":
            raise KeyError(name)
        return self.lowering

    # ------------------------------------------------------------- queries
    def is_empty(self) -> bool:
        return not self.events

    def walk(self) -> Iterator[Tuple[str, int, EventNode]]:
        """Yield ``(path, depth, node)`` in pre-order; ``path`` joins
        ``kind:label`` segments with ``/`` and identifies a node across
        reports."""

        def go(node: EventNode, prefix: str, depth: int):
            path = f"{prefix}/{node.kind}:{node.label}" if prefix else f"{node.kind}:{node.label}"
            yield path, depth, node
            for c in node.children.values():
                yield from go(c, path, depth + 1)

        for ev in self.events:
            yield from go(ev, "", 0)

    def flat(self) -> Dict[str, EventNode]:
        return {path: node for path, _, node in self.walk()}

    def total_duration(self) -> float:
        return sum(ev.total_duration() for ev in self.events)

    def total_volume(self) -> int:
        return sum(
            node.volume_bytes or 0 for _, _, node in self.walk()
        )

    def hotspots(self, top: int = 10) -> List[Tuple[str, EventNode]]:
        """Elements ranked by own wall-clock time, descending."""
        timed = [
            (path, node)
            for path, _, node in self.walk()
            if node.duration is not None
        ]
        timed.sort(key=lambda it: it[1].duration, reverse=True)
        return timed[:top]

    def structure(self) -> tuple:
        """Duration-free projection used for cross-backend consistency."""
        return tuple(ev.structure() for ev in self.events)

    # -------------------------------------------------------------- render
    def render(self) -> str:
        """Per-element hot-spot table (indented by tree depth)."""
        total = self.total_duration()
        lines = [
            f"instrumentation report for {self.sdfg!r}"
            + (f" [{self.backend}]" if self.backend else ""),
            f"{'element':44s} {'type':13s} {'count':>7s} {'iter':>10s} "
            f"{'bytes':>12s} {'time [ms]':>10s} {'%':>6s}",
        ]
        for path, depth, node in self.walk():
            name = "  " * depth + f"{node.kind} {node.label}"
            dur = f"{node.duration * 1e3:10.3f}" if node.duration is not None else " " * 10
            pct = (
                f"{100.0 * node.duration / total:6.1f}"
                if node.duration is not None and total > 0
                else " " * 6
            )
            iters = f"{node.iterations:>10d}" if node.iterations is not None else " " * 10
            vol = f"{node.volume_bytes:>12d}" if node.volume_bytes is not None else " " * 12
            lines.append(
                f"{name:44.44s} {node.itype:13s} {node.count:7d} {iters} {vol} {dur} {pct}"
            )
        if not self.events:
            lines.append("  (no events recorded)")
        else:
            lines.append(
                f"total instrumented time: {total * 1e3:.3f} ms, "
                f"bytes moved: {self.total_volume()}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------- (de)ser
    def to_json(self) -> Dict[str, Any]:
        out = {
            "schema": REPORT_SCHEMA_VERSION,
            "sdfg": self.sdfg,
            "backend": self.backend,
            "events": [ev.to_json() for ev in self.events],
        }
        if self.lowering:
            out["lowering"] = self.lowering
        return out

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "InstrumentationReport":
        if not isinstance(obj, dict) or "events" not in obj or "sdfg" not in obj:
            raise ValueError("not an instrumentation report (missing keys)")
        return InstrumentationReport(
            sdfg=obj["sdfg"],
            backend=obj.get("backend", ""),
            events=[EventNode.from_json(e) for e in obj["events"]],
            lowering=list(obj.get("lowering") or []),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2)

    @staticmethod
    def load(path: str) -> "InstrumentationReport":
        with open(path) as f:
            return InstrumentationReport.from_json(json.load(f))


# =====================================================================
# Report diffing (pre/post optimization comparison)
# =====================================================================


@dataclass
class DiffRow:
    path: str
    before: Optional[EventNode]
    after: Optional[EventNode]

    @property
    def delta(self) -> Optional[float]:
        if (
            self.before is None
            or self.after is None
            or self.before.duration is None
            or self.after.duration is None
        ):
            return None
        return self.after.duration - self.before.duration

    @property
    def speedup(self) -> Optional[float]:
        if self.delta is None or self.after.duration == 0:
            return None
        return self.before.duration / self.after.duration


def diff_reports(
    before: InstrumentationReport, after: InstrumentationReport
) -> List[DiffRow]:
    """Align two reports by event path.  Elements only present on one
    side (transformations rename/fuse scopes) appear with the other side
    ``None``."""
    a, b = before.flat(), after.flat()
    rows = [DiffRow(path, a[path], b.get(path)) for path in a]
    rows.extend(DiffRow(path, None, b[path]) for path in b if path not in a)
    rows.sort(key=lambda r: r.path)
    return rows


def render_diff(before: InstrumentationReport, after: InstrumentationReport) -> str:
    lines = [
        f"report diff: {before.sdfg!r} [{before.backend or '?'}] -> "
        f"{after.sdfg!r} [{after.backend or '?'}]",
        f"{'element':52s} {'before[ms]':>11s} {'after[ms]':>11s} "
        f"{'delta[ms]':>11s} {'speedup':>8s}",
    ]

    def ms(node: Optional[EventNode]) -> str:
        if node is None:
            return f"{'-':>11s}"
        if node.duration is None:
            return f"{'(untimed)':>11s}"
        return f"{node.duration * 1e3:11.3f}"

    for row in diff_reports(before, after):
        delta = f"{row.delta * 1e3:+11.3f}" if row.delta is not None else f"{'-':>11s}"
        speed = f"{row.speedup:7.2f}x" if row.speedup is not None else f"{'-':>8s}"
        lines.append(f"{row.path:52.52s} {ms(row.before)} {ms(row.after)} {delta} {speed}")
    tb, ta = before.total_duration(), after.total_duration()
    lines.append(
        f"total: {tb * 1e3:.3f} ms -> {ta * 1e3:.3f} ms "
        + (f"({tb / ta:.2f}x)" if ta > 0 else "")
    )
    return "\n".join(lines)

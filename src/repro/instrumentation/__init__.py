"""SDFG instrumentation: timers, counters, and data-movement volumes.

The paper's toolchain injects instrumentation into generated code so
performance reports can feed the optimization loop (§4.4, §5).  This
package provides:

* :class:`InstrumentationType` — per-element tags (SDFG, states,
  map/consume scopes, tasklets), persisted by the serializer;
* :class:`InstrumentationRecorder` — the shared event bus that the
  interpreter, generated Python modules, the compilation driver, and
  the guarded optimizer all report into;
* :class:`InstrumentationReport` — the JSON-serializable profile tree,
  with a hot-spot renderer and a pre/post-optimization differ
  (``python -m repro.report``).

Set ``REPRO_PROFILE=1`` before compiling to time every top-level SDFG
execution even when nothing is explicitly instrumented.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.instrumentation.recorder import EventNode, InstrumentationRecorder, KINDS
from repro.instrumentation.report import (
    InstrumentationReport,
    diff_reports,
    render_diff,
)
from repro.instrumentation.types import InstrumentationType
from repro.instrumentation.volume import (
    evaluate_volume,
    scope_volume_expr,
    state_volume_expr,
    tasklet_volume_expr,
)

__all__ = [
    "EventNode",
    "InstrumentationRecorder",
    "InstrumentationReport",
    "InstrumentationType",
    "KINDS",
    "diff_reports",
    "render_diff",
    "evaluate_volume",
    "scope_volume_expr",
    "state_volume_expr",
    "tasklet_volume_expr",
    "has_instrumentation",
    "instrument_map_scopes",
    "recording_plan",
]


def recording_plan(sdfg, profile: bool) -> Tuple[bool, Optional[str]]:
    """Whether runs of ``sdfg`` record events, and the type name of the
    whole-SDFG timer (None for none): the SDFG's own tag, else ``TIMER``
    when ``profile`` (``REPRO_PROFILE``) asks for it.  Artifacts decide
    this once, so a warm call neither walks the graph nor reads the
    environment."""
    itype = sdfg.instrument
    timer = itype.name if itype != InstrumentationType.NONE else None
    if timer is None and profile:
        timer = "TIMER"
    return timer is not None or has_instrumentation(sdfg), timer


def has_instrumentation(sdfg) -> bool:
    """True if the SDFG or any element (including nested) is instrumented."""
    from repro.sdfg.nodes import (
        ConsumeEntry,
        MapEntry,
        NestedSDFG,
        Tasklet,
    )

    if sdfg.instrument != InstrumentationType.NONE:
        return True
    for state in sdfg.nodes():
        if state.instrument != InstrumentationType.NONE:
            return True
        for node in state.nodes():
            if isinstance(node, MapEntry):
                if node.map.instrument != InstrumentationType.NONE:
                    return True
            elif isinstance(node, ConsumeEntry):
                if node.consume.instrument != InstrumentationType.NONE:
                    return True
            elif isinstance(node, Tasklet):
                if node.instrument != InstrumentationType.NONE:
                    return True
            elif isinstance(node, NestedSDFG):
                if has_instrumentation(node.sdfg):
                    return True
    return False


def instrument_map_scopes(
    sdfg, itype: InstrumentationType = InstrumentationType.TIMER
) -> int:
    """Tag every map/consume scope (including nested SDFGs); returns the
    number of scopes tagged.  Convenience used by the report CLI and the
    benchmark harness."""
    from repro.sdfg.nodes import ConsumeEntry, MapEntry, NestedSDFG

    n = 0
    for state in sdfg.nodes():
        for node in state.nodes():
            if isinstance(node, MapEntry):
                node.map.instrument = itype
                n += 1
            elif isinstance(node, ConsumeEntry):
                node.consume.instrument = itype
                n += 1
            elif isinstance(node, NestedSDFG):
                n += instrument_map_scopes(node.sdfg, itype)
    return n

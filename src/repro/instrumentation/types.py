"""Instrumentation types attachable to SDFG elements (paper §4.4/§5).

The paper's toolchain injects timers and counters into generated code to
feed performance reports and DIODE's optimization loop.  Here every
instrumentable IR element (the SDFG itself, states, map/consume scopes,
tasklets) carries an :class:`InstrumentationType` that both executing
backends honor:

* ``TIMER`` — wall-clock duration of every execution of the element,
  plus everything the cheaper types record (execution count, iteration
  count, memlet volume).  The most informative and most intrusive type.
* ``COUNTER`` — execution and iteration counts only; no clock calls.
* ``MEMLET_VOLUME`` — statically-derived bytes moved across the
  element's boundary (from propagated memlet volumes), accumulated per
  execution.  Identical across backends by construction, since both
  evaluate the same symbolic expression.
* ``NONE`` — not instrumented (the default everywhere).
"""

from __future__ import annotations

import enum


class InstrumentationType(enum.Enum):
    """What to record about an SDFG element's executions."""

    NONE = "NONE"
    TIMER = "TIMER"
    COUNTER = "COUNTER"
    MEMLET_VOLUME = "MEMLET_VOLUME"

    def records_time(self) -> bool:
        return self is InstrumentationType.TIMER

    def records_volume(self) -> bool:
        return self in (InstrumentationType.TIMER, InstrumentationType.MEMLET_VOLUME)

    def records_iterations(self) -> bool:
        return self in (InstrumentationType.TIMER, InstrumentationType.COUNTER)

"""Pass loop shared by the workload run and the serve layer probe.

Shape of a run: set-up (build everything, warm-up passes) → a fixed
number of timed passes (a count, never a time limit, so the amount of
work repeats exactly) → teardown.  The tree-CPU clock is read at pass
boundaries; ``gc.collect()``, the workload's own preparation and the
machine-speed calibration run between passes, outside the timed window.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import Any, Dict, List

import numpy as np

from bench import clock
from bench.workloads import Outcome, Workload


class PassResult:
    __slots__ = ("cpu", "tick_cpu", "child_cpu", "wall", "calib_ms", "outcomes", "traced")

    def __init__(self, cpu: float, tick_cpu: float, child_cpu: float, wall: float,
                 calib_ms: float, outcomes: List[Outcome], traced: bool):
        #: Tree CPU seconds of the pass, the calibrator's ticks taken out.
        self.cpu = cpu
        #: CPU seconds the calibrator's ticks burned inside the window.
        self.tick_cpu = tick_cpu
        self.child_cpu = child_cpu
        #: Wall seconds of the timed window (ticks included).
        self.wall = wall
        #: CPU ms a calibration unit took during this pass.
        self.calib_ms = calib_ms
        self.outcomes = outcomes
        self.traced = traced

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the machine ran just now."""
        return self.calib_ms / clock.CALIB_REFERENCE_MS

    @property
    def raw_cpu_ms_per_op(self) -> float:
        return self.cpu * 1e3 / len(self.outcomes)

    @property
    def cpu_ms_per_op(self) -> float:
        """CPU ms per op at the reference machine speed."""
        return self.raw_cpu_ms_per_op / self.slowdown


def run_pass(w: Workload, order: List[int], verify: bool) -> PassResult:
    """One pass of ``w``; with ``verify`` every op's output is compared
    with its reference afterwards, and a mismatch clears its ``ok``."""
    w.begin_pass()
    gc.collect()
    kids0 = clock.children_cpu()
    w.calibrator.begin(w.BRACKET_UNITS)
    wall0 = time.perf_counter()
    own0 = time.process_time()
    outcomes = w.run_pass(order)  # ticks the calibrator between ops
    own = time.process_time() - own0
    wall = time.perf_counter() - wall0
    ticks = w.calibrator.spent
    w.calibrator.end(w.BRACKET_UNITS)
    kids = clock.children_cpu() - kids0
    for o in outcomes:
        if o.error:
            print(f"bench: op {w.ops[o.index]} raised:\n{o.error}", file=sys.stderr)
        elif verify and o.ok and not _matches(w, o):
            o.ok = False
            print(f"bench: op {w.ops[o.index]} does not match its reference",
                  file=sys.stderr)
        o.output = None  # checked; holding every pass's arrays would grow RSS
    return PassResult(own - ticks + kids, ticks, kids, wall,
                      w.calibrator.ms_per_unit(), outcomes, w.tracer.enabled)


def _matches(w: Workload, o: Outcome) -> bool:
    try:
        return bool(w.check(o.index, o.output))
    except Exception as err:  # noqa: BLE001 - an unverifiable output is a wrong one
        print(f"bench: checking {w.ops[o.index]} raised {err!r}", file=sys.stderr)
        return False


def shuffled_order(w: Workload) -> List[int]:
    """The op order of every pass: shuffled once from the seed."""
    return [int(i) for i in w.rng.permutation(len(w.ops))]


def timed_passes(w: Workload, order: List[int], count: int,
                 alternate_tracing: bool = False) -> List[PassResult]:
    """``count`` passes, the first, middle and last of them verified.
    With ``alternate_tracing`` odd passes record spans and even ones do
    not, so one run yields both sides of the tracing-overhead ratio."""
    verified = {0, count // 2, count - 1}
    traced = w.tracer.enabled
    results = []
    for i in range(count):
        if alternate_tracing:
            w.tracer.enabled = bool(i % 2)
        results.append(run_pass(w, order, verify=i in verified))
    w.tracer.enabled = traced
    return results


def scaled_passes(w: Workload, seconds: float, run_seconds: int) -> int:
    """``--seconds`` scales the pass count from the manifest's
    ``run_seconds``; the count for a given ``--seconds`` is fixed."""
    return max(w.MIN_PASSES, round(w.PASSES * seconds / run_seconds))


def op_rows(w: Workload, passes: List[PassResult]) -> Dict[str, Dict[str, Any]]:
    """One row per op kind — for people, not manifest metrics."""
    by_kind: Dict[str, List[float]] = {}
    for p in passes:
        for o in p.outcomes:
            by_kind.setdefault(w.ops[o.index], []).append(o.ms)
    return {
        kind: {"count": len(ms), "p50_ms": statistics.median(ms),
               "p90_ms": float(np.percentile(ms, 90)), "clock": w.OP_CLOCK.__name__}
        for kind, ms in sorted(by_kind.items())
    }


def summarise(passes: List[PassResult]) -> Dict[str, Any]:
    attempted = sum(len(p.outcomes) for p in passes)
    ok = sum(o.ok for p in passes for o in p.outcomes)
    cpu = sum(p.cpu for p in passes)
    return {
        "passes": len(passes),
        "attempted": attempted,
        "failed": attempted - ok,
        "ok_share": ok / attempted,
        "cpu_ms": statistics.median(p.cpu_ms_per_op for p in passes),
        "raw_cpu_ms": statistics.median(p.raw_cpu_ms_per_op for p in passes),
        "calib_ms": statistics.median(p.calib_ms for p in passes),
        "timed_cpu_s": cpu,
        # Wall numbers include the calibrator's ticks, about a tenth.
        "wall_over_cpu": sum(p.wall for p in passes) / (cpu + sum(p.tick_cpu for p in passes)),
        "child_cpu_share": sum(p.child_cpu for p in passes) / cpu,
        "ops_per_wall_s": attempted / sum(p.wall for p in passes),
    }

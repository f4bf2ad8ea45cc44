"""Automatic optimization (the paper's §8 outlook: "research may be
conducted into [transformations'] systematic application, enabling
automatic optimization with reduced human intervention").

``auto_optimize_guarded`` is a deliberately simple greedy pilot of that
idea, and ``auto_optimize`` its in-place entry point:

1. strict cleanup pass (RedundantArray / StateFusion / InlineSDFG),
2. fuse producer/consumer maps and map+reduce pairs where legal,
3. collapse nested maps into wider parallel scopes,
4. mark every vectorizable map for the strongest backend lowering,
5. optionally offload the whole SDFG to a device.

Each application runs through :class:`~repro.transformations.guard.
GuardedOptimizer`, so one that fails validation (or differential
verification, when asked for) is rolled back; the applied chain is
recorded in ``sdfg.transformation_history`` for inspection and replay.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.sdfg.sdfg import restore_sdfg_inplace
from repro.transformations.guard import GuardedOptimizer


def auto_optimize(
    sdfg,
    device: Optional[str] = None,
    validate: bool = True,
    strategy: str = "fixed",
    **tune_kwargs,
) -> int:
    """Automatic optimization pass, in place.  Returns the number of
    transformations applied.  ``device`` may be ``"gpu"`` or ``"fpga"``.

    ``strategy`` selects between the fixed greedy recipe of
    :func:`auto_optimize_guarded` (``"fixed"``, the default) and the
    cost-guided search of :func:`repro.tuning.tune` (``"search"``),
    which explores legal transformation sequences; its best-scoring
    graph replaces the caller's.  Extra keyword arguments (``cost``,
    ``depth``, ``budget``, ``cache_dir``, ...) are forwarded to
    ``tune``.  Either way the device offload is the same guarded step.
    """
    if strategy == "fixed":
        applied = len(auto_optimize_guarded(sdfg, device=device).applied())
    elif strategy == "search":
        from repro.tuning import tune

        result = tune(sdfg, **tune_kwargs)
        restore_sdfg_inplace(sdfg, result.sdfg)
        guard = GuardedOptimizer(sdfg)
        _offload(guard, device)
        applied = len(result.history) + len(guard.report.applied())
    else:
        raise ValueError(f"unknown auto-optimize strategy {strategy!r}")
    if validate:
        sdfg.propagate()
        sdfg.validate()
    return applied


def auto_optimize_guarded(
    sdfg,
    device: Optional[str] = None,
    verify: bool = False,
    verify_inputs: Optional[Mapping[str, Any]] = None,
    tolerance: float = 1e-8,
):
    """The fixed auto-optimization recipe, applied transactionally.

    Every application is snapshotted, re-validated, optionally
    differentially verified, and rolled back on failure — safe to run
    unattended.  Returns the :class:`~repro.transformations.guard.
    GuardReport` with every attempt recorded (and its phase timings);
    the number applied is ``len(report.applied())``.
    """
    guard = GuardedOptimizer(
        sdfg,
        verify=verify,
        verify_inputs=verify_inputs,
        tolerance=tolerance,
    )
    guard.apply_to_fixpoint()  # strict cleanup set
    guard.apply_to_fixpoint(["MapReduceFusion", "MapFusion"], max_applications=50)
    guard.apply_to_fixpoint(["MapCollapse"], max_applications=50)
    guard.apply_to_fixpoint(["Vectorization"], max_applications=50)
    _offload(guard, device)
    return guard.report


def _offload(guard, device: Optional[str]) -> None:
    """The recipe's last step: offload the whole SDFG to ``device``."""
    if device == "gpu":
        guard.apply("GPUTransform")
    elif device == "fpga":
        guard.apply("FPGATransform")

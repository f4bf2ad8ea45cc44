"""Cutout tuning: tune each unique kernel of a program once and stitch
the winners back.

The pipeline (``tune(strategy="cutout")``):

1. **extract** — every non-empty state becomes a standalone cutout SDFG
   (:mod:`repro.tuning.cutout`); unsupported regions degrade to W1001
   warnings and are left untuned;
2. **group** — cutouts are deduplicated by normalized content hash, so a
   kernel appearing k times in the program is tuned once, not k times;
3. **tune** — one greedy search per unique cutout, one after another in
   this process.  The searches share one
   :class:`~repro.tuning.cache.TuningCache` and, under measured cost,
   the :class:`~repro.codegen.progcache.ProgramCache` beside it, so a
   re-run of the same program is a pure cache hit without any search.
   Every outcome is data: a search that raises is an ``error`` outcome
   whose region stays untuned;
4. **stitch** — each group's winning ``(transformation, match-index)``
   history is replayed onto every member's parent state.  Extraction is
   node-order preserving and match enumeration is deterministic, so the
   cutout's k-th in-state match *is* the parent state's k-th in-state
   match; each step enumerates the program's matches once, translates
   the in-state index to a global one and applies that very match
   through :class:`~repro.transformations.guard.GuardedOptimizer`.
   A member whose translation fails (e.g. a transformation whose
   applicability saw whole-SDFG context) is rolled back and recorded as
   W1002 — the region is simply left untuned;
5. **verify** — the fully stitched program is differentially verified
   against the original at 1e-8
   (:func:`~repro.transformations.guard.differential_check`, the
   guard's own check); on mismatch, or when the original cannot run on
   the verification inputs (nothing was verified; the W1002 names the
   original's exception), the whole result reverts to the baseline with
   a W1002, and ``cutouts.stitched`` counts no stitch as kept.

The program's pre-image is one :meth:`SDFG.copy` of the input: the
stitched program starts as a copy of it, verification runs a copy of
it, and a revert transplants a copy of it.  Each member is rolled back
from a copy taken before its first step.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.diagnostics import make_diagnostic, Severity
from repro.sdfg.sdfg import restore_sdfg_inplace
from repro.telemetry.sink import active_sink
from repro.transformations.guard import GuardedOptimizer, differential_check
from repro.transformations.optimizer import enumerate_matches
from repro.tuning.cache import TuningCache
from repro.tuning.cost import CostProvider, MeasuredCost, resolve_provider
from repro.tuning.cutout import Cutout, extract_state_cutouts, group_cutouts
from repro.tuning.report import TuningReport

#: Transformations that cannot help inside a single-state cutout (and
#: would waste enumeration time per cutout) on top of the default
#: hardware-offload exclusions.
CUTOUT_POOL_EXCLUDED = frozenset(
    {"FPGATransform", "GPUTransform", "MPITransform", "StateFusion"}
)


def cutout_pool() -> List[str]:
    """Default transformation pool for per-cutout searches."""
    from repro.transformations.base import REGISTRY

    return sorted(n for n in REGISTRY if n not in CUTOUT_POOL_EXCLUDED)


def _cutout_provider(provider: CostProvider, cache_dir: Optional[str]) -> CostProvider:
    """The provider every cutout search scores with.

    A :class:`MeasuredCost` drops its explicit inputs: they are keyed by
    parent container names, which do not exist inside a cutout, so the
    search synthesizes boundary inputs from the cutout's own argument
    descriptors instead.  With a cache dir it compiles through the
    ``programs`` tier under it.  Other providers are used as given.
    """
    if not isinstance(provider, MeasuredCost):
        return provider
    provider = copy.copy(provider)
    provider.inputs = None
    if cache_dir is not None:
        from repro.codegen.progcache import ProgramCache

        progcache_dir = os.path.join(cache_dir, "programs")
        os.makedirs(progcache_dir, exist_ok=True)
        provider.program_cache = ProgramCache(cache_dir=progcache_dir)
    return provider


def _tune_one_cutout(
    cutout: Cutout,
    provider: CostProvider,
    config,
    cache: Optional[TuningCache],
) -> Dict[str, Any]:
    """Search one cutout and return its outcome as plain data."""
    from repro.tuning.search import tune

    result = tune(cutout.sdfg, cost=provider, config=config, cache=cache)
    return {
        "history": list(result.history),
        "baseline": result.baseline_score,
        "best": result.best_score,
        "cache_hit": result.cache_hit,
        "evals": result.report.budget_used,
        "transformations": dict(result.report.transformations),
    }


# =====================================================================
# Stitching
# =====================================================================


class _Unstitchable(Exception):
    """A stitch step that cannot be applied to the parent; its message
    is the W1002 reason."""


def _stitch_member(
    tuned,
    member: Cutout,
    history: Sequence[Mapping[str, Any]],
    verify: bool,
) -> Tuple[Optional[List[Dict[str, Any]]], str]:
    """Replay a cutout-local history onto one parent state.

    Translates each step's in-state match index to the global index over
    the whole (evolving) program and applies that match transactionally
    (each step enumerates once).  Returns ``(global_history, "")`` on
    success or ``(None, reason)`` with the member fully rolled back to a
    copy taken before its first step.
    """
    pre_image = tuned.copy()
    guard = GuardedOptimizer(tuned, verify=verify)
    applied: List[Dict[str, Any]] = []
    try:
        for entry in history:
            name = entry["transformation"]
            local_index = int(entry.get("match", 0))
            state = next(
                (s for s in tuned.nodes() if s.name == member.state_name), None
            )
            if state is None:
                raise _Unstitchable(
                    f"state {member.state_name!r} vanished from the parent"
                )
            try:
                matches = enumerate_matches(tuned, name)
            except Exception as err:  # noqa: BLE001
                raise _Unstitchable(
                    f"match enumeration failed: {type(err).__name__}: {err}"
                ) from err
            in_state = [
                gi for gi, inst in enumerate(matches) if inst.state is state
            ]
            if local_index >= len(in_state):
                raise _Unstitchable(
                    f"{name}[{local_index}] has no counterpart in state "
                    f"{member.state_name!r} ({len(in_state)} in-state matches)"
                )
            global_index = in_state[local_index]
            if not guard.apply_rebound(matches[global_index]):
                attempt = guard.report.attempts[-1]
                raise _Unstitchable(
                    f"{name}[{local_index}] rolled back on the parent: "
                    f"{attempt.reason or attempt.status}"
                )
            applied.append({"transformation": name, "match": global_index})
    except _Unstitchable as failure:
        restore_sdfg_inplace(tuned, pre_image)
        return None, str(failure)
    return applied, ""


# =====================================================================
# Driver
# =====================================================================


def tune_cutouts(
    sdfg,
    cost: Any = "measured",
    config=None,
    cache_dir: Optional[str] = None,
    cache: Optional[TuningCache] = None,
    inputs: Optional[Mapping[str, Any]] = None,
    machine: str = "cpu",
    symbols: Optional[Mapping[str, int]] = None,
):
    """Cutout tuning of a (multi-state) program; the
    ``strategy="cutout"`` driver behind :func:`repro.tuning.tune`.

    ``config.budget`` is the evaluation budget *per unique cutout* (the
    per-cutout searches are independent).  ``sdfg`` is never mutated:
    the stitched program is a copy of it, and a stitched program that
    fails verification, or that could not be verified, is reverted to
    the baseline.  Returns a
    :class:`~repro.tuning.search.TuningResult` whose ``history`` holds
    the stitched global replayable chain and whose report carries a
    ``cutouts`` section (dedup counts, per-cutout outcomes) next to the
    usual fields.
    """
    from repro.tuning.search import TuningConfig, TuningResult, _SearchState

    provider = resolve_provider(cost, inputs=inputs, machine=machine, symbols=symbols)
    cfg = config or TuningConfig(strategy="cutout")
    sink = active_sink()

    base = sdfg.copy()
    report = TuningReport(
        sdfg=sdfg.name,
        strategy="cutout",
        cost=provider.key(),
        config=cfg.to_json(),
        budget=cfg.budget,
    )

    t_start = time.perf_counter()
    cutouts, warnings = extract_state_cutouts(sdfg)
    cutouts = [c for c in cutouts if not c.is_trivial]
    groups = group_cutouts(cutouts)

    sub_config = dataclasses.replace(
        cfg,
        strategy="greedy",
        transformations=(
            list(cfg.transformations)
            if cfg.transformations is not None
            else cutout_pool()
        ),
    )
    if cache is None and cache_dir is not None:
        cache = TuningCache(cache_dir)
    cut_provider = _cutout_provider(
        provider, cache.cache_dir if cache is not None else None
    )

    if sink is not None:
        sink.publish(
            "tuning",
            "cutout:dedup",
            fields={
                "total": len(cutouts),
                "unique": len(groups),
                "saved": len(cutouts) - len(groups),
            },
        )

    # ------------------------------------------------- tune and stitch
    tuned = base.copy()
    stitched_history: List[Dict[str, Any]] = []
    per_cutout: List[Dict[str, Any]] = []
    totals = _SearchState(cfg.budget)
    for members in groups.values():
        start = time.perf_counter()
        try:
            outcome = _tune_one_cutout(members[0], cut_provider, sub_config, cache)
        except Exception as err:  # noqa: BLE001 - a failed search is an outcome
            outcome = {"error": f"{type(err).__name__}: {err}"}
        record = {
            "label": members[0].label,
            "members": [m.label for m in members],
            "history": list(outcome.get("history", ())),
            "baseline": outcome.get("baseline"),
            "best": outcome.get("best"),
            "cache_hit": bool(outcome.get("cache_hit")),
            "evals": int(outcome.get("evals", 0)),
            "wall": time.perf_counter() - start,
            "stitched": [],
            "failures": [],
        }
        if "error" in outcome:
            record["error"] = outcome["error"]
        totals.absorb(record["evals"], outcome.get("transformations", {}))
        history = record["history"]
        if history and "error" not in outcome:
            for member in members:
                applied, reason = _stitch_member(
                    tuned, member, history, verify=cfg.verify
                )
                if applied is None:
                    diag = make_diagnostic(
                        "W1002",
                        f"stitching tuned cutout onto state "
                        f"{member.state_name!r} failed: {reason}",
                        Severity.WARNING,
                        sdfg=sdfg,
                        state=member.state_name,
                    )
                    warnings.append(diag)
                    record["failures"].append(
                        {"member": member.label, "reason": reason}
                    )
                else:
                    stitched_history.extend(applied)
                    record["stitched"].append(member.label)
        per_cutout.append(record)
        if sink is not None:
            sink.publish(
                "tuning",
                f"cutout:{record['label']}",
                record["wall"],
                fields={
                    "members": len(members),
                    "evals": record["evals"],
                    "cache_hit": record["cache_hit"],
                    "stitched": len(record["stitched"]),
                },
            )

    # ------------------------------------------------------------ verify
    verification = "not_run"
    if stitched_history:
        verdict, reason, max_err = differential_check(base, tuned, inputs, 1e-8)
        if verdict == "ok":
            verification = f"ok (max abs error {max_err:.3e})"
        else:
            verification = f"{verdict}: {reason}"
            warnings.append(
                make_diagnostic(
                    "W1002",
                    f"stitched program not verified ({verification}); "
                    "reverting to the baseline",
                    Severity.WARNING,
                    sdfg=sdfg,
                )
            )
            restore_sdfg_inplace(tuned, base)
            stitched_history = []

    # ------------------------------------------------------- score/report
    baseline_score: Optional[float] = None
    best_score: Optional[float] = None
    try:
        baseline_score = provider.score(base)
        best_score = (
            provider.score(tuned.copy())
            if stitched_history
            else baseline_score
        )
    except Exception:  # noqa: BLE001 - scoring is informational here
        pass

    total_wall = time.perf_counter() - t_start
    report.baseline_score = baseline_score
    report.best_score = best_score
    report.winner = list(stitched_history)
    report.budget_used = totals.evals
    report.transformations = totals.xform_stats()
    all_hit = bool(groups) and all(r["cache_hit"] for r in per_cutout)
    report.cache = {
        "enabled": cache is not None,
        "hit": all_hit,
        "hits": sum(1 for r in per_cutout if r["cache_hit"]),
        "misses": sum(1 for r in per_cutout if not r["cache_hit"]),
    }
    report.cutouts = {
        "total": len(cutouts),
        "unique": len(groups),
        "deduplicated": len(cutouts) - len(groups),
        # Member stitches kept in the result: none after a revert.
        "stitched": (
            sum(len(r["stitched"]) for r in per_cutout) if stitched_history else 0
        ),
        "wall": round(total_wall, 6),
        "verification": verification,
        "per_cutout": per_cutout,
        "warnings": [d.to_json() for d in warnings],
    }

    return TuningResult(
        sdfg=tuned,
        history=stitched_history,
        baseline_score=baseline_score,
        best_score=best_score,
        cache_hit=all_hit,
        cache_key=None,
        report=report,
    )

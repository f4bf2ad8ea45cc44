"""Parallel cutout tuning: tune each unique kernel of a program once,
in worker processes, and stitch the winners back.

The pipeline (``tune(strategy="cutout", jobs=N)``):

1. **extract** — every non-empty state becomes a standalone cutout SDFG
   (:mod:`repro.tuning.cutout`); unsupported regions degrade to W1001
   warnings and are left untuned;
2. **group** — cutouts are deduplicated by normalized content hash, so a
   kernel appearing k times in the program is tuned once, not k times;
3. **tune** — one greedy/beam search per unique cutout, fanned across a
   fork-context :class:`~concurrent.futures.ProcessPoolExecutor`; workers
   share the flock-guarded :class:`~repro.tuning.cache.TuningCache` and
   (through the disk tier) the :class:`~repro.codegen.progcache.
   ProgramCache`, so a re-run of the same program is a pure cache hit
   without any search.  Every outcome is data: a search that raises, or
   a cutout lost with a dead worker (``BrokenProcessPool``), is an
   ``error`` outcome whose region stays untuned;
4. **stitch** — each group's winning ``(transformation, match-index)``
   history is replayed onto every member's parent state.  Extraction is
   node-order preserving and match enumeration is deterministic, so the
   cutout's k-th in-state match *is* the parent state's k-th in-state
   match; the replay translates in-state indices to global ones and
   applies through :class:`~repro.transformations.guard.GuardedOptimizer`.
   A member whose translation fails (e.g. a transformation whose
   applicability saw whole-SDFG context) is rolled back and recorded as
   W1002 — the region is simply left untuned;
5. **verify** — the fully stitched program is differentially verified
   against the original at 1e-8; on mismatch the whole result reverts
   to the baseline.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.diagnostics import make_diagnostic, Severity
from repro.instrumentation import InstrumentationRecorder
from repro.sdfg.serialize import restore_sdfg_inplace, sdfg_from_json, sdfg_to_json
from repro.telemetry.sink import active_sink
from repro.transformations.guard import VERIFY_SKIPPED, GuardedOptimizer
from repro.transformations.optimizer import enumerate_matches
from repro.tuning.cache import TuningCache
from repro.tuning.cost import AnalyticCost, CostProvider, MeasuredCost, resolve_provider
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


# =====================================================================
# Worker side
# =====================================================================


def _provider_spec(provider: CostProvider) -> Optional[Dict[str, Any]]:
    """A picklable recipe rebuilding an equivalent provider in a worker.

    Explicit measurement inputs are *dropped*: they are keyed by parent
    container names, which do not exist inside a cutout — workers
    synthesize boundary inputs from the cutout's own argument
    descriptors instead.  Returns None for custom providers (those tune
    in-process).
    """
    if isinstance(provider, MeasuredCost):
        return {
            "kind": "measured",
            "symbol_default": provider.symbol_default,
            "seed": provider.seed,
            "repeats": provider.repeats,
            "backend": provider.backend,
            "program_cache": (
                provider.program_cache
                if isinstance(provider.program_cache, str)
                else "memory"
            ),
        }
    if isinstance(provider, AnalyticCost):
        return {
            "kind": "analytic",
            "machine": provider.machine,
            "symbols": dict(provider.symbols),
            "symbol_default": provider.symbol_default,
            "naive_fpga": provider.naive_fpga,
        }
    return None


def _spec_provider(spec: Dict[str, Any], progcache_dir: Optional[str]) -> CostProvider:
    if spec["kind"] == "measured":
        program_cache: Any = spec["program_cache"]
        if progcache_dir is not None:
            from repro.codegen.progcache import ProgramCache

            os.makedirs(progcache_dir, exist_ok=True)
            program_cache = ProgramCache(cache_dir=progcache_dir)
        return MeasuredCost(
            symbol_default=spec["symbol_default"],
            seed=spec["seed"],
            repeats=spec["repeats"],
            backend=spec["backend"],
            program_cache=program_cache,
        )
    return AnalyticCost(
        machine=spec["machine"],
        symbols=spec["symbols"],
        symbol_default=spec["symbol_default"],
        naive_fpga=spec["naive_fpga"],
    )


def _tune_one_cutout(payload: Dict[str, Any], provider: CostProvider) -> Dict[str, Any]:
    """Tune one cutout and return a plain-data outcome."""
    from repro.tuning.search import TuningConfig, tune

    start = time.perf_counter()
    cut_sdfg = sdfg_from_json(payload["sdfg"])
    cfg = TuningConfig(**payload["config"])
    result = tune(
        cut_sdfg,
        cost=provider,
        config=cfg,
        cache_dir=payload["cache_dir"],
    )
    return {
        "group": payload["group"],
        "label": payload["label"],
        "history": list(result.history),
        "baseline": result.baseline_score,
        "best": result.best_score,
        "cache_hit": result.cache_hit,
        "evals": result.report.budget_used,
        "transformations": dict(
            getattr(result.report, "transformations", {}) or {}
        ),
        "wall": time.perf_counter() - start,
        "pid": os.getpid(),
    }


def _error_outcome(payload: Dict[str, Any], err: BaseException) -> Dict[str, Any]:
    return {
        "group": payload["group"],
        "label": payload["label"],
        "error": f"{type(err).__name__}: {err}",
        "wall": 0.0,
    }


def _tune_cutout_worker(
    payload: Dict[str, Any], provider: Optional[CostProvider] = None
) -> Dict[str, Any]:
    """Tune one cutout without raising (errors come back as data).  Pool
    workers rebuild the provider from the payload's spec."""
    try:
        if provider is None:
            provider = _spec_provider(payload["provider"], payload["progcache_dir"])
        return _tune_one_cutout(payload, provider)
    except Exception as err:  # noqa: BLE001 - worker failures are outcomes
        return _error_outcome(payload, err)


def exit_with_parent() -> None:
    """Worker initializer: exit when the parent process dies.

    An executor's workers block reading a task queue whose write end
    they inherited, so they never see EOF when the parent is killed;
    left alone they would outlive it and hold its pipes open.  A daemon
    thread waits on the parent's sentinel instead.
    """
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _fan_out(payloads: List[Dict[str, Any]], workers: int) -> List[Dict[str, Any]]:
    """Tune the payloads on a process pool, one outcome per payload in
    order; a payload lost with a dead worker is an error outcome."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    outcomes = []
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=ctx, initializer=exit_with_parent
    ) as pool:
        futures = [pool.submit(_tune_cutout_worker, p) for p in payloads]
        for payload, future in zip(payloads, futures):
            try:
                outcomes.append(future.result())
            except Exception as err:  # noqa: BLE001 - e.g. BrokenProcessPool
                outcomes.append(_error_outcome(payload, err))
    return outcomes


# =====================================================================
# Stitching
# =====================================================================


def _stitch_member(
    tuned,
    member: Cutout,
    history: Sequence[Mapping[str, Any]],
    verify: bool,
) -> Tuple[Optional[List[Dict[str, Any]]], str]:
    """Replay a cutout-local history onto one parent state.

    Translates each step's in-state match index to the global index over
    the whole (evolving) program and applies it transactionally.
    Returns ``(global_history, "")`` on success or ``(None, reason)``
    with the member fully rolled back.
    """
    snapshot = sdfg_to_json(tuned)
    guard = GuardedOptimizer(tuned, verify=verify)
    applied: List[Dict[str, Any]] = []
    for entry in history:
        name = entry["transformation"]
        local_index = int(entry.get("match", 0))
        state = next(
            (s for s in tuned.nodes() if s.name == member.state_name), None
        )
        if state is None:
            restore_sdfg_inplace(tuned, snapshot)
            return None, f"state {member.state_name!r} vanished from the parent"
        try:
            matches = enumerate_matches(tuned, name)
        except Exception as err:  # noqa: BLE001
            restore_sdfg_inplace(tuned, snapshot)
            return None, f"match enumeration failed: {type(err).__name__}: {err}"
        in_state = [
            gi for gi, inst in enumerate(matches) if inst.state is state
        ]
        if local_index >= len(in_state):
            restore_sdfg_inplace(tuned, snapshot)
            return None, (
                f"{name}[{local_index}] has no counterpart in state "
                f"{member.state_name!r} ({len(in_state)} in-state matches)"
            )
        global_index = in_state[local_index]
        if not guard.apply(name, match_index=global_index):
            attempt = guard.report.attempts[-1]
            restore_sdfg_inplace(tuned, snapshot)
            return None, (
                f"{name}[{local_index}] rolled back on the parent: "
                f"{attempt.reason or attempt.status}"
            )
        applied.append({"transformation": name, "match": global_index})
    return applied, ""


# =====================================================================
# Driver
# =====================================================================


def tune_cutouts(
    sdfg,
    cost: Any = "measured",
    jobs: int = 1,
    config=None,
    cache_dir: Optional[str] = None,
    cache: Optional[TuningCache] = None,
    inputs: Optional[Mapping[str, Any]] = None,
    machine: str = "cpu",
    symbols: Optional[Mapping[str, int]] = None,
    recorder: Optional[InstrumentationRecorder] = None,
):
    """Cutout-parallel tuning of a (multi-state) program; the
    ``strategy="cutout"`` driver behind :func:`repro.tuning.tune`.

    ``config.budget`` is the evaluation budget *per unique cutout* (the
    per-cutout searches are independent).  Returns a
    :class:`~repro.tuning.search.TuningResult` whose ``history`` holds
    the stitched global replayable chain and whose report carries a
    ``cutouts`` section (dedup counts, per-cutout outcomes, pool
    utilization) next to the usual fields.
    """
    from repro.tuning.search import TuningConfig, TuningResult

    provider = resolve_provider(cost, inputs=inputs, machine=machine, symbols=symbols)
    cfg = config or TuningConfig(strategy="cutout")
    jobs = max(1, int(jobs))
    recorder = recorder if recorder is not None else InstrumentationRecorder()
    sink = active_sink()

    base_json = sdfg_to_json(sdfg)
    report = TuningReport(
        sdfg=sdfg.name,
        strategy="cutout",
        cost=provider.key(),
        config=dict(cfg.to_json(), jobs=jobs),
        budget=cfg.budget,
    )

    t_start = time.perf_counter()
    cutouts, warnings = extract_state_cutouts(sdfg)
    cutouts = [c for c in cutouts if not c.is_trivial]
    groups = group_cutouts(cutouts)

    sub_config = {
        "strategy": "greedy",
        "depth": cfg.depth,
        "beam_width": cfg.beam_width,
        "budget": cfg.budget,
        "max_matches": cfg.max_matches,
        "min_improvement": cfg.min_improvement,
        "transformations": (
            list(cfg.transformations)
            if cfg.transformations is not None
            else cutout_pool()
        ),
        "verify": cfg.verify,
    }
    if cache is not None and cache_dir is None:
        cache_dir = cache.cache_dir
    progcache_dir = (
        os.path.join(cache_dir, "programs") if cache_dir is not None else None
    )
    spec = _provider_spec(provider)

    payloads = []
    for ghash, members in groups.items():
        rep = members[0]
        payloads.append(
            {
                "group": ghash,
                "label": rep.label,
                "sdfg": sdfg_to_json(rep.sdfg),
                "config": sub_config,
                "cache_dir": cache_dir,
                "progcache_dir": progcache_dir,
                "provider": spec,
            }
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

    # ------------------------------------------------------------- tune
    if spec is None or jobs == 1 or len(payloads) <= 1:
        # In-process: custom (unpicklable) providers tune here too.
        outcomes = [
            _tune_cutout_worker(p, provider if spec is None else None)
            for p in payloads
        ]
    else:
        outcomes = _fan_out(payloads, min(jobs, len(payloads)))

    pool_wall = time.perf_counter() - t_start
    by_group = {o["group"]: o for o in outcomes}

    # ------------------------------------------------------------ stitch
    tuned = sdfg_from_json(base_json)
    stitched_history: List[Dict[str, Any]] = []
    per_cutout: List[Dict[str, Any]] = []
    merged_xforms: Dict[str, Dict[str, float]] = {}
    n_stitched = 0
    for ghash, members in groups.items():
        outcome = by_group.get(ghash) or {"error": "no outcome", "wall": 0.0}
        record = {
            "label": members[0].label,
            "members": [m.label for m in members],
            "history": list(outcome.get("history", ())),
            "baseline": outcome.get("baseline"),
            "best": outcome.get("best"),
            "cache_hit": bool(outcome.get("cache_hit")),
            "evals": int(outcome.get("evals", 0)),
            "wall": float(outcome.get("wall", 0.0)),
            "stitched": [],
            "failures": [],
        }
        if "error" in outcome:
            record["error"] = outcome["error"]
        for name, stats in (outcome.get("transformations") or {}).items():
            agg = merged_xforms.setdefault(
                name,
                {"candidates": 0, "accepted": 0, "rejected": 0,
                 "apply_s": 0.0, "evaluate_s": 0.0},
            )
            for field in agg:
                agg[field] += stats.get(field, 0)
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
                    n_stitched += 1
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
        guard = GuardedOptimizer(
            tuned, verify=True, verify_inputs=inputs, tolerance=1e-8
        )
        failure, max_err = guard._differential_check(base_json)
        if failure is VERIFY_SKIPPED:
            verification = "skipped"
        elif failure is not None:
            verification = f"failed: {failure}"
            warnings.append(
                make_diagnostic(
                    "W1002",
                    "stitched program failed differential verification "
                    f"({failure}); reverting to the baseline",
                    Severity.WARNING,
                    sdfg=sdfg,
                )
            )
            restore_sdfg_inplace(tuned, base_json)
            stitched_history = []
        else:
            verification = f"ok (max abs error {max_err:.3e})"

    # ------------------------------------------------------- score/report
    baseline_score: Optional[float] = None
    best_score: Optional[float] = None
    try:
        baseline_score = provider.score(sdfg_from_json(base_json))
        best_score = (
            provider.score(sdfg_from_json(sdfg_to_json(tuned)))
            if stitched_history
            else baseline_score
        )
    except Exception:  # noqa: BLE001 - scoring is informational here
        pass

    total_wall = time.perf_counter() - t_start
    busy = sum(r["wall"] for r in per_cutout)
    utilization = (
        busy / (jobs * pool_wall) if jobs > 0 and pool_wall > 0 else 0.0
    )
    report.baseline_score = baseline_score
    report.best_score = best_score
    report.winner = list(stitched_history)
    report.budget_used = sum(r["evals"] for r in per_cutout)
    report.transformations = {
        name: {
            "candidates": int(stats["candidates"]),
            "accepted": int(stats["accepted"]),
            "rejected": int(stats["rejected"]),
            "apply_s": round(float(stats["apply_s"]), 6),
            "evaluate_s": round(float(stats["evaluate_s"]), 6),
        }
        for name, stats in sorted(merged_xforms.items())
    }
    all_hit = bool(groups) and all(r["cache_hit"] for r in per_cutout)
    report.cache = {
        "enabled": cache_dir is not None,
        "hit": all_hit,
        "hits": sum(1 for r in per_cutout if r["cache_hit"]),
        "misses": sum(1 for r in per_cutout if not r["cache_hit"]),
    }
    report.cutouts = {
        "total": len(cutouts),
        "unique": len(groups),
        "deduplicated": len(cutouts) - len(groups),
        "stitched": n_stitched,
        "jobs": jobs,
        "wall": round(total_wall, 6),
        "pool_wall": round(pool_wall, 6),
        "utilization": round(utilization, 4),
        "verification": verification,
        "per_cutout": per_cutout,
        "warnings": [d.to_json() for d in warnings],
    }

    if sink is not None:
        sink.publish(
            "tuning",
            "cutout:pool",
            pool_wall,
            fields={
                "jobs": jobs,
                "tasks": len(groups),
                "utilization": round(utilization, 4),
            },
        )

    return TuningResult(
        sdfg=tuned,
        history=stitched_history,
        baseline_score=baseline_score,
        best_score=best_score,
        cache_hit=all_hit,
        cache_key=None,
        report=report,
    )

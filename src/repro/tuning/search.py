"""Search drivers for the transformation auto-tuner.

The paper's §8 outlook asks for "systematic application [of
transformations], enabling automatic optimization with reduced human
intervention"; this module is that systematic application.  Instead of
the fixed greedy recipe of ``auto_optimize``, :func:`tune` *searches*
the space of legal transformation sequences:

1. every candidate step is one ``(transformation, match index)`` pair
   from the deterministic :func:`enumerate_matches` order;
2. each step is applied through :class:`GuardedOptimizer`, so illegal or
   graph-corrupting applications roll back cleanly and merely show up as
   ``rolled_back`` entries in the trace;
3. surviving variants are scored by a :class:`CostProvider` (measured
   wall-clock or the analytic machine model) and explored greedily or
   with beam search under a global evaluation budget;
4. variants are deduplicated by canonical content hash, so sequences
   that commute are scored once.

The result carries the winning history (replayable via
``optimizer.replay``), a full :class:`TuningReport` trace, and — when a
cache directory is given — is persisted content-addressed so the next
identical tuning problem short-circuits the whole search.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.sdfg.serialize import content_hash
from repro.telemetry.sink import active_sink
from repro.transformations.base import REGISTRY
from repro.transformations.guard import GuardedOptimizer
from repro.transformations.optimizer import _resolve, replay, sort_matches
from repro.tuning.cache import TuningCache
from repro.tuning.cost import CostProvider, resolve_provider
from repro.tuning.report import TuningReport, history_label

#: Transformations excluded from the default search pool: hardware
#: offloads retarget storage/schedules for devices the measuring
#: backend cannot execute — include them explicitly (or via
#: ``auto_optimize(device=...)``) when tuning analytically for them.
DEFAULT_POOL_EXCLUDED = frozenset({"FPGATransform", "GPUTransform", "MPITransform"})


def default_pool() -> List[str]:
    """The default searchable transformation set, sorted for stable
    candidate enumeration order."""
    return sorted(n for n in REGISTRY if n not in DEFAULT_POOL_EXCLUDED)


@dataclass
class TuningConfig:
    """Search-space parameters of one tuning run.

    ``strategy`` selects the driver (``greedy`` follows the single best
    child per depth; ``beam`` keeps the ``beam_width`` best variants per
    depth).  ``budget`` caps cost-provider evaluations across the whole
    search (the expensive part); ``max_matches`` caps how many match
    sites of one transformation are tried per expansion.  A candidate
    child is accepted only when it improves its parent by at least
    ``min_improvement`` (relative), which keeps timer noise from
    accumulating chains of phantom wins under measured cost.
    """

    strategy: str = "greedy"
    depth: int = 4
    beam_width: int = 3
    budget: int = 64
    max_matches: int = 2
    min_improvement: float = 0.0
    transformations: Optional[Sequence[str]] = None
    verify: bool = False

    def pool(self) -> List[str]:
        if self.transformations is not None:
            return list(self.transformations)
        return default_pool()

    def key(self) -> str:
        """Stable identity of the search configuration (cache key part)."""
        return (
            f"{self.strategy}:d{self.depth}:w{self.beam_width}:b{self.budget}"
            f":m{self.max_matches}:i{self.min_improvement}"
            f":v{int(self.verify)}:{','.join(self.pool())}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "depth": self.depth,
            "beam_width": self.beam_width,
            "budget": self.budget,
            "max_matches": self.max_matches,
            "min_improvement": self.min_improvement,
            "transformations": self.pool(),
            "verify": self.verify,
        }


@dataclass
class TuningResult:
    """What :func:`tune` returns."""

    #: The winning graph, the one the search scored (a copy of the input
    #: when nothing won, the cached history replayed onto a copy on a
    #: cache hit).  The input SDFG is never mutated; use
    #: ``auto_optimize(strategy="search")`` for in-place tuning.
    sdfg: Any
    #: Winning history as replayable entries
    #: (``[{"transformation": name, "match": k}, ...]``); empty when no
    #: sequence beat the naive graph.
    history: List[Dict[str, Any]]
    baseline_score: Optional[float]
    best_score: Optional[float]
    cache_hit: bool
    cache_key: Optional[str]
    report: TuningReport

    @property
    def improved(self) -> bool:
        return bool(self.history)

    def speedup(self) -> Optional[float]:
        return self.report.speedup()


@dataclass
class _Variant:
    """One point in the search space: its graph, validated and
    propagated, which its candidates copy and never change."""

    history: List[Dict[str, Any]]
    sdfg: Any
    hash: str
    score: float

    def label(self) -> str:
        return history_label(self.history)


class _SearchState:
    """Shared bookkeeping across one search: budget, dedup table and
    per-transformation statistics."""

    def __init__(self, budget: int):
        self.budget = budget
        self.evals = 0
        #: content hash -> best known score (duplicate pruning).
        self.seen: Dict[str, float] = {}
        #: per-transformation candidate/accept/reject counts and
        #: apply/evaluate wall-clock (surfaced as tuning telemetry).
        self.xforms: Dict[str, Dict[str, float]] = {}

    def exhausted(self) -> bool:
        return self.evals >= self.budget

    def xform(self, name: str) -> Dict[str, float]:
        return self.xforms.setdefault(
            name,
            {"candidates": 0, "accepted": 0, "rejected": 0,
             "apply_s": 0.0, "evaluate_s": 0.0},
        )

    def absorb(self, evals: int, xforms: Mapping[str, Mapping[str, float]]) -> None:
        """Fold another search's evaluations and per-transformation
        statistics into this record (the cutout driver's sub-searches)."""
        self.evals += evals
        for name, stats in xforms.items():
            mine = self.xform(name)
            for key in mine:
                mine[key] += stats[key]

    def xform_stats(self) -> Dict[str, Dict[str, Any]]:
        """The report's ``transformations`` section: counts as ints,
        seconds rounded to the microsecond, sorted by name."""
        return {
            name: {
                "candidates": int(stats["candidates"]),
                "accepted": int(stats["accepted"]),
                "rejected": int(stats["rejected"]),
                "apply_s": round(stats["apply_s"], 6),
                "evaluate_s": round(stats["evaluate_s"], 6),
            }
            for name, stats in sorted(self.xforms.items())
        }


def tune(
    sdfg,
    cost: Any = "measured",
    strategy: Optional[str] = None,
    depth: Optional[int] = None,
    beam_width: Optional[int] = None,
    budget: Optional[int] = None,
    transformations: Optional[Sequence[str]] = None,
    config: Optional[TuningConfig] = None,
    cache_dir: Optional[str] = None,
    cache: Optional[TuningCache] = None,
    inputs: Optional[Mapping[str, Any]] = None,
    machine: str = "cpu",
    symbols: Optional[Mapping[str, int]] = None,
    jobs: int = 1,
) -> TuningResult:
    """Search for the best-scoring transformation sequence over ``sdfg``.

    ``cost`` is ``"measured"`` (execute and time the generated-Python
    backend; pass ``inputs`` for data-dependent graphs), ``"analytic"``
    (machine-model simulation for ``machine``; pass ``symbols`` for
    problem sizes), or any :class:`CostProvider`.  Individual search
    knobs (``strategy``/``depth``/``beam_width``/``budget``/
    ``transformations``) override the corresponding ``config`` fields.

    ``strategy="cutout"`` switches to the cutout driver
    (:func:`repro.tuning.parallel.tune_cutouts`): every unique kernel of
    the program is extracted and tuned once, and the winners are
    stitched back and differentially verified.  ``jobs`` must be 1: it
    is accepted for callers that still pass it, and every search runs
    in this process.

    With ``cache_dir`` (or an explicit ``cache``), results persist
    content-addressed across processes: a repeated call with identical
    graph + config + cost setup replays the cached winning history
    instead of searching.  The input SDFG is never mutated.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: tuning runs in one process; pass jobs=1")
    provider = resolve_provider(cost, inputs=inputs, machine=machine, symbols=symbols)
    overrides = dict(
        strategy=strategy, depth=depth, beam_width=beam_width, budget=budget,
        transformations=transformations and list(transformations),
    )
    cfg = dataclasses.replace(
        config or TuningConfig(),
        **{k: v for k, v in overrides.items() if v is not None},
    )
    if cfg.strategy == "cutout":
        from repro.tuning.parallel import tune_cutouts

        return tune_cutouts(
            sdfg,
            cost=provider,
            config=cfg,
            cache_dir=cache_dir,
            cache=cache,
            inputs=inputs,
            machine=machine,
            symbols=symbols,
        )
    if cfg.strategy not in ("greedy", "beam"):
        raise ValueError(f"unknown search strategy {cfg.strategy!r}")

    report = TuningReport(
        sdfg=sdfg.name,
        strategy=cfg.strategy,
        cost=provider.key(),
        config=cfg.to_json(),
        budget=cfg.budget,
    )

    store = cache
    if store is None and cache_dir is not None:
        store = TuningCache(cache_dir)
    key: Optional[str] = None
    if store is not None:
        key = store.key(sdfg, cfg.key(), provider.key())
        entry = store.get(key)
        report.cache = {"enabled": True, "key": key, "hit": entry is not None}
        if entry is not None:
            report.cache.update(store.stats())
            report.baseline_score = entry.get("baseline_score")
            report.best_score = entry.get("score")
            report.winner = list(entry.get("history", ()))
            tuned = sdfg.copy()
            if report.winner:
                replay(tuned, report.winner)
            return TuningResult(
                sdfg=tuned,
                history=list(report.winner),
                baseline_score=report.baseline_score,
                best_score=report.best_score,
                cache_hit=True,
                cache_key=key,
                report=report,
            )
    else:
        report.cache = {"enabled": False}

    start = time.perf_counter()
    try:
        state = _SearchState(cfg.budget)
        # Every graph the search holds is validated and propagated — the
        # root's from here, each child's by its guard — so guards built
        # from them need no snapshot and no pre-apply propagate, and the
        # provider need not analyse what it scores.
        root_sdfg = sdfg.copy()
        root_sdfg.validate()
        root_sdfg.propagate()
        baseline = provider.score_analysed(root_sdfg)
        root = _Variant(
            history=[],
            sdfg=root_sdfg,
            hash=content_hash(root_sdfg),
            score=baseline,
        )
        state.seen[root.hash] = baseline
        report.baseline_score = baseline

        if cfg.strategy == "greedy":
            best = _greedy_search(root, cfg, provider, report, state)
        else:
            best = _beam_search(root, cfg, provider, report, state)

        report.budget_used = state.evals
        winner = best.history if best.score < baseline else []
        best_score = best.score if winner else baseline
        report.best_score = best_score
        report.winner = list(winner)
        report.transformations = state.xform_stats()
        _publish_xform_stats(report.transformations)
    finally:
        sink = active_sink()
        if sink is not None:
            sink.publish("tuning", sdfg.name, time.perf_counter() - start)

    if store is not None and key is not None:
        store.put(
            key,
            {
                "sdfg": sdfg.name,
                "history": winner,
                "score": best_score,
                "baseline_score": baseline,
                "config": cfg.to_json(),
                "cost": provider.key(),
            },
        )
        report.cache.update(store.stats())

    return TuningResult(
        sdfg=best.sdfg if winner else sdfg.copy(),
        history=winner,
        baseline_score=baseline,
        best_score=best_score,
        cache_hit=False,
        cache_key=key,
        report=report,
    )


# =====================================================================
# Drivers
# =====================================================================


def _greedy_search(
    root: _Variant,
    cfg: TuningConfig,
    provider: CostProvider,
    report: TuningReport,
    state: _SearchState,
) -> _Variant:
    """Follow the single best improving child per depth; stop when no
    child improves the current variant by ``min_improvement``."""
    current = root
    for depth in range(1, cfg.depth + 1):
        children = _expand(current, depth, cfg, provider, report, state)
        if not children:
            break
        best_child = min(children, key=lambda v: v.score)
        if not _improves(best_child.score, current.score, cfg.min_improvement):
            break
        _mark_accepted(report, depth, best_child)
        current = best_child
        if state.exhausted():
            break
    return current


def _beam_search(
    root: _Variant,
    cfg: TuningConfig,
    provider: CostProvider,
    report: TuningReport,
    state: _SearchState,
) -> _Variant:
    """Keep the ``beam_width`` best variants per depth, expanding each;
    the overall best scored variant (any depth) wins."""
    frontier = [root]
    best = root
    for depth in range(1, cfg.depth + 1):
        children: List[_Variant] = []
        for variant in frontier:
            children.extend(_expand(variant, depth, cfg, provider, report, state))
            if state.exhausted():
                break
        if not children:
            break
        children.sort(key=lambda v: v.score)  # stable: ties keep order
        frontier = children[: cfg.beam_width]
        for v in frontier:
            _mark_accepted(report, depth, v)
        if frontier[0].score < best.score:
            best = frontier[0]
        if state.exhausted():
            break
    return best


def _expand(
    variant: _Variant,
    depth: int,
    cfg: TuningConfig,
    provider: CostProvider,
    report: TuningReport,
    state: _SearchState,
) -> List[_Variant]:
    """All legal single-step children of ``variant``, scored.

    Every attempt is recorded in the report; applications run through
    the guarded optimizer so a corrupting transformation surfaces as a
    ``rolled_back`` trace entry instead of a broken graph.

    Matches are enumerated on the variant's own graph, which is
    propagated already and only read here: each match is enumerated and
    sorted once, and a candidate's guard works on a copy of the graph,
    with the match rebound to it, and keeps the variant's graph as its
    pre-image.
    """
    parent_label = variant.label()
    children: List[_Variant] = []
    probe = variant.sdfg
    for name in cfg.pool():
        try:
            matches = sort_matches(probe, _resolve(name).matches(probe))
        except Exception as err:  # noqa: BLE001 - enumeration itself failed
            report.add(
                depth, parent_label, name, 0, "rolled_back",
                reason=f"match enumeration failed: {type(err).__name__}: {err}",
            )
            continue
        if not matches:
            report.add(depth, parent_label, name, 0, "no_match")
            continue
        stats = state.xform(name)
        for index, match in enumerate(matches[: cfg.max_matches]):
            if state.exhausted():
                report.budget_exhausted = True
                report.add(
                    depth, parent_label, name, index, "pruned_budget",
                    reason=f"budget of {state.budget} evaluations exhausted",
                )
                return children
            guard = GuardedOptimizer.from_snapshot(
                probe, probe.copy(), verify=cfg.verify
            )
            work = guard.sdfg
            stats["candidates"] += 1
            applied = guard.apply_rebound(match)
            attempt = guard.report.attempts[-1]
            stats["apply_s"] += attempt.duration
            if not applied:
                stats["rejected"] += 1
                report.add(
                    depth, parent_label, name, index,
                    attempt.status, reason=attempt.reason,
                )
                continue
            # The guard validated and propagated the child.
            digest = content_hash(work)
            if digest in state.seen:
                report.add(
                    depth, parent_label, name, index, "pruned_duplicate",
                    score=state.seen[digest],
                    reason="variant already scored (identical canonical form)",
                )
                continue
            state.evals += 1
            try:
                t0 = time.perf_counter()
                score = provider.score_analysed(work)
                stats["evaluate_s"] += time.perf_counter() - t0
            except Exception as err:  # noqa: BLE001 - unscorable variant
                stats["evaluate_s"] += time.perf_counter() - t0
                stats["rejected"] += 1
                report.add(
                    depth, parent_label, name, index, "score_failed",
                    reason=f"{type(err).__name__}: {err}",
                )
                continue
            stats["accepted"] += 1
            state.seen[digest] = score
            report.add(depth, parent_label, name, index, "scored", score=score)
            children.append(
                _Variant(
                    history=variant.history
                    + [{"transformation": name, "match": index}],
                    sdfg=work,
                    hash=digest,
                    score=score,
                )
            )
    return children


def _publish_xform_stats(stats: Mapping[str, Mapping[str, Any]]) -> None:
    """Emit one ``tuning``/``xform:<name>`` event per transformation of
    the report's ``transformations`` section (candidate/accept/reject
    counts and apply+evaluate wall-clock), so the telemetry dashboard
    can show where search time goes."""
    sink = active_sink()
    if sink is None:
        return
    for name, s in stats.items():
        sink.publish(
            "tuning",
            f"xform:{name}",
            s["apply_s"] + s["evaluate_s"],
            fields=dict(s),
        )


def _improves(candidate: float, incumbent: float, min_improvement: float) -> bool:
    return candidate < incumbent * (1.0 - min_improvement)


def _mark_accepted(report: TuningReport, depth: int, variant: _Variant) -> None:
    """Flag the trace entry that produced ``variant`` as accepted."""
    if not variant.history:
        return
    last = variant.history[-1]
    parent = history_label(variant.history[:-1])
    for rec in reversed(report.candidates):
        if (
            rec.depth == depth
            and rec.parent == parent
            and rec.transformation == last["transformation"]
            and rec.match == last["match"]
            and rec.status == "scored"
        ):
            rec.accepted = True
            return

"""Tuning reports: a JSON-serializable trace of one auto-tuning run.

The report is to the tuner what :class:`InstrumentationReport` is to an
execution: a machine-readable record of everything that happened —
every candidate tried (with its transformation, match index, and
outcome), every score, every pruning decision, the cache interaction,
and the winning history.  Because match enumeration is deterministic,
two runs over the same SDFG with the same configuration produce the
same trace, which is what makes tuning results reviewable and
regressions bisectable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Schema version of the serialized report.
TUNING_REPORT_SCHEMA_VERSION = 1

#: Candidate outcomes:
#: ``scored`` — applied cleanly and evaluated by the cost provider;
#: ``no_match`` / ``rolled_back`` — the guarded application failed;
#: ``pruned_duplicate`` — the variant's content hash was already scored;
#: ``pruned_budget`` — the evaluation budget ran out before this step;
#: ``score_failed`` — the cost provider raised on the variant.
CANDIDATE_STATUSES = (
    "scored",
    "no_match",
    "rolled_back",
    "pruned_duplicate",
    "pruned_budget",
    "score_failed",
)


@dataclass
class CandidateRecord:
    """One search step: parent variant + one transformation candidate."""

    depth: int
    parent: str  # human-readable parent history, "" for the root
    transformation: str
    match: int
    status: str
    score: Optional[float] = None
    reason: str = ""
    accepted: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "depth": self.depth,
            "parent": self.parent,
            "transformation": self.transformation,
            "match": self.match,
            "status": self.status,
            "score": self.score,
            "reason": self.reason,
            "accepted": self.accepted,
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "CandidateRecord":
        return CandidateRecord(
            depth=int(obj["depth"]),
            parent=obj.get("parent", ""),
            transformation=obj["transformation"],
            match=int(obj.get("match", 0)),
            status=obj["status"],
            score=obj.get("score"),
            reason=obj.get("reason", ""),
            accepted=bool(obj.get("accepted", False)),
        )


@dataclass
class TuningReport:
    """Machine-readable log of one :func:`repro.tuning.tune` run."""

    sdfg: str
    strategy: str = ""
    cost: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    baseline_score: Optional[float] = None
    best_score: Optional[float] = None
    winner: List[Dict[str, Any]] = field(default_factory=list)
    candidates: List[CandidateRecord] = field(default_factory=list)
    cache: Dict[str, Any] = field(default_factory=dict)
    budget: Optional[int] = None
    budget_used: int = 0
    budget_exhausted: bool = False
    #: Per-transformation search statistics (candidate/accept/reject
    #: counts, apply/evaluate wall-clock) — filled by the search drivers.
    transformations: Dict[str, Any] = field(default_factory=dict)
    #: Cutout-strategy section (dedup counts, per-cutout outcomes,
    #: stitching/verification results) — filled by the cutout tuner.
    cutouts: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------ recording
    def add(
        self,
        depth: int,
        parent: str,
        transformation: str,
        match: int,
        status: str,
        score: Optional[float] = None,
        reason: str = "",
    ) -> CandidateRecord:
        rec = CandidateRecord(
            depth=depth,
            parent=parent,
            transformation=transformation,
            match=match,
            status=status,
            score=score,
            reason=reason,
        )
        self.candidates.append(rec)
        return rec

    # ------------------------------------------------------------- queries
    def scored(self) -> List[CandidateRecord]:
        return [c for c in self.candidates if c.status == "scored"]

    def speedup(self) -> Optional[float]:
        """Baseline/best cost ratio (>1 means the tuner found a win)."""
        if not self.baseline_score or self.best_score is None:
            return None
        if self.best_score <= 0:
            return None
        return self.baseline_score / self.best_score

    # -------------------------------------------------------------- (de)ser
    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": TUNING_REPORT_SCHEMA_VERSION,
            "sdfg": self.sdfg,
            "strategy": self.strategy,
            "cost": self.cost,
            "config": dict(self.config),
            "baseline_score": self.baseline_score,
            "best_score": self.best_score,
            "winner": list(self.winner),
            "candidates": [c.to_json() for c in self.candidates],
            "cache": dict(self.cache),
            "budget": self.budget,
            "budget_used": self.budget_used,
            "budget_exhausted": self.budget_exhausted,
            "transformations": dict(self.transformations),
            "cutouts": dict(self.cutouts),
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "TuningReport":
        if not isinstance(obj, dict) or "sdfg" not in obj:
            raise ValueError("not a tuning report")
        return TuningReport(
            sdfg=obj["sdfg"],
            strategy=obj.get("strategy", ""),
            cost=obj.get("cost", ""),
            config=dict(obj.get("config", {})),
            baseline_score=obj.get("baseline_score"),
            best_score=obj.get("best_score"),
            winner=list(obj.get("winner", ())),
            candidates=[
                CandidateRecord.from_json(c) for c in obj.get("candidates", ())
            ],
            cache=dict(obj.get("cache", {})),
            budget=obj.get("budget"),
            budget_used=int(obj.get("budget_used", 0)),
            budget_exhausted=bool(obj.get("budget_exhausted", False)),
            transformations=dict(obj.get("transformations", {})),
            cutouts=dict(obj.get("cutouts", {})),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1, sort_keys=True, default=str)

    @staticmethod
    def load(path: str) -> "TuningReport":
        with open(path) as f:
            return TuningReport.from_json(json.load(f))

    # --------------------------------------------------------------- render
    def render(self) -> str:
        """Human-readable summary: header, winner chain, candidate table."""
        lines = [
            f"tuning report for {self.sdfg!r} "
            f"[strategy={self.strategy}, cost={self.cost}]"
        ]
        if self.cache.get("enabled"):
            state = "hit" if self.cache.get("hit") else "miss"
            lines.append(
                f"  cache: {state} "
                f"(key {str(self.cache.get('key', ''))[:16]}…, "
                f"{self.cache.get('hits', 0)} hits / "
                f"{self.cache.get('misses', 0)} misses)"
            )
        if self.baseline_score is not None:
            lines.append(f"  baseline score: {self.baseline_score:.6g}")
        if self.best_score is not None:
            su = self.speedup()
            extra = f" (speedup {su:.2f}x)" if su else ""
            lines.append(f"  best score:     {self.best_score:.6g}{extra}")
        if self.winner:
            chain = " -> ".join(history_label([w]) for w in self.winner)
            lines.append(f"  winner: {chain}")
        else:
            lines.append("  winner: (naive SDFG; no improving sequence found)")
        if self.budget is not None:
            exhausted = " (exhausted)" if self.budget_exhausted else ""
            lines.append(
                f"  budget: {self.budget_used}/{self.budget} evaluations{exhausted}"
            )
        if self.cutouts:
            lines.append(
                f"  cutouts: {self.cutouts.get('unique', 0)} unique of "
                f"{self.cutouts.get('total', 0)} "
                f"(saved {self.cutouts.get('deduplicated', 0)} searches, "
                f"verification: {self.cutouts.get('verification', 'not_run')})"
            )
        if self.candidates:
            lines.append(
                f"  {'depth':>5s} {'candidate':34s} {'status':18s} "
                f"{'score':>12s}  parent"
            )
            for c in self.candidates:
                score = f"{c.score:.6g}" if c.score is not None else ""
                mark = "*" if c.accepted else " "
                lines.append(
                    f" {mark}{c.depth:>5d} "
                    f"{c.transformation + '[' + str(c.match) + ']':34s} "
                    f"{c.status:18s} {score:>12s}  {c.parent}"
                )
        return "\n".join(lines)


def history_label(history: List[Dict[str, Any]]) -> str:
    """Compact text form of a (partial) history, used in traces:
    ``MapReduceFusion[0] > Vectorization[1]``."""
    return " > ".join(
        f"{e['transformation']}[{int(e.get('match', 0))}]" for e in history
    )

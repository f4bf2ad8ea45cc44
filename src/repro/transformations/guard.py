"""Transactional transformation application (the safety layer over the
paper's §4.1/§4.2 workflow).

``GuardedOptimizer`` wraps every transformation application in a
transaction, in the spirit of DIODE's "optimization version control":

1. **snapshot** — copy the SDFG (:meth:`SDFG.copy`) and propagate it
   for matching; a guard built by :meth:`GuardedOptimizer.from_snapshot`
   already holds the pre-image, a propagated graph (the auto-tuner's
   search variant), and works on a copy of it, so it does neither;
2. **apply** — run the transformation's graph rewrite, then propagate;
3. **re-validate** — full structural validation of the result;
4. **differential verification** (optional) — :func:`differential_check`
   executes the pre- and post-transformation SDFGs on small inputs
   through the interpreter backend and compares every output container
   within a tolerance (the cutout tuner verifies stitched programs with
   the same function);
5. **commit or roll back** — on any failure a fresh copy of the
   pre-image is transplanted into the graph *in place*
   (:func:`restore_sdfg_inplace`; byte-identical serialization), so a
   corrupting transformation can never leave the graph broken.

The pre-image is only read: verification executes a copy of it, and a
rollback transplants a copy, so guards may share one pre-image.  The
serializer is left for byte-identity checks (:func:`canonical_snapshot`).

Every attempt — applied, rolled back (with the reason), or no match —
is recorded in a machine-readable :class:`GuardReport`, making the
optimization pipeline safe to run unattended to fixpoint.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sdfg.sdfg import restore_sdfg_inplace
from repro.sdfg.serialize import sdfg_to_json
from repro.transformations.base import REGISTRY, Transformation
from repro.transformations.optimizer import (
    XformLike,
    _resolve,
    rebind_match,
    sort_matches,
)

#: Verdict when differential verification could not run (the *baseline*
#: already fails on the verification inputs): the application is kept,
#: but recorded as unverified, with the baseline's exception as reason.
VERIFY_SKIPPED = "skipped"
#: Verdict when the transformed graph crashed or an output diverged.
VERIFY_FAILED = "failed"


def canonical_snapshot(sdfg) -> str:
    """Deterministic serialized form, used for byte-identity checks."""
    return json.dumps(sdfg_to_json(sdfg), sort_keys=True)


@dataclass
class AttemptRecord:
    """One transformation attempt in a guarded pipeline."""

    transformation: str
    status: str  # "applied" | "rolled_back" | "no_match"
    reason: str = ""
    code: Optional[str] = None  # diagnostic code of the failure, if any
    verified: Optional[str] = None  # None | "ok" | "skipped"
    max_abs_error: Optional[float] = None
    duration: float = 0.0
    #: Wall-clock seconds per phase: snapshot / apply / validate / verify.
    timings: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "transformation": self.transformation,
            "status": self.status,
            "reason": self.reason,
            "code": self.code,
            "verified": self.verified,
            "max_abs_error": self.max_abs_error,
            "duration": self.duration,
            "timings": dict(self.timings),
        }


@dataclass
class GuardReport:
    """Machine-readable log of a guarded optimization run."""

    sdfg: str
    attempts: List[AttemptRecord] = field(default_factory=list)

    def applied(self) -> List[AttemptRecord]:
        return [a for a in self.attempts if a.status == "applied"]

    def rolled_back(self) -> List[AttemptRecord]:
        return [a for a in self.attempts if a.status == "rolled_back"]

    def to_json(self) -> Dict[str, Any]:
        return {"sdfg": self.sdfg, "attempts": [a.to_json() for a in self.attempts]}

    def summary(self) -> str:
        n_app, n_rb = len(self.applied()), len(self.rolled_back())
        lines = [f"guarded optimization of {self.sdfg!r}: "
                 f"{n_app} applied, {n_rb} rolled back"]
        for a in self.attempts:
            extra = f" ({a.reason})" if a.reason else ""
            lines.append(f"  {a.status:12s} {a.transformation}{extra}")
        return "\n".join(lines)


class GuardedOptimizer:
    """Applies transformations transactionally (snapshot / validate /
    verify / roll back) and records every attempt.

    :param sdfg: The SDFG to optimize (mutated in place; rolled back in
        place on failure).
    :param verify: Differentially verify each application by executing
        pre- and post-transformation SDFGs through the interpreter
        backend and comparing outputs.
    :param verify_inputs: Keyword arguments (arrays + symbol values) for
        verification runs.  When omitted, small random inputs are
        synthesized from the SDFG's argument descriptors — sound for
        dense kernels; pass explicit inputs for data-dependent graphs
        (sparse indices, stream sizes).
    :param tolerance: Maximum absolute output difference accepted.
    :param symbol_default: Value bound to each free size symbol when
        synthesizing inputs.
    """

    def __init__(
        self,
        sdfg,
        verify: bool = False,
        verify_inputs: Optional[Mapping[str, Any]] = None,
        tolerance: float = 1e-8,
        validate: bool = True,
        symbol_default: int = 6,
        seed: int = 0,
    ):
        self.sdfg = sdfg
        self.verify = verify
        self.verify_inputs = dict(verify_inputs) if verify_inputs else None
        self.tolerance = tolerance
        self.validate = validate
        self.symbol_default = symbol_default
        self.seed = seed
        self.report = GuardReport(sdfg=sdfg.name)
        #: Pre-image of the current graph when it is already known (see
        #: :meth:`from_snapshot`); the next :meth:`apply` uses it instead
        #: of taking a snapshot and propagating.
        self._pre_image = None

    @classmethod
    def from_snapshot(cls, pre_image, sdfg, **kwargs) -> "GuardedOptimizer":
        """A guard over ``sdfg``, a graph private to the guard that is a
        :meth:`SDFG.copy` of ``pre_image``, a *propagated* graph (the
        auto-tuner's search variant, shared by all its candidates).

        ``pre_image`` is the graph's exact pre-image: the first
        :meth:`apply` (and any later one that follows a rollback) rolls
        back to and verifies against copies of it instead of copying
        ``sdfg``, and skips the pre-match propagate — correct only
        because ``pre_image`` was propagated, which is a fixpoint.  The
        guard never changes ``pre_image``.  ``kwargs`` are the
        constructor's.
        """
        guard = cls(sdfg, **kwargs)
        guard._pre_image = pre_image
        return guard

    # -------------------------------------------------------------- applying
    def apply(
        self,
        xform: XformLike,
        options: Optional[Mapping[str, Any]] = None,
        strict: bool = False,
        match_index: int = 0,
    ) -> bool:
        """Apply the ``match_index``-th match of ``xform`` transactionally
        (matches are deterministically ordered, so the index identifies
        the same candidate across runs — the auto-tuner's search steps
        rely on this).

        Returns True when the transformation was applied *and* survived
        validation (and differential verification, when enabled); False
        when there was no match or the application was rolled back.  The
        outcome is appended to :attr:`report` either way.
        """
        cls = _resolve(xform)

        def pick() -> Optional[Transformation]:
            matches = sort_matches(self.sdfg, cls.matches(self.sdfg, strict))
            return matches[match_index] if match_index < len(matches) else None

        return self._transact(cls.__name__, pick, options)

    def apply_rebound(
        self, match: Transformation, options: Optional[Mapping[str, Any]] = None
    ) -> bool:
        """:meth:`apply` of one match already enumerated on another graph
        with this guard's pre-image (the auto-tuner's probe of a
        variant): ``match`` is rebound to this guard's graph by position
        (:func:`rebind_match`) instead of enumerating again.  Same
        transaction, same report."""
        return self._transact(
            type(match).__name__, lambda: rebind_match(match, self.sdfg), options
        )

    def _transact(
        self,
        name: str,
        pick: Callable[[], Optional[Transformation]],
        options: Optional[Mapping[str, Any]],
    ) -> bool:
        """The transaction of :meth:`apply`: snapshot, ``pick`` the
        match on the (propagated) graph, apply, propagate, validate,
        verify, then commit or roll back."""
        timings: Dict[str, float] = {}
        start = time.perf_counter()
        pre_image = self._pre_image
        reused = pre_image is not None
        if not reused:
            pre_image = self.sdfg.copy()
            timings["snapshot"] = time.perf_counter() - start

        try:
            t0 = time.perf_counter()
            if not reused:
                self.sdfg.propagate()
            inst = pick()
            if inst is None:
                timings["apply"] = time.perf_counter() - t0
                self._record(name, "no_match", start=start, timings=timings)
                return False
            for k, v in (options or {}).items():
                setattr(inst, k, v)
            inst.apply_and_record()
            self.sdfg.propagate()
            timings["apply"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            if self.validate:
                self.sdfg.validate()
            timings["validate"] = time.perf_counter() - t0
        except Exception as err:  # noqa: BLE001 - any failure rolls back
            restore_sdfg_inplace(self.sdfg, pre_image)
            from repro.sdfg.validation import InvalidSDFGError

            code = "G102" if isinstance(err, InvalidSDFGError) else "G101"
            self._record(
                name,
                "rolled_back",
                reason=f"{type(err).__name__}: {err}",
                code=getattr(err, "code", None) or code,
                start=start,
                timings=timings,
            )
            return False

        verified: Optional[str] = None
        reason = ""
        max_err: Optional[float] = None
        if self.verify:
            t0 = time.perf_counter()
            verified, reason, max_err = differential_check(
                pre_image,
                self.sdfg,
                self.verify_inputs,
                self.tolerance,
                self.symbol_default,
                self.seed,
            )
            timings["verify"] = time.perf_counter() - t0
            if verified == VERIFY_FAILED:
                restore_sdfg_inplace(self.sdfg, pre_image)
                self._record(
                    name,
                    "rolled_back",
                    reason=reason,
                    code="G103",
                    max_abs_error=max_err,
                    start=start,
                    timings=timings,
                )
                return False

        self._pre_image = None  # the graph moved on
        self._record(
            name,
            "applied",
            reason=reason,
            verified=verified,
            max_abs_error=max_err,
            start=start,
            timings=timings,
        )
        return True

    def apply_to_fixpoint(
        self,
        xforms: Optional[Sequence[XformLike]] = None,
        max_applications: int = 1000,
    ) -> int:
        """Apply the given transformations (default: the strict set)
        repeatedly until none matches or every remaining candidate has
        been rolled back.  A transformation whose application rolls back
        is retired from the pool — a corrupting rewrite is contained
        once, not retried forever.  Returns the number applied.
        """
        if xforms is None:
            classes = [cls for cls in REGISTRY.values() if cls.strict]
        else:
            classes = [_resolve(x) for x in xforms]
        applied = 0
        retired: set = set()
        progress = True
        while progress and applied < max_applications:
            progress = False
            for cls in classes:
                if cls in retired:
                    continue
                if self.apply(cls):
                    applied += 1
                    progress = True
                elif self.report.attempts[-1].status == "rolled_back":
                    retired.add(cls)
        return applied

    # ------------------------------------------------------------- recording
    def _record(
        self,
        name: str,
        status: str,
        reason: str = "",
        code: Optional[str] = None,
        verified: Optional[str] = None,
        max_abs_error: Optional[float] = None,
        start: float = 0.0,
        timings: Optional[Dict[str, float]] = None,
    ) -> None:
        self.report.attempts.append(
            AttemptRecord(
                transformation=name,
                status=status,
                reason=reason,
                code=code,
                verified=verified,
                max_abs_error=max_abs_error,
                duration=time.perf_counter() - start,
                timings=dict(timings) if timings else {},
            )
        )


# =====================================================================
# Differential-execution helpers
# =====================================================================


def differential_check(
    pre_image,
    sdfg,
    inputs: Optional[Mapping[str, Any]] = None,
    tolerance: float = 1e-8,
    symbol_default: int = 6,
    seed: int = 0,
) -> Tuple[str, str, Optional[float]]:
    """Differential verification: execute a copy of ``pre_image`` and
    ``sdfg`` on identical inputs through the interpreter and compare
    every output array within ``tolerance``.  ``inputs`` default to
    :func:`synthesize_inputs` of the pre-image.

    Returns ``(verdict, reason, max_abs_error)``; the verdict is
    ``"ok"``, :data:`VERIFY_FAILED` (``reason`` says which output
    diverged or how the transformed run crashed) or
    :data:`VERIFY_SKIPPED` (the baseline itself fails on the inputs;
    ``reason`` carries its exception).
    """
    baseline = pre_image.copy()
    if inputs is None:
        inputs = synthesize_inputs(baseline, symbol_default, seed)
    try:
        ref = _run_via_interpreter(baseline, inputs)
    except Exception as err:  # noqa: BLE001 - baseline unrunnable
        why = f"{type(err).__name__}: {err}"
        return VERIFY_SKIPPED, f"the baseline fails on the verification inputs: {why}", None
    try:
        out = _run_via_interpreter(sdfg, inputs)
    except Exception as err:  # noqa: BLE001 - transformed run crashed
        why = f"{type(err).__name__}: {err}"
        return VERIFY_FAILED, f"transformed SDFG failed to execute: {why}", None

    max_err = 0.0
    for name in sorted(set(ref) & set(out)):
        a, b = np.asarray(ref[name]), np.asarray(out[name])
        if a.shape != b.shape:
            return VERIFY_FAILED, f"output {name!r} shape changed: {a.shape} -> {b.shape}", None
        if a.size == 0:
            continue
        diff = float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
        max_err = max(max_err, diff)
        if diff > tolerance:
            return (
                VERIFY_FAILED,
                f"output {name!r} diverged: max abs error {diff:.3e} "
                f"> tolerance {tolerance:.1e}",
                diff,
            )
    return "ok", "", max_err


def synthesize_inputs(sdfg, symbol_default: int = 6, seed: int = 0) -> Dict[str, Any]:
    """Small random arguments for an SDFG: every free size symbol bound
    to ``symbol_default``, float containers filled uniformly at random,
    integer containers zeroed (random integers would be unsound for
    graphs that index through them)."""
    from repro.sdfg.data import Scalar, Stream

    rng = np.random.RandomState(seed)
    symbols = {
        s: symbol_default
        for s in sorted(set(sdfg.free_symbols()) | set(sdfg.symbols))
        if s not in sdfg.constants
    }
    inputs: Dict[str, Any] = dict(symbols)
    for name, desc in sorted(sdfg.arglist().items()):
        if isinstance(desc, Stream):
            continue  # interpreter allocates streams itself
        np_dtype = desc.dtype.as_numpy()
        if isinstance(desc, Scalar):
            if np.issubdtype(np_dtype, np.floating):
                inputs[name] = np_dtype.type(rng.rand())
            else:
                inputs[name] = np_dtype.type(0)
            continue
        shape = tuple(int(s.evaluate(symbols)) for s in desc.shape)
        if np.issubdtype(np_dtype, np.floating):
            inputs[name] = rng.rand(*shape).astype(np_dtype)
        elif np.issubdtype(np_dtype, np.complexfloating):
            inputs[name] = (rng.rand(*shape) + 1j * rng.rand(*shape)).astype(np_dtype)
        else:
            inputs[name] = np.zeros(shape, dtype=np_dtype)
    return inputs


def _run_via_interpreter(sdfg, inputs: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Run an SDFG through the interpreter backend on a private copy of
    ``inputs`` and return the (possibly mutated) array arguments."""
    from repro.codegen.compiler import compile_sdfg

    local = {
        k: (v.copy() if isinstance(v, np.ndarray) else copy.copy(v))
        for k, v in inputs.items()
    }
    compiled = compile_sdfg(sdfg, backend="interpreter", validate=False)
    compiled(**local)
    return {k: v for k, v in local.items() if isinstance(v, np.ndarray)}

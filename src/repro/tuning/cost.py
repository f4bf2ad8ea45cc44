"""Cost providers for the transformation auto-tuner.

A cost provider answers one question — *how expensive is this SDFG
variant?* — behind a single interface, so the search drivers are
agnostic to where the number comes from:

* :class:`MeasuredCost` executes the variant through the generated-
  Python backend on small inputs and scores it by the instrumentation
  report's wall-clock time (paper §4.4: instrumented results feed the
  optimization loop);
* :class:`AnalyticCost` scores it with the roofline performance model
  (:func:`repro.runtime.perfmodel.simulate`), enabling tuning for
  machines this testbed cannot execute (gpu, fpga).

Every provider exposes a stable :meth:`~CostProvider.key` string that
becomes part of the tuning cache's content address: scores produced
under different providers (or different measurement setups) never
collide in the cache.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.instrumentation import InstrumentationType


class CostProvider:
    """Scores SDFG variants; lower is better.

    Implementations must not mutate the SDFG they score (the tuner
    hands them live search variants) and must be deterministic enough
    for search decisions — measured providers take the minimum over
    repeats to suppress timer noise.
    """

    def key(self) -> str:
        """Stable identity of this provider *and its configuration*,
        mixed into the tuning cache key."""
        raise NotImplementedError

    def score(self, sdfg) -> float:
        """Cost of one variant (seconds, or model-seconds); lower wins."""
        raise NotImplementedError

    def score_analysed(self, sdfg) -> float:
        """:meth:`score` of a variant the caller has just validated and
        propagated (the search's guarded children); a provider that
        would repeat that analysis overrides this to skip it."""
        return self.score(sdfg)


class MeasuredCost(CostProvider):
    """Score by executing the variant and reading the instrumentation
    report's wall-clock time.

    The variant is copied to a private graph, instrumented with a
    whole-SDFG TIMER, compiled through ``backend`` (generated Python by
    default), and run ``repeats`` times on identical inputs; the score
    is the minimum observed :meth:`InstrumentationReport.total_duration`.
    When ``inputs`` is omitted, small random inputs are synthesized the
    same way the guarded optimizer synthesizes verification inputs
    (every free size symbol bound to ``symbol_default``).
    """

    def __init__(
        self,
        inputs: Optional[Mapping[str, Any]] = None,
        symbol_default: int = 16,
        seed: int = 0,
        repeats: int = 3,
        backend: str = "python",
        program_cache: Any = "memory",
    ):
        self.inputs = dict(inputs) if inputs is not None else None
        self.symbol_default = symbol_default
        self.seed = seed
        self.repeats = max(1, repeats)
        self.backend = backend
        #: Search loops re-score identical candidates (revisits, repeated
        #: tune() calls); routing compilation through the shared program
        #: cache makes those re-scores skip codegen entirely.  Pass
        #: ``"off"`` to opt out, or a ProgramCache instance to isolate.
        self.program_cache = program_cache

    def key(self) -> str:
        if self.inputs is None:
            data = f"synth:d{self.symbol_default}:s{self.seed}"
        else:
            data = f"inputs:{_inputs_fingerprint(self.inputs)}"
        return f"measured:{self.backend}:r{self.repeats}:{data}"

    def score(self, sdfg) -> float:
        from repro.codegen.compiler import compile_sdfg
        from repro.transformations.guard import synthesize_inputs

        # Private copy: instrumenting and compiling must not leak into
        # the search variant (its content hash must stay untouched).
        work = sdfg.copy()
        work.instrument = InstrumentationType.TIMER
        inputs = self.inputs
        if inputs is None:
            inputs = synthesize_inputs(work, self.symbol_default, self.seed)
        compiled = compile_sdfg(
            work,
            backend=self.backend,
            validate=True,
            cache=self.program_cache,
        )
        best = float("inf")
        try:
            for _ in range(self.repeats):
                local = {
                    k: (v.copy() if isinstance(v, np.ndarray) else copy.copy(v))
                    for k, v in inputs.items()
                }
                compiled(**local)
                report = compiled.last_report
                elapsed = (
                    report.total_duration()
                    if report is not None and not report.is_empty()
                    else compiled.last_runtime
                )
                best = min(best, float(elapsed))
        finally:
            compiled.close()
        return best


class AnalyticCost(CostProvider):
    """Score with the analytic performance model on a machine model.

    ``machine`` is any key of :data:`repro.runtime.machine.MACHINES`
    (``cpu``, ``gpu``, ``fpga``); unbound size symbols are fixed to
    ``symbol_default`` so variants are compared on identical problem
    sizes.  This provider is deterministic and cheap, and it is the
    only way to tune for accelerators the host cannot run.
    """

    def __init__(
        self,
        machine: str = "cpu",
        symbols: Optional[Mapping[str, int]] = None,
        symbol_default: int = 1024,
        naive_fpga: bool = False,
    ):
        self.machine = machine
        self.symbols = dict(symbols) if symbols else {}
        self.symbol_default = symbol_default
        self.naive_fpga = naive_fpga

    def key(self) -> str:
        syms = ",".join(f"{k}={v}" for k, v in sorted(self.symbols.items()))
        return (
            f"analytic:{self.machine}:d{self.symbol_default}"
            f":naive{int(self.naive_fpga)}:{syms}"
        )

    def score(self, sdfg) -> float:
        from repro.runtime.perfmodel import simulate

        return self._model_time(simulate, sdfg)

    def score_analysed(self, sdfg) -> float:
        from repro.runtime.perfmodel import simulate_analysed

        return self._model_time(simulate_analysed, sdfg)

    def _model_time(self, sim, sdfg) -> float:
        """The model's time with every unbound size symbol (declared, or
        free in the graph) at ``symbol_default``.  The free ones take a
        walk over the whole graph to find, so they are looked for only
        when the model read a name the declared ones leave unbound."""
        symbols = dict(self.symbols)
        constants = sdfg.constants
        for s in sdfg.symbols:
            if s not in symbols and s not in constants:
                symbols[s] = self.symbol_default
        report = sim(sdfg, self.machine, symbols, self.naive_fpga)
        if any(name not in sdfg.arrays for name in report.unbound):
            free = [
                s for s in sdfg.free_symbols() if s not in symbols and s not in constants
            ]
            if free:
                symbols.update(dict.fromkeys(free, self.symbol_default))
                report = sim(sdfg, self.machine, symbols, self.naive_fpga)
        return float(report.time)


def resolve_provider(
    cost: Any,
    inputs: Optional[Mapping[str, Any]] = None,
    machine: str = "cpu",
    symbols: Optional[Mapping[str, int]] = None,
) -> CostProvider:
    """Turn ``tune()``'s ``cost`` argument into a provider instance."""
    if isinstance(cost, CostProvider):
        return cost
    if cost == "measured":
        return MeasuredCost(inputs=inputs)
    if cost == "analytic":
        return AnalyticCost(machine=machine, symbols=symbols)
    raise ValueError(
        f"unknown cost provider {cost!r}; use 'measured', 'analytic', "
        "or a CostProvider instance"
    )


def _inputs_fingerprint(inputs: Mapping[str, Any]) -> str:
    """Short stable hash of explicit measurement inputs (part of the
    cache key: different inputs mean different measured scores)."""
    h = hashlib.sha256()
    for name in sorted(inputs):
        v = inputs[name]
        h.update(name.encode())
        if isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode())
            h.update(str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()[:16]

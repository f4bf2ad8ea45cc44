"""Structured diagnostics for validation, code generation, and the
guarded optimization pipeline.

Every check in the system reports through a :class:`Diagnostic`: a
stable error code, a severity, a human-readable message, and the
location (SDFG / state / node / data container) it refers to.  The
:class:`DiagnosticCollector` supports two modes:

* *raise mode* (default) — the first ERROR raises immediately through a
  caller-supplied exception factory, preserving the historical
  fail-fast behavior of ``validate_sdfg``;
* *collect mode* (``collect_all=True``) — every diagnostic is recorded
  and returned, so tooling (DIODE-style editors, the guarded optimizer,
  CI) can show all problems of a broken SDFG at once.

``python -m repro.diagnostics --self-check`` exercises the robustness
machinery end to end (multi-error collection, the write-conflict
detector, transactional rollback, and backend degradation) and is run
in CI on every push.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class Severity(enum.IntEnum):
    """Diagnostic severity; only ERROR aborts a pipeline."""

    INFO = 0
    WARNING = 1
    ERROR = 2


#: Registry of stable diagnostic codes.  Codes are part of the public
#: surface: tests and tooling match on them, messages may change freely.
CODES: Dict[str, str] = {
    # --- SDFG-level structure (V0xx)
    "V001": "SDFG has no states",
    "V002": "SDFG has no start state",
    "V003": "duplicate state names",
    "V004": "interstate assignment targets a data container",
    "V005": "container shape or strides name a map or consume parameter",
    "V006": "memlet outside a scope names a parameter of that scope",
    # --- state-level structure (V1xx)
    "V101": "state dataflow graph is cyclic",
    "V102": "malformed scope structure",
    "V103": "scope entry without matching exit",
    # --- node checks (V2xx)
    "V201": "access node references undefined container",
    "V202": "tasklet accesses a name without a memlet",
    "V203": "dataflow into tasklet without a connector",
    "V204": "dataflow out of tasklet without a connector",
    "V205": "tasklet declares outputs but has no outgoing edges",
    "V206": "recursive nested SDFG",
    "V207": "nested SDFG connector has no matching container",
    "V208": "consume entry needs exactly one stream input",
    "V209": "consume entry input must come from a stream",
    "V210": "map range names a dynamic-range connector its entry lacks",
    # --- edge/memlet checks (V3xx)
    "V301": "memlet references undefined container",
    "V302": "memlet subset rank mismatch",
    "V303": "memlet other_subset rank mismatch",
    "V304": "edge uses undeclared source connector",
    "V305": "edge uses undeclared destination connector",
    "V306": "memlet out of bounds",
    # --- schedule/storage feasibility (V4xx)
    "V401": "storage not accessible from schedule",
    # --- static race analysis (W5xx, warnings)
    "W501": "overlapping writes inside map scope without conflict resolution",
    # --- instrumentation placement (W6xx, warnings)
    "W601": "instrumentation attached to empty state",
    "W602": "instrumentation attached to disconnected node",
    "W603": "instrumentation attached to unreachable state",
    # --- codegen performance degradations (W7xx, warnings)
    "W701": "custom WCR reduction lowered through the scalar loop path",
    "W702": "vectorized lowering tiers disabled by the sanitizer",
    # --- code generation (CGxxx)
    "CG001": "expression not renderable as Python",
    "CG002": "expression not renderable as C++",
    "CG003": "flat index requires point subset",
    "CG101": "no host C++ compiler found",
    "CG102": "C++ compilation failed",
    "CG103": "compiled library could not be loaded",
    "CG000": "backend cannot lower SDFG feature",
    # --- guarded optimization (G1xx)
    "G101": "transformation application raised",
    "G102": "post-transformation validation failed",
    "G103": "differential verification mismatch",
    # --- runtime execution errors (E1xx containers, E2xx backends)
    "E101": "stream index out of bounds",
    "E201": "backend execution crashed",
    "E202": "malformed service request",
    "E203": "unknown program key (recompile required)",
    "E204": "internal service error",
    "E205": "service request timed out on the client socket",
    # --- dynamic sanitizer / watchdog findings (R8xx)
    "R801": "out-of-bounds access detected at runtime",
    "R802": "non-finite value produced at tasklet output",
    "R803": "read of never-written transient",
    "R804": "runtime write conflict without conflict resolution",
    "R805": "watchdog violation (deadline or memory budget exceeded)",
    # --- service admission control (R8xx continued)
    "R806": "tenant admission rejected: too many in-flight requests",
    "R807": "tenant admission rejected: circuit breaker open",
    "R808": "tenant admission rejected: deadline budget exhausted",
    "R809": "service draining: request rejected during shutdown",
    # --- telemetry / performance regression (W9xx, warnings)
    "W901": "kernel timing drifted past its stored baseline",
    "W902": "kernel observed in telemetry but has no stored baseline",
    # --- cutout tuning (W10xx, warnings)
    "W1001": "cutout extraction skipped an unsupported region",
    "W1002": "stitching a tuned cutout back failed; region left untuned",
}


@dataclass
class Diagnostic:
    """One finding, with a stable code and a precise location."""

    code: str
    severity: Severity
    message: str
    sdfg: Optional[str] = None
    state: Optional[str] = None
    node: Optional[str] = None
    data: Optional[str] = None

    def location(self) -> str:
        loc = ""
        if self.sdfg:
            loc += f" [sdfg {self.sdfg}]"
        if self.state:
            loc += f" [state {self.state}]"
        if self.node:
            loc += f" [node {self.node}]"
        if self.data:
            loc += f" [data {self.data}]"
        return loc

    def __str__(self) -> str:
        return f"{self.code} {self.severity.name}: {self.message}{self.location()}"

    def to_json(self) -> Dict[str, Optional[str]]:
        return {
            "code": self.code,
            "severity": self.severity.name,
            "message": self.message,
            "sdfg": self.sdfg,
            "state": self.state,
            "node": self.node,
            "data": self.data,
        }

    @staticmethod
    def from_json(obj: Dict[str, Optional[str]]) -> "Diagnostic":
        # Unknown severities (a newer peer's diagnostic) degrade to
        # WARNING instead of refusing to rehydrate.
        try:
            severity = Severity[str(obj.get("severity", "WARNING"))]
        except KeyError:
            severity = Severity.WARNING
        return Diagnostic(
            code=str(obj["code"]),
            severity=severity,
            message=str(obj.get("message", "")),
            sdfg=obj.get("sdfg"),
            state=obj.get("state"),
            node=obj.get("node"),
            data=obj.get("data"),
        )


def make_diagnostic(
    code: str,
    message: str,
    severity: Severity = Severity.ERROR,
    sdfg=None,
    state=None,
    node=None,
    data: Optional[str] = None,
) -> Diagnostic:
    """Build a diagnostic from live IR objects (names are extracted)."""
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        sdfg=getattr(sdfg, "name", sdfg) if sdfg is not None else None,
        state=getattr(state, "name", state) if state is not None else None,
        node=repr(node) if node is not None else None,
        data=data,
    )


class DiagnosticCollector:
    """Accumulates diagnostics; raises on the first ERROR unless
    ``collect_all`` is set.

    ``error_factory`` builds the exception raised in fail-fast mode from
    ``(diagnostic, sdfg, state, node)`` — validation passes
    ``InvalidSDFGError`` so existing ``except`` clauses keep working.
    """

    def __init__(
        self,
        collect_all: bool = False,
        error_factory: Optional[Callable] = None,
    ):
        self.collect_all = collect_all
        self.error_factory = error_factory
        self.diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------- reporting
    def report(
        self,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
        sdfg=None,
        state=None,
        node=None,
        data: Optional[str] = None,
        cause: Optional[BaseException] = None,
    ) -> Diagnostic:
        diag = make_diagnostic(code, message, severity, sdfg, state, node, data)
        self.diagnostics.append(diag)
        if severity >= Severity.ERROR and not self.collect_all:
            if self.error_factory is not None:
                err = self.error_factory(diag, sdfg, state, node)
            else:
                err = DiagnosticError(diag)
            if cause is not None:
                raise err from cause
            raise err
        return diag

    def error(self, code: str, message: str, **kw) -> Diagnostic:
        return self.report(code, message, Severity.ERROR, **kw)

    def warning(self, code: str, message: str, **kw) -> Diagnostic:
        return self.report(code, message, Severity.WARNING, **kw)

    def info(self, code: str, message: str, **kw) -> Diagnostic:
        return self.report(code, message, Severity.INFO, **kw)

    # --------------------------------------------------------------- queries
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def to_json(self) -> List[Dict[str, Optional[str]]]:
        return [d.to_json() for d in self.diagnostics]


class DiagnosticError(Exception):
    """Default exception wrapping a diagnostic (used when no
    domain-specific exception type applies)."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        self.code = diagnostic.code
        super().__init__(str(diagnostic))


# =====================================================================
# Self-check: exercised by CI (`python -m repro.diagnostics --self-check`)
# =====================================================================


def _selfcheck_collect_all() -> str:
    """A multi-error SDFG yields every diagnostic, not just the first."""
    from repro.sdfg import SDFG, Memlet, dtypes
    from repro.sdfg.validation import validate_sdfg

    sdfg = SDFG("broken")
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state("s")
    # Error 1: access node referencing an undefined container.
    st.add_access("ghost")
    # Error 2: tasklet reading an undeclared name.
    st.add_tasklet("t", [], ["o"], "o = undeclared_name")
    # Error 3 lives in a second state: memlet to an undefined container.
    st2 = sdfg.add_state("s2")
    a = st2.add_access("A")
    b = st2.add_access("ghost2")
    st2.add_edge(a, b, Memlet(data="ghost2", subset="0"), None, None)
    from repro.sdfg.sdfg import InterstateEdge

    sdfg.add_edge(st, st2, InterstateEdge())

    diags = validate_sdfg(sdfg, collect_all=True)
    errors = [d for d in diags if d.severity >= Severity.ERROR]
    assert len(errors) >= 3, f"expected >=3 errors, got {errors}"
    codes = {d.code for d in errors}
    assert "V201" in codes and "V202" in codes, codes
    return f"collect_all: {len(errors)} errors, codes {sorted(codes)}"


def _selfcheck_write_conflicts() -> str:
    """The racy map is flagged; the WCR-annotated one is clean."""
    from repro.sdfg import SDFG, Memlet, dtypes
    from repro.sdfg.validation import detect_write_conflicts

    def build(wcr):
        sdfg = SDFG("racy" if wcr is None else "safe")
        sdfg.add_array("A", ("N", "N"), dtypes.float64)
        sdfg.add_array("out", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "acc",
            {"i": "0:N", "j": "0:N"},
            inputs={"a": Memlet.simple("A", "i, j")},
            code="o = a",
            outputs={"o": Memlet.simple("out", "i", wcr=wcr)},
        )
        return sdfg

    racy = detect_write_conflicts(build(None))
    safe = detect_write_conflicts(build("sum"))
    assert any(d.code == "W501" for d in racy), racy
    assert not safe, safe
    return "write-conflict detector: racy flagged, WCR clean"


def _selfcheck_rollback() -> str:
    """A corrupting transformation is rolled back byte-identically."""
    from repro.sdfg import SDFG, Memlet, dtypes
    from repro.transformations.base import Transformation
    from repro.transformations.guard import GuardedOptimizer, canonical_snapshot

    sdfg = SDFG("victim")
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "c",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2",
        outputs={"b": Memlet.simple("A", "i")},
    )

    class Corruptor(Transformation):
        @classmethod
        def expressions(cls):
            return []

        @classmethod
        def matches(cls, sdfg, strict=False):
            yield cls(sdfg, None, {})

        def apply(self):
            # Dangle an access node to an undefined container.
            state = self.sdfg.states()[0]
            state.add_access("__no_such_container")

    before = canonical_snapshot(sdfg)
    guard = GuardedOptimizer(sdfg)
    ok = guard.apply(Corruptor)
    after = canonical_snapshot(sdfg)
    assert not ok, "corrupting transformation reported success"
    assert before == after, "rollback was not byte-identical"
    att = guard.report.attempts[-1]
    assert att.status == "rolled_back", att
    return f"rollback: contained ({att.reason.splitlines()[0]})"


def _selfcheck_degradation() -> str:
    """With the host compiler gone, cpp degrades to a runnable artifact."""
    import unittest.mock

    import numpy as np

    from repro.codegen import cpp_gen
    from repro.codegen.compiler import compile_sdfg
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("degrade")
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "c",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a + 1",
        outputs={"b": Memlet.simple("A", "i")},
    )

    with unittest.mock.patch.object(cpp_gen, "find_host_compiler", lambda: None):
        compiled = compile_sdfg(sdfg, backend="cpp")
    assert compiled.requested_backend == "cpp"
    assert compiled.degradation, "no fallback was recorded"
    A = np.ones(5)
    compiled(A=A, N=5)
    assert (A == 2.0).all()
    hops = " -> ".join(
        ["cpp"] + [rec["to"] for rec in compiled.degradation]
    )
    return f"degradation: {hops}, result correct"


def self_check(verbose: bool = True) -> int:
    checks = [
        _selfcheck_collect_all,
        _selfcheck_write_conflicts,
        _selfcheck_rollback,
        _selfcheck_degradation,
    ]
    failures = 0
    for check in checks:
        try:
            msg = check()
            if verbose:
                print(f"PASS  {msg}")
        except Exception as err:  # noqa: BLE001 - report every failure
            failures += 1
            if verbose:
                print(f"FAIL  {check.__name__}: {err}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.diagnostics",
        description="Structured diagnostics utilities.",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run the robustness smoke checks (rollback, degradation, "
        "collect-all validation, write-conflict detection)",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the diagnostic code registry as JSON",
    )
    args = parser.parse_args(argv)
    if args.list_codes:
        print(json.dumps(CODES, indent=2, sort_keys=True))
        return 0
    if args.self_check:
        failures = self_check()
        print("self-check:", "OK" if failures == 0 else f"{failures} FAILURES")
        return 1 if failures else 0
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared code-generation utilities: expression and subset rendering."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sdfg.nodes import ConsumeEntry
from repro.symbolic import Expr, Range, Subset
from repro.symbolic.expr import (
    Abs,
    Add,
    And,
    BoolConst,
    CeilDiv,
    Eq,
    FloorDiv,
    Ge,
    Gt,
    Integer,
    Le,
    Lt,
    Max,
    Min,
    Mod,
    Mul,
    Ne,
    Not,
    Or,
    Pow,
    Real,
    Symbol,
)


class CodegenError(Exception):
    """Raised when an SDFG feature cannot be lowered by a backend.

    Carries a structured :class:`repro.diagnostics.Diagnostic` (stable
    ``code``, optional SDFG/state/node location) so the compilation
    driver and tooling can record *why* a backend was abandoned when the
    degradation chain fires.
    """

    def __init__(self, message: str, code: str = "CG000", sdfg=None, state=None, node=None):
        from repro.diagnostics import Severity, make_diagnostic

        self.code = code
        self.diagnostic = make_diagnostic(
            code, message, Severity.ERROR, sdfg=sdfg, state=state, node=node
        )
        super().__init__(message)


def consumes(state, node, stream_name: str) -> bool:
    """Whether ``node`` sits inside a consume scope draining
    ``stream_name``: its reads of that stream take the popped element."""
    sd = state.scope_dict()
    anc = sd.get(node)
    while anc is not None:
        if isinstance(anc, ConsumeEntry):
            edges = state.in_edges_by_connector(anc, "IN_stream")
            if edges and edges[0].data.data == stream_name:
                return True
        anc = sd.get(anc)
    return False


def pycode(e: Expr, rename: Optional[Dict[str, str]] = None) -> str:
    """Render a symbolic expression as Python source."""
    r = rename or {}

    def go(e: Expr) -> str:
        if isinstance(e, Integer):
            return str(e.value) if e.value >= 0 else f"({e.value})"
        if isinstance(e, Real):
            return repr(e.value)
        if isinstance(e, BoolConst):
            return "True" if e.value else "False"
        if isinstance(e, Symbol):
            return r.get(e.name, e.name)
        if isinstance(e, Add):
            return "(" + " + ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Mul):
            return "(" + " * ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Pow):
            return f"({go(e.base)} ** {go(e.exp)})"
        if isinstance(e, FloorDiv):
            return f"({go(e.a)} // {go(e.b)})"
        if isinstance(e, CeilDiv):
            return f"(-((-({go(e.a)})) // ({go(e.b)})))"
        if isinstance(e, Mod):
            return f"({go(e.a)} % {go(e.b)})"
        if isinstance(e, Min):
            return "min(" + ", ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Max):
            return "max(" + ", ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Abs):
            return f"abs({go(e.arg)})"
        for cls, op in ((Eq, "=="), (Ne, "!="), (Lt, "<"), (Le, "<="), (Gt, ">"), (Ge, ">=")):
            if isinstance(e, cls):
                return f"({go(e.a)} {op} {go(e.b)})"
        if isinstance(e, And):
            return "(" + " and ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Or):
            return "(" + " or ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Not):
            return f"(not {go(e.arg)})"
        raise CodegenError(f"cannot render expression {e!r}", code="CG001")

    return go(e)


def cppcode(e: Expr, rename: Optional[Dict[str, str]] = None) -> str:
    """Render a symbolic expression as C++ source (int semantics).

    ``//`` and ``%`` floor, as in Python, through the ``repro_py``
    helpers every C dialect's preamble defines
    (:data:`repro.codegen.py2cpp.PY_ARITH`).
    """
    r = rename or {}

    def go(e: Expr) -> str:
        if isinstance(e, Integer):
            return str(e.value) if e.value >= 0 else f"({e.value})"
        if isinstance(e, Real):
            return repr(e.value)
        if isinstance(e, BoolConst):
            return "true" if e.value else "false"
        if isinstance(e, Symbol):
            return r.get(e.name, e.name)
        if isinstance(e, Add):
            return "(" + " + ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Mul):
            return "(" + " * ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Pow):
            if isinstance(e.exp, Integer) and 0 < e.exp.value < 8:
                return "(" + " * ".join([go(e.base)] * e.exp.value) + ")"
            return f"std::pow({go(e.base)}, {go(e.exp)})"
        if isinstance(e, FloorDiv):
            return f"repro_py::ifloordiv({go(e.a)}, {go(e.b)})"
        if isinstance(e, CeilDiv):
            return f"(-repro_py::ifloordiv(-({go(e.a)}), {go(e.b)}))"
        if isinstance(e, Mod):
            return f"repro_py::imod({go(e.a)}, {go(e.b)})"
        if isinstance(e, Min):
            out = go(e.args[0])
            for a in e.args[1:]:
                out = f"std::min<long long>({out}, {go(a)})"
            return out
        if isinstance(e, Max):
            out = go(e.args[0])
            for a in e.args[1:]:
                out = f"std::max<long long>({out}, {go(a)})"
            return out
        if isinstance(e, Abs):
            return f"std::abs({go(e.arg)})"
        for cls, op in ((Eq, "=="), (Ne, "!="), (Lt, "<"), (Le, "<="), (Gt, ">"), (Ge, ">=")):
            if isinstance(e, cls):
                return f"({go(e.a)} {op} {go(e.b)})"
        if isinstance(e, And):
            return "(" + " && ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Or):
            return "(" + " || ".join(go(a) for a in e.args) + ")"
        if isinstance(e, Not):
            return f"(!{go(e.arg)})"
        raise CodegenError(f"cannot render expression {e!r}", code="CG002")

    return go(e)


def subset_to_py_index(subset: Subset) -> str:
    """Render a subset as a Python index tuple (slices for ranges)."""
    parts: List[str] = []
    for rng in subset.ranges:
        if rng.is_point():
            parts.append(pycode(rng.start))
        else:
            step = "" if rng.step == Integer(1) else f":{pycode(rng.step)}"
            parts.append(f"{pycode(rng.start)}:{pycode(rng.end)}{step}")
    return ", ".join(parts)


def flat_index_cpp(subset: Subset, strides) -> str:
    """Row-major flattened element index for C-style codegen (points only)."""
    terms = []
    for rng, stride in zip(subset.ranges, strides):
        if not rng.is_point():
            raise CodegenError("flat index requires point subset", code="CG003")
        terms.append(f"({cppcode(rng.start)}) * ({cppcode(stride)})")
    return " + ".join(terms) if terms else "0"


class CodeBuffer:
    """Indented source-code accumulator."""

    def __init__(self, indent_str: str = "    "):
        self._lines: List[str] = []
        self._indent = 0
        self._indent_str = indent_str

    def line(self, text: str = "") -> None:
        if text:
            self._lines.append(self._indent_str * self._indent + text)
        else:
            self._lines.append("")

    def lines(self, text: str) -> None:
        for ln in text.splitlines():
            self.line(ln)

    def indent(self) -> "CodeBuffer":
        self._indent += 1
        return self

    def dedent(self) -> "CodeBuffer":
        self._indent -= 1
        return self

    class _Block:
        def __init__(self, buf: "CodeBuffer", opener: str, closer: str = ""):
            self.buf = buf
            self.closer = closer
            buf.line(opener)

        def __enter__(self):
            self.buf.indent()
            return self.buf

        def __exit__(self, *exc):
            self.buf.dedent()
            if self.closer:
                self.buf.line(self.closer)
            return False

    def block(self, opener: str, closer: str = "") -> "CodeBuffer._Block":
        """``with buf.block("for i in range(N):"):`` style nesting."""
        return CodeBuffer._Block(self, opener, closer)

    def getvalue(self) -> str:
        return "\n".join(self._lines) + "\n"

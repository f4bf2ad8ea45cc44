"""Symbolic integer/real arithmetic substrate.

The SDFG IR is *parametric*: array shapes, map ranges, and memlet subsets
are symbolic integer expressions (paper section 2.1, "Parametric
Dimensions").  The original DaCe implementation extends SymPy; this
reproduction implements its own small, deterministic symbolic engine that
covers exactly what the IR needs:

* an immutable expression tree with canonicalizing constructors
  (:mod:`repro.symbolic.expr`),
* a parser from Python-syntax strings (:mod:`repro.symbolic.parser`),
* symbolic integer range sets and multi-dimensional subsets used by
  memlets and map scopes (:mod:`repro.symbolic.sets`).

Determinism matters: expression ordering is structural, never based on
``id()`` or hash randomization, so code generation and graph printing are
reproducible run-to-run.
"""

from repro.symbolic.expr import (
    Abs,
    Add,
    And,
    BoolExpr,
    CeilDiv,
    Eq,
    Expr,
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
    simplify,
    sympify,
    symbols,
)
from repro.symbolic.memo import clear as clear_caches
from repro.symbolic.memo import snapshot as cache_snapshot
from repro.symbolic.memo import stats as cache_stats
from repro.symbolic.parser import parse_expr
from repro.symbolic.sets import Indices, Range, Subset, sum_over, sum_over_ranges

__all__ = [
    "Abs",
    "Add",
    "And",
    "BoolExpr",
    "CeilDiv",
    "Eq",
    "Expr",
    "FloorDiv",
    "Ge",
    "Gt",
    "Indices",
    "Integer",
    "Le",
    "Lt",
    "Max",
    "Min",
    "Mod",
    "Mul",
    "Ne",
    "Not",
    "Or",
    "Pow",
    "Range",
    "Real",
    "Subset",
    "Symbol",
    "cache_snapshot",
    "cache_stats",
    "clear_caches",
    "parse_expr",
    "simplify",
    "sum_over",
    "sum_over_ranges",
    "symbols",
    "sympify",
]

"""The python tier's scalar path (DESIGN.md §9): where generated code
reaches single elements as Python numbers instead of NumPy scalars.

The analyses here decide it; :class:`~repro.codegen.python_gen.
PythonGenerator` applies them through its one element-access helper,
``_element``, whose result is an :class:`Element`:

* :func:`local_scalars` — transient float64 Scalars that are plain
  Python locals (paper §3: a transient Scalar is a register);
* :func:`tasklet_numbers` — whether a tasklet body computes on Python
  numbers exactly as on NumPy scalars (``pytranslate.number_statements``)
  and how each statement falls back where it may raise;
* :func:`promote_alike` and :func:`points_stay_numbers` — whether a
  whole-domain map may meet Python numbers, and read its point loads as
  ones;
* :func:`memoryviews` — the ``__mv_X`` a function body reads through.
"""

from __future__ import annotations

import ast
import itertools
import re
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.codegen import pytranslate
from repro.codegen.controlflow import _nan_free_names
from repro.sdfg.data import Scalar, Stream
from repro.sdfg.dtypes import ReductionType
from repro.sdfg.nodes import MapEntry, Tasklet

#: Dtypes whose arrays promote a Python number as they promote a NumPy
#: scalar of its value (NEP 50 gives ``float32`` or ``int32`` arrays the
#: Python number's weak type instead): a vectorized map touching only
#: these may read point elements and ``if``/``else`` values as Python
#: numbers.
PROMOTE_ALIKE = ("float64", "int64", "bool")


class Element(NamedTuple):
    """One element as ``PythonGenerator._element`` reaches it."""

    load: str  # the source reading it
    target: str  # the assignment target writing it
    local: bool  # a Python local, which holds a float

    def store(self, value: str, op: str = "", exact: bool = False) -> str:
        """``target op= value``.  A local takes the value through
        ``float()`` unless it is ``exact``ly a float64 value (a Python or
        NumPy float, or an ``op`` on one), as element assignment casts."""
        if self.local and not (exact and self.load == self.target):
            if op:
                value = f"{self.load} {op} {value}"
            return f"{self.target} = float({value})"
        return f"{self.target} {op}= {value}"


def per_sdfg(cache: Dict[int, object], sdfg, analysis):
    """``analysis(sdfg)``, once per SDFG of one generator's ``cache``."""
    if id(sdfg) not in cache:
        cache[id(sdfg)] = analysis(sdfg)
    return cache[id(sdfg)]


def local_scalars(sdfg) -> Set[str]:
    """The transient float64 Scalars of ``sdfg`` whose every memlet, at
    every access node, ends (through any scopes) in a point memlet of a
    tasklet or in a map's range connector — never in a copy, a reduction
    or a nested SDFG — so they can be Python locals."""
    found = {
        n for n, d in sdfg.arrays.items()
        if type(d) is Scalar and d.transient and d.dtype.name == "float64"
    }
    for state in sdfg.nodes() if found else ():
        for node in state.data_nodes():
            if node.data not in found:
                continue
            for e in itertools.chain(state.in_edges(node), state.out_edges(node)):
                if e.data.is_empty():
                    continue
                into = e.dst is node
                inner = state.memlet_path(e)[0 if into else -1]
                end = inner.src if into else inner.dst
                range_input = (
                    not into and isinstance(end, MapEntry)
                    and not (inner.dst_conn or "IN_").startswith("IN_")
                )
                if not (
                    inner.data.data == node.data
                    and inner.data.subset is not None
                    and inner.data.subset.is_point()
                    and (isinstance(end, Tasklet) or range_input)
                ):
                    found.discard(node.data)
                    break
    return found


def symbol_types(sdfg) -> Dict[str, str]:
    """The number types (:func:`pytranslate.number_statements`) of the
    names a tasklet of ``sdfg`` may read besides its connectors and the
    parameters around it: integer symbols, and constants, which are
    Python literals in every form."""
    types = dict.fromkeys(_nan_free_names(sdfg) - set(sdfg.arrays), "i")
    for n, v in sdfg.constants.items():
        types.pop(n, None)
        if type(v) in (bool, int, float):
            types[n] = {bool: "b", int: "i", float: "f"}[type(v)]
    return types


def tasklet_numbers(
    sdfg, state, node, code: str, cname, params, symbols: Dict[str, str]
) -> Optional[Tuple[List[Tuple[str, Optional[str]]], Dict[str, str]]]:
    """:func:`pytranslate.number_statements` of a tasklet, or None when
    it must compute on NumPy scalars.  Its point inputs of float64
    containers (the ones ``_element`` may read as Python numbers) are
    boxed floats; integer and boolean point inputs, the ``params`` around
    it and ``symbols`` (:func:`symbol_types`) are typed.  Any other input
    (a range, a stream, a ``float32`` element) keeps NumPy scalars.
    ``cname`` maps a connector to its name in ``code``."""
    env = dict(symbols)
    env.update(dict.fromkeys(params, "i"))
    boxed = set()
    for e in state.in_edges(node):
        if e.data.is_empty():
            continue
        desc, conn = sdfg.arrays[e.data.data], cname(e.dst_conn)
        kind = desc.dtype.nptype.kind
        if isinstance(desc, Stream) or e.data.subset is None or not e.data.subset.is_point():
            return None
        if desc.dtype.name == "float64":
            env[conn] = "f"
            boxed.add(conn)
        elif kind in "biu":
            env[conn] = "b" if kind == "b" else "i"
        else:
            return None
    return pytranslate.number_statements(code, env, boxed)


def body_source(code: str, stmts) -> str:
    """A tasklet body as :func:`tasklet_numbers` rewrote it: ``code``
    itself, or each statement with a fallback under ``try``/``except
    ArithmeticError``."""
    if not stmts:
        return code
    lines = []
    for src, fallback in stmts:
        if fallback is None:
            lines.append(src)
        else:
            lines += ["try:", f"    {src}", "except ArithmeticError:", f"    {fallback}"]
    return "\n".join(lines)


def memoryviews(sdfg, body: str) -> str:
    """One ``__mv_X = memoryview(X) if X.dtype == np.float64 else X`` per
    container of ``sdfg`` that the function ``body`` reads or writes
    through it."""
    used = set(re.findall(r"\b__mv_(\w+)\[", body))
    return "\n".join(
        f"__mv_{n} = memoryview({n}) if {n}.dtype == np.float64 else {n}"
        for n in sdfg.arrays if n in used
    )


def accumulate(el: Element, val: str, rtype, tmp, combine) -> str:
    """Lines combining element ``el`` with ``val`` under a recognized WCR
    ``rtype``: ``combine(a, b, rtype)`` gives the expression.  Max and
    min name a compound operand first (``tmp`` makes the name), since
    their comparisons read each operand more than once."""
    a, b, lines = el.load, val, []
    exact = rtype in (ReductionType.Sum, ReductionType.Product)
    if not exact:
        if not a.isidentifier():
            a = tmp("a")
            lines.append(f"{a} = {el.load}")
        if not b.isidentifier():
            b = tmp("b")
            lines.append(f"{b} = {val}")
    lines.append(el.store(combine(a, b, rtype), exact=exact))
    return "\n".join(lines)


def promote_alike(sdfg, edges) -> bool:
    """Whether every container the memlets of ``edges`` touch has a dtype
    of :data:`PROMOTE_ALIKE`."""
    return all(sdfg.arrays[e.data.data].dtype.name in PROMOTE_ALIKE for e in edges)


def points_stay_numbers(stmts, loads, index_arrays) -> bool:
    """Whether a whole-domain map may read its point loads as Python
    numbers: it has some, and no statement of ``stmts`` divides them
    with no array involved (:func:`raises_on_numbers`).  ``loads`` pairs
    each load's variable with the map parameters its memlet uses (none
    for a point); ``index_arrays`` are the parameters' index arrays."""
    points = {var for var, params in loads if not params}
    if not points or not any(op in expr for _, expr in stmts for op in ("/", "%", "**")):
        return bool(points)
    vectors = {var for var, params in loads if params} | set(index_arrays)
    return not raises_on_numbers(stmts, vectors, points)


def raises_on_numbers(stmts, vectors: Set[str], numbers: Set[str]) -> bool:
    """Whether a vectorized statement divides (or takes a power, floor
    or remainder) with no array among the operands but with one of
    ``numbers`` (point loads, or values computed from them): on Python
    numbers that may raise where NumPy scalars warn.  ``vectors`` names
    the arrays; what a statement computes from one is an array too."""
    vectors, numbers = set(vectors), set(numbers)
    for tgt, expr in stmts:
        tree = ast.parse(expr, mode="eval")
        for n in ast.walk(tree):
            if isinstance(n, ast.BinOp) and isinstance(n.op, pytranslate.RAISING_OPS):
                names = pytranslate.loaded_names(n)
                if names & numbers and not names & vectors:
                    return True
        names = pytranslate.loaded_names(tree)
        if names & vectors:
            vectors.add(tgt)
        elif names & numbers:
            numbers.add(tgt)
    return False

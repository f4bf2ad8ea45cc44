"""The ``@program`` decorator and the syntactic sentinels of the
Python frontend (``rp.map``, ``rp.tasklet``, ``rp.dyn``)."""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Optional

from repro.symbolic import Symbol


def symbol(name: str) -> Symbol:
    """Declare a symbolic size (paper §2.1 'Parametric Dimensions')."""
    return Symbol(name)


class MapRange:
    """Sentinel enabling ``for i, j in rp.map[0:N, 0:M]`` syntax.

    The subscript is never evaluated at runtime: the frontend recognizes
    the construct in the AST.  Iterating a ``MapRange`` outside a parsed
    program raises to catch accidental plain-Python execution.
    """

    def __getitem__(self, item) -> "MapRange":
        return self

    def __iter__(self):
        raise TypeError(
            "rp.map is a frontend construct; call the @rp.program function "
            "through the DaCe runtime instead of plain Python"
        )


map = MapRange()  # noqa: A001


class _TaskletSentinel:
    """Sentinel enabling ``with rp.tasklet:`` blocks (parsed, not run)."""

    def __call__(self, language=None, code_global: str = ""):
        return self

    def __enter__(self):
        raise TypeError(
            "rp.tasklet blocks only exist inside @rp.program functions"
        )

    def __exit__(self, *args):
        return False


tasklet = _TaskletSentinel()


class _Dyn:
    """Sentinel for dynamic (runtime-determined) memlet volumes."""

    def __repr__(self) -> str:
        return "dyn"


dyn = _Dyn()


class DaceProgram:
    """A parsed data-centric program: SDFG factory + cached compilation."""

    def __init__(self, f: Callable, auto_strict: bool = False):
        self.f = f
        self.name = f.__name__
        self.signature = inspect.signature(f)
        self.auto_strict = auto_strict
        self._sdfg = None
        self._compiled: Dict[str, Any] = {}
        functools.update_wrapper(self, f)

    def to_sdfg(self, simplify: Optional[bool] = None):
        """Parse the function into a fresh SDFG (cached)."""
        if self._sdfg is None:
            from repro.frontend.astparser import parse_program

            self._sdfg = parse_program(self.f)
            if simplify if simplify is not None else self.auto_strict:
                # The strict pass rewrites the graph: check it first.
                self._sdfg.validate()
                self._sdfg.apply_strict_transformations()
        return self._sdfg

    def compile(self, backend: str = "python"):
        if backend not in self._compiled:
            self._compiled[backend] = self.to_sdfg().compile(backend=backend)
        return self._compiled[backend]

    def __call__(self, *args, **kwargs):
        bound = self.signature.bind(*args, **kwargs)
        return self.compile()(**bound.arguments)

    def __repr__(self) -> str:
        return f"DaceProgram({self.name})"


def program(f: Optional[Callable] = None, *, auto_strict: bool = False):
    """Decorator turning a strongly-typed Python function into a
    data-centric program (paper Fig. 2a)."""
    if f is None:
        return lambda fn: DaceProgram(fn, auto_strict=auto_strict)
    return DaceProgram(f, auto_strict=auto_strict)

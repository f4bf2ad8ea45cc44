"""Node types of SDFG state multigraphs (paper Table 1, Appendix A.1).

Every node carries named *connectors* — attachment points for edges.
Scope nodes (Map/Consume entry/exit) use the ``IN_x``/``OUT_x`` naming
convention to relay memlets across the scope boundary; tasklets use
their declared input/output variable names.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.instrumentation.types import InstrumentationType
from repro.sdfg.dtypes import Language, ScheduleType, canonicalize_wcr, typeclass
from repro.symbolic import Expr, Range, Subset, memo, parse_expr, sympify

_node_counter = itertools.count()

#: Names a tasklet may load without a memlet: builtins and math modules.
_TASKLET_BUILTINS = frozenset({
    "min", "max", "abs", "int", "float", "bool", "range", "len",
    "math", "np", "numpy", "True", "False", "None",
})


@memo.cached("tasklet_names")
def _loaded_names(code: str) -> frozenset:
    """Names Python ``code`` loads and never stores, builtins excluded
    (nothing for code that does not parse).  A pure function of the
    code string, memoized on it."""
    import ast

    try:
        tree = ast.parse(code)
    except SyntaxError:
        return frozenset()
    loaded: Set[str] = set()
    stored: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            else:
                loaded.add(node.id)
    return frozenset(loaded - stored - _TASKLET_BUILTINS)


class Node:
    """Base class: identity-hashed, ordered by creation for determinism."""

    def __init__(self):
        self.in_connectors: Set[str] = set()
        self.out_connectors: Set[str] = set()
        self._creation_id = next(_node_counter)

    def add_in_connector(self, name: str) -> str:
        self.in_connectors.add(name)
        return name

    def add_out_connector(self, name: str) -> str:
        self.out_connectors.add(name)
        return name

    def remove_in_connector(self, name: str) -> None:
        self.in_connectors.discard(name)

    def remove_out_connector(self, name: str) -> None:
        self.out_connectors.discard(name)

    def next_in_connector(self) -> str:
        """Fresh ``IN_k`` connector name."""
        k = 1
        while f"IN_{k}" in self.in_connectors:
            k += 1
        return f"IN_{k}"

    @property
    def label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.label}#{self._creation_id}"


class AccessNode(Node):
    """Reference to a data container by name (Data or Stream descriptor)."""

    def __init__(self, data: str):
        super().__init__()
        self.data = data

    @property
    def label(self) -> str:
        return self.data

    def desc(self, sdfg):
        """Resolve this node's descriptor in the given SDFG."""
        return sdfg.arrays[self.data]

    def __repr__(self) -> str:
        return f"AccessNode({self.data})"


class Tasklet(Node):
    """Fine-grained, stateless computation (paper §3.2).

    The code cannot access any memory except through its declared
    input/output connectors; it stays *immutable* throughout
    transformation and compilation.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str] = (),
        outputs: Sequence[str] = (),
        code: str = "",
        language: Language = Language.Python,
        code_global: str = "",
    ):
        super().__init__()
        self.name = name
        self.in_connectors = set(inputs)
        self.out_connectors = set(outputs)
        self.code = code
        self.language = language
        #: Preamble emitted at global scope (e.g. ``#include <mkl.h>``,
        #: paper Fig. 5's external-code support).
        self.code_global = code_global
        #: Instrumentation attached to this tasklet (timed per firing).
        self.instrument = InstrumentationType.NONE

    @property
    def label(self) -> str:
        return self.name

    def free_symbols(self) -> Set[str]:
        """Names referenced by the code that are not connectors or locals.

        Conservative AST-based analysis for Python tasklets; C++ tasklets
        report nothing (they may only touch connectors by contract).
        """
        if self.language != Language.Python:
            return set()
        return set(_loaded_names(self.code) - self.in_connectors - self.out_connectors)

    def __repr__(self) -> str:
        return f"Tasklet({self.name})"


class Map:
    """Shared attribute object of a Map entry/exit pair (paper §3.3).

    ``params`` and ``range`` define the symbolic iteration space; the
    ``schedule`` decides the lowering (OpenMP loop, CUDA kernel, FPGA
    processing elements); ``unroll`` requests compile-time expansion.
    """

    def __init__(
        self,
        label: str,
        params: Sequence[str],
        rng: Union[str, Subset],
        schedule: ScheduleType = ScheduleType.Default,
        unroll: bool = False,
        vectorized: bool = False,
    ):
        self.label = label
        self.params: List[str] = list(params)
        if isinstance(rng, str):
            rng = Subset.from_string(rng)
        self.range: Subset = rng
        if len(self.params) != self.range.dims:
            raise ValueError(
                f"map {label!r}: {len(self.params)} params vs "
                f"{self.range.dims}-dimensional range"
            )
        self.schedule = schedule
        self.unroll = unroll
        #: Set by the Vectorization transformation (the paper's Fig. 15
        #: step); backends choose their lowerings without reading it.
        self.vectorized = vectorized
        #: Instrumentation of the whole scope (shared by entry and exit).
        self.instrument = InstrumentationType.NONE

    def param_ranges(self) -> Dict[str, Range]:
        return dict(zip(self.params, self.range.ranges))

    def num_iterations(self) -> Expr:
        return self.range.num_elements()

    def __repr__(self) -> str:
        rngs = ", ".join(f"{p}={r}" for p, r in zip(self.params, self.range.ranges))
        return f"Map[{rngs}]"


class EntryNode(Node):
    """Base of scope-opening nodes."""


class ExitNode(Node):
    """Base of scope-closing nodes."""


class MapEntry(EntryNode):
    def __init__(self, map_obj: Map):
        super().__init__()
        self.map = map_obj

    @property
    def label(self) -> str:
        return f"{self.map.label}[{self.map.range}]"

    def __repr__(self) -> str:
        return f"MapEntry({self.map!r})"


class MapExit(ExitNode):
    def __init__(self, map_obj: Map):
        super().__init__()
        self.map = map_obj

    @property
    def label(self) -> str:
        return f"{self.map.label}[{self.map.range}]"

    def __repr__(self) -> str:
        return f"MapExit({self.map!r})"


class Consume:
    """Shared attribute object of a Consume entry/exit pair (paper §3.3).

    ``num_pes`` processing elements pop from the input stream until the
    quiescence ``condition`` (a boolean expression over symbols,
    including ``len_<stream>``) evaluates true.
    """

    def __init__(
        self,
        label: str,
        pe_param: str,
        num_pes: Union[int, str, Expr],
        condition: Optional[str] = None,
        schedule: ScheduleType = ScheduleType.Default,
    ):
        self.label = label
        self.pe_param = pe_param
        self.num_pes = sympify(num_pes)
        self.condition = condition  # None = run until stream is empty
        self.schedule = schedule
        #: Instrumentation of the whole scope (shared by entry and exit).
        self.instrument = InstrumentationType.NONE

    def __repr__(self) -> str:
        cond = self.condition or "len(stream) == 0"
        return f"Consume[{self.pe_param}=0:{self.num_pes}, {cond}]"


class ConsumeEntry(EntryNode):
    def __init__(self, consume: Consume):
        super().__init__()
        self.consume = consume
        # The stream element enters the scope through this connector.
        self.add_in_connector("IN_stream")
        self.add_out_connector("OUT_stream")

    @property
    def label(self) -> str:
        return f"{self.consume.label}[p=0:{self.consume.num_pes}]"

    def __repr__(self) -> str:
        return f"ConsumeEntry({self.consume!r})"


class ConsumeExit(ExitNode):
    def __init__(self, consume: Consume):
        super().__init__()
        self.consume = consume

    @property
    def label(self) -> str:
        return f"{self.consume.label}[p=0:{self.consume.num_pes}]"

    def __repr__(self) -> str:
        return f"ConsumeExit({self.consume!r})"


class Reduce(Node):
    """Target-optimized reduction over given axes (paper Table 1).

    Semantically a map over the input subset with an identity tasklet and
    a WCR output memlet (Appendix A.2); backends lower it to optimized
    procedures instead.
    """

    def __init__(
        self,
        wcr: str,
        axes: Optional[Sequence[int]] = None,
        identity=None,
        label: str = "reduce",
    ):
        super().__init__()
        self.wcr = canonicalize_wcr(wcr)
        self.axes = tuple(axes) if axes is not None else None  # None = all axes
        self.identity = identity
        self.name = label
        self.add_in_connector("IN_1")
        self.add_out_connector("OUT_1")

    @property
    def label(self) -> str:
        ax = "all" if self.axes is None else ",".join(map(str, self.axes))
        return f"{self.name}[axes: {ax}]"

    def __repr__(self) -> str:
        return f"Reduce({self.wcr!r}, axes={self.axes})"


class NestedSDFG(Node):
    """Invoke node: calls a nested SDFG within a state (paper §3.4).

    Semantically equivalent to a tasklet — no external memory access
    except through connectors.  ``symbol_mapping`` binds the nested
    SDFG's free symbols to expressions of the outer scope.
    """

    def __init__(
        self,
        label: str,
        sdfg,
        inputs: Sequence[str],
        outputs: Sequence[str],
        symbol_mapping: Optional[Mapping[str, Union[str, int, Expr]]] = None,
    ):
        super().__init__()
        self.name = label
        self.sdfg = sdfg
        self.in_connectors = set(inputs)
        self.out_connectors = set(outputs)
        self.symbol_mapping: Dict[str, Expr] = {
            k: sympify(v) for k, v in (symbol_mapping or {}).items()
        }
        sdfg.parent_node = self

    @property
    def label(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"NestedSDFG({self.name})"

"""The top-level SDFG: a state machine of dataflow states (paper §3).

``SDFG = (S, T, s0)``: states, interstate transitions (condition +
symbol assignments), and a start state.  After a state's dataflow
completes, outgoing transitions are evaluated; the first true condition
selects the next state, its assignments updating the global symbol
environment (Appendix A.2.3).
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.graph import Edge, OrderedMultiDiGraph
from repro.instrumentation.types import InstrumentationType
from repro.sdfg import dtypes
from repro.sdfg.data import Array, Data, Scalar, Stream
from repro.sdfg.dtypes import StorageType, typeclass
from repro.sdfg.nodes import EntryNode, NestedSDFG
from repro.sdfg.state import SDFGState
from repro.symbolic import BoolExpr, Expr, parse_expr, sympify
from repro.symbolic.expr import TRUE


class InterstateEdge:
    """State-transition annotation: guard condition + symbol assignments."""

    def __init__(
        self,
        condition: Union[str, BoolExpr, None] = None,
        assignments: Optional[Mapping[str, Union[str, int, Expr]]] = None,
    ):
        if condition is None:
            self.condition: BoolExpr = TRUE
        elif isinstance(condition, str):
            parsed = parse_expr(condition)
            self.condition = parsed  # may be relational/bool expression
        else:
            self.condition = condition
        self.assignments: Dict[str, Expr] = {
            k: sympify(v) for k, v in (assignments or {}).items()
        }

    def is_unconditional(self) -> bool:
        return self.condition == TRUE

    @property
    def free_symbols(self) -> frozenset:
        out = self.condition.free_symbols
        for v in self.assignments.values():
            out |= v.free_symbols
        return out

    def clone(self) -> "InterstateEdge":
        return InterstateEdge(self.condition, dict(self.assignments))

    def __repr__(self) -> str:
        parts = []
        if not self.is_unconditional():
            parts.append(str(self.condition))
        if self.assignments:
            parts.append("; ".join(f"{k}={v}" for k, v in self.assignments.items()))
        return "InterstateEdge(" + " | ".join(parts) + ")"


class SDFG(OrderedMultiDiGraph[SDFGState, InterstateEdge]):
    """A Stateful Dataflow Multigraph."""

    def __init__(
        self,
        name: str,
        symbols: Optional[Mapping[str, typeclass]] = None,
        constants: Optional[Mapping[str, Any]] = None,
    ):
        super().__init__()
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
            raise ValueError(f"invalid SDFG name {name!r}")
        self.name = name
        #: Container descriptors by name (the paper's global data space).
        self.arrays: Dict[str, Data] = {}
        #: Declared scalar symbols (sizes, runtime parameters) and types.
        self.symbols: Dict[str, typeclass] = dict(symbols or {})
        #: Compile-time constants folded into generated code.
        self.constants: Dict[str, Any] = dict(constants or {})
        self.start_state: Optional[SDFGState] = None
        #: Set when nested inside another SDFG.
        self.parent: Optional[SDFGState] = None
        self.parent_node: Optional[NestedSDFG] = None
        #: History of applied transformations (DIODE's "optimization
        #: version control", §4.2).
        self.transformation_history: List[str] = []
        #: Instrumentation attached to the whole SDFG (timed per call).
        self.instrument = InstrumentationType.NONE
        self._compiled_cache = None

    # ------------------------------------------------------------------ states
    def add_state(self, name: Optional[str] = None, is_start: bool = False) -> SDFGState:
        if name is None:
            name = f"state_{self.number_of_nodes()}"
        if any(s.name == name for s in self.nodes()):
            base = name
            k = 0
            while any(s.name == name for s in self.nodes()):
                k += 1
                name = f"{base}_{k}"
        state = SDFGState(name, sdfg=self)
        self.add_node(state)
        if is_start or self.start_state is None:
            self.start_state = state
        return state

    def add_state_before(
        self, state: SDFGState, name: Optional[str] = None
    ) -> SDFGState:
        """Insert a new state before ``state``, rerouting incoming edges."""
        new = self.add_state(name)
        for e in self.in_edges(state):
            self.remove_edge(e)
            self.add_edge(e.src, new, e.data)
        self.add_edge(new, state, InterstateEdge())
        if self.start_state is state:
            self.start_state = new
        return new

    def add_state_after(self, state: SDFGState, name: Optional[str] = None) -> SDFGState:
        new = self.add_state(name)
        for e in self.out_edges(state):
            self.remove_edge(e)
            self.add_edge(new, e.dst, e.data)
        self.add_edge(state, new, InterstateEdge())
        return new

    def add_loop(
        self,
        before: Optional[SDFGState],
        body: SDFGState,
        after: Optional[SDFGState],
        itervar: str,
        init: Union[str, int, Expr],
        condition: str,
        increment: Union[str, Expr],
    ) -> Tuple[SDFGState, SDFGState]:
        """Build the canonical loop pattern around ``body``.

        Returns ``(guard, after)``.  ``before`` / ``after`` are created
        when None.
        """
        if before is None:
            before = self.add_state(f"{itervar}_init")
        if after is None:
            after = self.add_state(f"{itervar}_end")
        guard = self.add_state(f"{itervar}_guard")
        self.add_edge(before, guard, InterstateEdge(assignments={itervar: init}))
        self.add_edge(guard, body, InterstateEdge(condition=condition))
        cond = parse_expr(condition)
        from repro.symbolic.expr import Not

        self.add_edge(guard, after, InterstateEdge(condition=Not.make(cond)))
        self.add_edge(body, guard, InterstateEdge(assignments={itervar: increment}))
        return guard, after

    # ------------------------------------------------------------------- data
    def _register(self, name: str, desc: Data, find_new_name: bool) -> str:
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
            raise ValueError(f"invalid container name {name!r}")
        if name in self.arrays:
            if not find_new_name:
                raise ValueError(f"container {name!r} already exists")
            name = self._fresh_name(name)
        desc.validate()
        self.arrays[name] = desc
        return name

    def _fresh_name(self, base: str) -> str:
        k = 0
        name = base
        while name in self.arrays or name in self.symbols:
            k += 1
            name = f"{base}_{k}"
        return name

    def add_array(
        self,
        name: str,
        shape: Sequence,
        dtype: typeclass,
        storage: StorageType = StorageType.Default,
        transient: bool = False,
        strides: Optional[Sequence] = None,
        find_new_name: bool = False,
    ) -> Tuple[str, Array]:
        desc = Array(dtype, shape, transient, storage, strides)
        name = self._register(name, desc, find_new_name)
        self._declare_shape_symbols(desc)
        return name, desc

    def add_transient(
        self,
        name: str,
        shape: Sequence,
        dtype: typeclass,
        storage: StorageType = StorageType.Default,
        strides: Optional[Sequence] = None,
        find_new_name: bool = True,
    ) -> Tuple[str, Array]:
        return self.add_array(
            name, shape, dtype, storage, transient=True, strides=strides,
            find_new_name=find_new_name,
        )

    def add_scalar(
        self,
        name: str,
        dtype: typeclass,
        transient: bool = False,
        storage: StorageType = StorageType.Default,
        find_new_name: bool = False,
    ) -> Tuple[str, Scalar]:
        desc = Scalar(dtype, transient, storage)
        name = self._register(name, desc, find_new_name)
        return name, desc

    def add_stream(
        self,
        name: str,
        dtype: typeclass,
        shape: Sequence = (1,),
        buffer_size: int = 0,
        transient: bool = True,
        storage: StorageType = StorageType.Default,
        find_new_name: bool = False,
    ) -> Tuple[str, Stream]:
        desc = Stream(dtype, shape, buffer_size, transient, storage)
        name = self._register(name, desc, find_new_name)
        return name, desc

    def add_datadesc(self, name: str, desc: Data, find_new_name: bool = False) -> str:
        return self._register(name, desc, find_new_name)

    def _declare_shape_symbols(self, desc: Data) -> None:
        for sym in desc.free_symbols:
            self.symbols.setdefault(sym.name, dtypes.int64)

    def add_symbol(self, name: str, stype: typeclass = dtypes.int64) -> None:
        self.symbols[name] = stype

    # ------------------------------------------------------------------ queries
    def states(self) -> List[SDFGState]:
        return self.nodes()

    def arglist(self) -> Dict[str, Data]:
        """Externally-visible containers, in deterministic order."""
        return {
            name: desc
            for name, desc in sorted(self.arrays.items())
            if not desc.transient
        }

    def entry_abi(self) -> Tuple[List[str], List[str]]:
        """Argument order of every generated entry point, nested calls
        included: the :meth:`arglist` containers by name, then the free
        and declared non-constant symbols by name."""
        return list(self.arglist()), sorted(
            set(self.free_symbols()) | set(self.symbols) - set(self.constants)
        )

    def write_set(self) -> frozenset:
        """The non-transient containers a call may change: those that
        are the destination of a memlet in some state.  Every other
        argument leaves a call bitwise unchanged, so a hop ships back
        only these."""
        written: Set[str] = set()
        for state in self.nodes():
            written |= state.read_write_sets()[1]
        return frozenset(
            name for name in written
            if name in self.arrays and not self.arrays[name].transient
        )

    def free_symbols(self) -> Set[str]:
        """Symbols that must be supplied at invocation."""
        symbols: Set = set()
        for desc in self.arrays.values():
            symbols |= desc.free_symbols
        defined: Set[str] = set()
        for state in self.nodes():
            for node in state.nodes():
                if isinstance(node, EntryNode):
                    # Dynamic-range connectors define in-scope names.
                    defined.update(
                        c for c in node.in_connectors if not c.startswith("IN_")
                    )
                    if hasattr(node, "map"):
                        defined.update(node.map.params)
                        symbols |= node.map.range.free_symbols
                    else:
                        defined.add(node.consume.pe_param)
                        symbols |= node.consume.num_pes.free_symbols
            for e in state.edges():
                symbols |= e.data.free_symbols
        for e in self.edges():
            symbols |= e.data.free_symbols
            defined.update(e.data.assignments.keys())
        used = {s.name for s in symbols}
        return (used - defined - set(self.constants)) & set(self.symbols) | (
            used - defined - set(self.constants) - set(self.arrays)
        )

    def transients(self) -> Dict[str, Data]:
        return {n: d for n, d in self.arrays.items() if d.transient}

    # --------------------------------------------------------------- pipeline
    def validate(self) -> None:
        from repro.sdfg.validation import validate_sdfg

        validate_sdfg(self)

    def propagate(self) -> None:
        from repro.sdfg.propagation import propagate_memlets_sdfg

        propagate_memlets_sdfg(self)

    def apply_strict_transformations(self) -> int:
        """Repeatedly apply always-beneficial transformations (paper App. D:
        ``RedundantArray``, ``StateFusion``, ``InlineSDFG``)."""
        from repro.transformations.optimizer import apply_strict_transformations

        return apply_strict_transformations(self)

    def apply_transformations(self, xforms, options=None, validate: bool = True) -> int:
        from repro.transformations.optimizer import apply_transformations

        return apply_transformations(self, xforms, options=options, validate=validate)

    def compile(self, backend: str = "python", validate: bool = True, **options):
        from repro.codegen.compiler import compile_sdfg

        return compile_sdfg(self, backend=backend, validate=validate, **options)

    def __call__(self, **kwargs):
        """Compile (cached) and execute with keyword arguments."""
        if self._compiled_cache is None:
            self._compiled_cache = self.compile()
        return self._compiled_cache(**kwargs)

    def invalidate_compiled(self) -> None:
        self._compiled_cache = None

    def generate_code(self, backend: str = "cpp") -> str:
        from repro.codegen.compiler import generate_code

        return generate_code(self, backend)

    # ---------------------------------------------------------------- copying
    def copy(self) -> "SDFG":
        """A structural copy: what a parse of ``self.to_json()`` builds,
        without the round trip.

        States, nodes, connector sets, Map/Consume objects, memlets,
        descriptors, interstate edges, ``symbols``, ``constants``, the
        transformation history and nested SDFGs (with parent pointers
        into the copy) are new; the immutable symbolic values are shared.
        Every order is kept, so the copy serializes to the same
        dictionary.  The copy is a top-level SDFG with no compiled
        artifact.
        """
        new = SDFG(self.name)
        self._copy_into(new)
        return new

    def _copy_into(self, new: "SDFG") -> None:
        """Make ``new`` what :meth:`copy` returns, whatever it held
        before; its parent pointers and compiled artifact are left
        alone."""
        new.name = self.name
        new.symbols = dict(self.symbols)
        new.constants = dict(self.constants)
        new.instrument = self.instrument
        new.arrays = {name: desc.clone() for name, desc in self.arrays.items()}
        states = {s: s.copy(new) for s in self._nodes}
        self._copy_topology_into(new, states, InterstateEdge.clone)
        new.start_state = states.get(self.start_state)
        new.transformation_history = list(self.transformation_history)

    # ---------------------------------------------------------------- serialization
    def to_json(self) -> dict:
        from repro.sdfg.serialize import sdfg_to_json

        return sdfg_to_json(self)

    @staticmethod
    def from_json(obj: dict) -> "SDFG":
        from repro.sdfg.serialize import sdfg_from_json

        return sdfg_from_json(obj)

    def save(self, path: str) -> None:
        import json

        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2)

    @staticmethod
    def load(path: str) -> "SDFG":
        import json

        with open(path) as f:
            return SDFG.from_json(json.load(f))

    def to_dot(self) -> str:
        from repro.sdfg.viz import sdfg_to_dot

        return sdfg_to_dot(self)

    def summary(self) -> str:
        from repro.sdfg.viz import sdfg_summary

        return sdfg_summary(self)

    def __repr__(self) -> str:
        return (
            f"SDFG({self.name!r}, states={self.number_of_nodes()}, "
            f"arrays={len(self.arrays)})"
        )


def restore_sdfg_inplace(sdfg: SDFG, image: SDFG) -> None:
    """Roll ``sdfg`` back to the graph ``image`` *in place*.

    The transactional rollback of the guarded optimizer: callers holding
    a reference to the SDFG object (compiled artifacts, optimizers, the
    REPL) see the restored graph without rebinding.  A fresh
    :meth:`SDFG.copy` of ``image`` is transplanted into ``sdfg``, so
    ``image`` itself is neither changed nor shared (other guards may
    hold it as their pre-image), and ``sdfg`` serializes like ``image``
    byte for byte afterwards.
    """
    image._copy_into(sdfg)
    sdfg.invalidate_compiled()

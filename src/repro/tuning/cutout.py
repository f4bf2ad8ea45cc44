"""Cutout extraction: turning one state of an SDFG into a standalone,
validated SDFG.

The paper's argument is that a graph IR lets optimization act on *local
dataflow structure*; cutouts cash that out for tuning.  A cutout is a
self-contained SDFG whose arguments are derived from the boundary
memlets of the extracted region: transients that live entirely inside
the region stay transient, everything the region exchanges with the
rest of the program is promoted to an input/output argument.  Because
the extraction is a node-order-preserving copy, deterministic match
enumeration (:func:`repro.transformations.optimizer.sort_matches`)
yields the *same* candidate order inside the cutout as inside the
parent region — which is what lets the cutout tuner
(:mod:`repro.tuning.parallel`) replay a cutout's winning transformation
history onto the parent by match index.

Identical kernels appearing many times in a program (the common case in
gemm chains and multi-layer models) are grouped by
:func:`grouping_hash`, a *normalized* content hash that ignores
incidental naming (array/tasklet/state names) but preserves structure
and node order, so each unique kernel is tuned exactly once.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.diagnostics import Diagnostic, Severity, make_diagnostic
from repro.runtime.arguments import split_arguments
from repro.runtime.interpreter import SDFGInterpreter
from repro.sdfg import dtypes
from repro.sdfg.data import Stream
from repro.sdfg.nodes import AccessNode, NestedSDFG
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import content_hash, sdfg_to_json
from repro.sdfg.state import SDFGState


class CutoutError(Exception):
    """A region that cannot be extracted as a standalone SDFG.

    Carries a W1001 :class:`~repro.diagnostics.Diagnostic`; the batch
    extractors catch it and record the warning instead of failing the
    whole program.
    """

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        self.code = diagnostic.code
        super().__init__(str(diagnostic))


@dataclass
class Cutout:
    """One extracted region: a standalone SDFG plus provenance."""

    sdfg: SDFG
    parent_name: str
    state_name: str
    state_index: int
    _grouping: Optional[str] = field(default=None, repr=False)
    _content: Optional[str] = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return self.state_name

    @property
    def content_hash(self) -> str:
        if self._content is None:
            self._content = content_hash(self.sdfg)
        return self._content

    @property
    def grouping_hash(self) -> str:
        if self._grouping is None:
            self._grouping = grouping_hash(self.sdfg)
        return self._grouping

    @property
    def is_trivial(self) -> bool:
        """True for regions with no dataflow (nothing to tune)."""
        return all(s.number_of_nodes() == 0 for s in self.sdfg.nodes())


# =====================================================================
# Extraction
# =====================================================================


def _sanitize_name(name: str) -> str:
    name = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not re.match(r"^[A-Za-z_]", name):
        name = "_" + name
    return name


def _interstate_names(parent: SDFG) -> Set[str]:
    """Names referenced (or assigned) by any interstate transition."""
    names: Set[str] = set()
    for e in parent.edges():
        names |= {s.name for s in e.data.free_symbols}
        names |= set(e.data.assignments.keys())
    return names


def _data_used_by_state(state: SDFGState) -> Set[str]:
    used: Set[str] = set()
    for node in state.nodes():
        if isinstance(node, AccessNode):
            used.add(node.data)
    for e in state.edges():
        if e.data.data:
            used.add(e.data.data)
    return used


def _usage_map(parent: SDFG) -> Dict[str, Set[str]]:
    """Data container name -> set of state names that use it."""
    usage: Dict[str, Set[str]] = {}
    for state in parent.nodes():
        for name in _data_used_by_state(state):
            usage.setdefault(name, set()).add(state.name)
    return usage


def _reject(parent, state, message: str, data: Optional[str] = None):
    raise CutoutError(
        make_diagnostic(
            "W1001", message, Severity.WARNING, sdfg=parent, state=state, data=data
        )
    )


def _declare_free_names(cut: SDFG, parent: SDFG) -> None:
    """Declare exactly the symbols the cutout uses (copying the parent's
    types) and fold in the parent constants it references.  Declaring
    *only* used symbols matters: input synthesis binds every declared
    symbol, and the compiled cutout rejects spurious keyword arguments.
    """
    for name in sorted(cut.free_symbols()):
        if name in parent.constants:
            cut.constants[name] = parent.constants[name]
        else:
            cut.add_symbol(name, parent.symbols.get(name, dtypes.int64))


def extract_state_cutout(parent: SDFG, state: SDFGState) -> Cutout:
    """Extract one state as a standalone SDFG.

    Boundary derivation: a transient stays transient only when it is
    used by this state alone and never appears in an interstate
    transition; otherwise it carries values across the region boundary
    and is promoted to a (non-transient) argument.  Raises
    :class:`CutoutError` (W1001) for regions that cannot stand alone.
    """
    for node in state.nodes():
        if isinstance(node, NestedSDFG):
            _reject(parent, state,
                    "cutout extraction does not support nested SDFGs")

    used = _data_used_by_state(state)
    usage = _usage_map(parent)
    inter = _interstate_names(parent)

    name = _sanitize_name(f"{parent.name}_cut_{state.name}")
    cut = SDFG(name)
    for dname in sorted(used):
        desc = parent.arrays.get(dname)
        if desc is None:
            _reject(parent, state,
                    f"state references undefined container {dname!r}",
                    data=dname)
        copy = desc.clone()
        if desc.transient:
            escapes = bool(usage.get(dname, set()) - {state.name}) or dname in inter
            if escapes:
                if isinstance(desc, Stream):
                    _reject(parent, state,
                            f"transient stream {dname!r} crosses the state "
                            "boundary and cannot be promoted to an argument",
                            data=dname)
                copy.transient = False
        cut.arrays[dname] = copy

    new_state = state.copy(cut)
    cut.add_node(new_state)
    cut.start_state = new_state
    _declare_free_names(cut, parent)

    try:
        cut.validate()
    except Exception as err:  # noqa: BLE001 - any invalidity rejects the region
        _reject(parent, state,
                f"extracted cutout failed validation: {err}")
    return Cutout(
        sdfg=cut,
        parent_name=parent.name,
        state_name=state.name,
        state_index=parent.nodes().index(state),
    )


def extract_state_cutouts(
    parent: SDFG,
) -> Tuple[List[Cutout], List[Diagnostic]]:
    """Extract every non-empty state; unsupported regions become W1001
    warnings instead of failures (those regions are simply not tuned)."""
    cutouts: List[Cutout] = []
    warnings: List[Diagnostic] = []
    for state in parent.nodes():
        if state.number_of_nodes() == 0:
            continue
        try:
            cutouts.append(extract_state_cutout(parent, state))
        except CutoutError as err:
            warnings.append(err.diagnostic)
    return cutouts, warnings


# =====================================================================
# Grouping (normalized content hash)
# =====================================================================


def grouping_hash(sdfg: SDFG) -> str:
    """Content hash modulo incidental naming.

    The canonical serialized form is rewritten so that array names are
    positional (first-appearance order over access nodes, then edges,
    then leftovers sorted), and SDFG/state/tasklet/map names are
    replaced with positional placeholders.  Structure, node order,
    connectors, subsets, symbols, dtypes, and schedules are untouched —
    so two cutouts share a grouping hash exactly when they are the same
    kernel up to renaming of containers and labels.  Equal normalized
    forms imply equal node insertion order, which is what makes a tuned
    representative's (transformation, match-index) history replayable on
    every member of its group.
    """
    obj = sdfg_to_json(sdfg, canonical=True)
    obj["name"] = "cutout"

    order: List[str] = []
    seen: Set[str] = set()

    def note(name: Optional[str]) -> None:
        if name and name not in seen:
            seen.add(name)
            order.append(name)

    for st in obj["states"]:
        for n in st["nodes"]:
            if n["type"] == "AccessNode":
                note(n["data"])
        for e in st["edges"]:
            note(e["memlet"]["data"])
    for name in sorted(obj["arrays"]):
        note(name)
    rename = {name: f"__a{i}" for i, name in enumerate(order)}

    obj["arrays"] = {
        rename.get(k, k): v for k, v in obj["arrays"].items()
    }
    for si, st in enumerate(obj["states"]):
        st["name"] = f"__s{si}"
        counter = 0
        for n in st["nodes"]:
            kind = n["type"]
            if kind == "AccessNode":
                n["data"] = rename.get(n["data"], n["data"])
            elif kind in ("Tasklet", "Reduce"):
                n["name"] = f"__n{counter}"
                counter += 1
            elif kind in ("MapEntry", "MapExit"):
                n["label"] = "__m"
            elif kind in ("ConsumeEntry", "ConsumeExit"):
                n["label"] = "__c"
        for e in st["edges"]:
            m = e["memlet"]
            if m["data"] in rename:
                m["data"] = rename[m["data"]]
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def group_cutouts(cutouts: Sequence[Cutout]) -> "Dict[str, List[Cutout]]":
    """Group cutouts by normalized hash, preserving first-appearance
    order; each group is tuned once (via its first member)."""
    groups: Dict[str, List[Cutout]] = {}
    for cut in cutouts:
        groups.setdefault(cut.grouping_hash, []).append(cut)
    return groups


# =====================================================================
# Chain execution (cutout fidelity)
# =====================================================================


class _CutoutChain(SDFGInterpreter):
    """The parent's interpreter, with each state run as its cutout."""

    def __init__(self, parent: SDFG, cutouts: Sequence[Cutout]):
        super().__init__(parent, validate=False)
        self._interpreters = {c.state_name: SDFGInterpreter(c.sdfg, validate=False)
                              for c in cutouts}

    def _execute_state(self, sdfg, state, mem, sym) -> None:
        if state.number_of_nodes() == 0:
            return
        interp = self._interpreters.get(state.name)
        if interp is None:
            raise KeyError(f"no cutout provided for state {state.name!r}")
        cut = interp.sdfg
        interp.run({n: mem[n] for n, desc in cut.arglist().items()
                    if not isinstance(desc, Stream)},
                   {s: sym[s] for s in cut.symbols if s in sym})


def execute_cutouts(
    parent: SDFG,
    cutouts: Sequence[Cutout],
    arrays: Mapping[str, Any],
    symbols: Optional[Mapping[str, int]] = None,
) -> Dict[str, np.ndarray]:
    """Execute the parent program *through its cutouts*: the reference
    interpreter walks the parent state machine, running each state's
    extracted cutout on the live data environment — the executable
    statement of cutout fidelity (every promoted boundary is faithful
    iff this matches the parent).

    ``arrays`` (copied, never mutated) and ``symbols`` are the parent's
    arguments, marshaled as for any call; transients are allocated as
    the interpreter allocates them.  Returns the non-transient
    containers after the walk.
    """
    arrays, symbols = split_arguments(parent, {
        **{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in arrays.items()},
        **(symbols or {}),
    })
    _CutoutChain(parent, cutouts).run(arrays, symbols)
    return {
        name: arrays[name]
        for name, desc in parent.arrays.items()
        if not desc.transient and isinstance(arrays.get(name), np.ndarray)
    }

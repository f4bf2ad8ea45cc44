"""SDFG validation (paper §4.3, compilation step ❶'s validation pass).

Checks that scopes are correctly structured, memlets are connected
properly, and map schedules / data storage locations are feasible
(failing when, e.g., FPGA-resident data is accessed inside a GPU map).

All checks report through :mod:`repro.diagnostics`.  By default the
first ERROR raises :class:`InvalidSDFGError` (historical fail-fast
behavior); with ``collect_all=True`` every diagnostic of a broken SDFG
is returned so tooling can show them all at once.  Collect mode also
runs the lints: a static write-conflict detector (paper §3.2:
conflicting writes require a WCR memlet) emits W501 warnings for
overlapping writes inside map scopes that lack conflict resolution, and
the instrumentation-placement lint emits W601–W603.  Fail-fast mode
runs only the error checks.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.graph import CycleError, topological_sort
from repro.sdfg.data import Stream
from repro.sdfg.dtypes import (
    STORAGE_ACCESSIBLE_FROM,
    ScheduleType,
    StorageType,
)
from repro.sdfg.nodes import (
    AccessNode,
    ConsumeEntry,
    EntryNode,
    ExitNode,
    MapEntry,
    NestedSDFG,
    Node,
    Tasklet,
)
from repro.sdfg.state import SDFGState
from repro.symbolic import memo
from repro.symbolic.sets import decide_nonnegative


class InvalidSDFGError(Exception):
    """Raised when an SDFG fails validation."""

    def __init__(self, message: str, sdfg=None, state=None, node=None, code: str = "V000"):
        self.sdfg = sdfg
        self.state = state
        self.node = node
        self.code = code
        self.diagnostic = Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            sdfg=getattr(sdfg, "name", None),
            state=getattr(state, "name", None),
            node=repr(node) if node is not None else None,
        )
        loc = ""
        if state is not None:
            loc += f" [state {state.name}]"
        if node is not None:
            loc += f" [node {node!r}]"
        super().__init__(message + loc)


def _invalid_sdfg_factory(diag: Diagnostic, sdfg, state, node) -> InvalidSDFGError:
    return InvalidSDFGError(diag.message, sdfg, state, node, code=diag.code)


def _collector(collect_all: bool) -> DiagnosticCollector:
    return DiagnosticCollector(
        collect_all=collect_all, error_factory=_invalid_sdfg_factory
    )


def validate_sdfg(sdfg, collect_all: bool = False) -> List[Diagnostic]:
    """Validate the full SDFG, recursing into nested SDFGs.

    In the default fail-fast mode the first error raises
    :class:`InvalidSDFGError`, and the W501/W6xx lints do not run.  With
    ``collect_all=True`` no exception is raised and the complete list of
    diagnostics (errors and warnings) is returned.
    """
    ctx = _collector(collect_all)
    _validate_sdfg_into(sdfg, ctx)
    # The lints only warn, and fail-fast callers discard warnings.  Each
    # recurses into nested SDFGs itself, so it runs once, here.
    if collect_all:
        detect_write_conflicts(sdfg, ctx)
        check_instrumentation_placement(sdfg, ctx)
    return ctx.diagnostics


def _validate_sdfg_into(sdfg, ctx: DiagnosticCollector) -> None:
    if sdfg.number_of_nodes() == 0:
        ctx.error("V001", "SDFG has no states", sdfg=sdfg)
        return  # nothing further to check
    if sdfg.start_state is None or sdfg.start_state not in sdfg:
        ctx.error("V002", "SDFG has no start state", sdfg=sdfg)

    names = [s.name for s in sdfg.nodes()]
    if len(set(names)) != len(names):
        ctx.error("V003", f"duplicate state names: {names}", sdfg=sdfg)

    _validate_descriptor_symbols(sdfg, ctx)

    for state in sdfg.nodes():
        _validate_boundary_memlets(sdfg, state, ctx)
        validate_state(sdfg, state, ctx)

    # Interstate edges may only assign to symbols, not container names.
    for e in sdfg.edges():
        for target in e.data.assignments:
            if target in sdfg.arrays:
                ctx.error(
                    "V004",
                    f"interstate assignment to container {target!r}",
                    sdfg=sdfg,
                )


def _validate_descriptor_symbols(sdfg, ctx: DiagnosticCollector) -> None:
    """V005: a container whose shape or strides name a map or consume
    parameter.  A parameter is bound only inside its scope, and
    containers are allocated outside every scope (before the states)."""
    params: Set[str] = set()
    for state in sdfg.nodes():
        for entry in state.entry_nodes():
            if isinstance(entry, MapEntry):
                params.update(entry.map.params)
            else:
                params.add(entry.consume.pe_param)
    if not params:
        return
    for name, desc in sdfg.arrays.items():
        exprs = desc.shape + getattr(desc, "strides", ())
        used = {s.name for e in exprs for s in e.free_symbols}
        if used & params:
            ctx.error(
                "V005",
                f"container {name!r} is sized by scope parameter(s) "
                f"{sorted(used & params)}",
                sdfg=sdfg,
                data=name,
            )


def _validate_boundary_memlets(sdfg, state: SDFGState, ctx: DiagnosticCollector) -> None:
    """V006: a memlet outside a scope (into its entry, out of its exit)
    whose volume names a parameter of that scope.  Propagation sums a
    scope's inner volumes over its range, so the outer volume names none
    of them; one that does was left by a rewrite.  Subsets are not
    checked: a hand-built graph repeats the inner subset on every hop of
    a memlet path until it is propagated, and its volume is the subset's
    size, which names no parameter."""
    for entry in state.entry_nodes():
        if isinstance(entry, MapEntry):
            params = set(entry.map.params)
        else:
            params = {entry.consume.pe_param}
        try:
            edges = state.in_edges(entry) + state.out_edges(state.exit_node(entry))
        except KeyError:
            continue  # reported as V103
        for e in edges:
            mem = e.data
            if mem.is_empty():
                continue
            names = {s.name for s in mem.volume.free_symbols}
            if names & params:
                ctx.error(
                    "V006",
                    f"volume {mem.volume} of memlet {mem!r} outside the scope "
                    f"of {entry!r} names its parameter(s) {sorted(names & params)}",
                    sdfg=sdfg,
                    state=state,
                    node=entry,
                    data=mem.data,
                )


def validate_state(
    sdfg, state: SDFGState, ctx: Optional[DiagnosticCollector] = None
) -> List[Diagnostic]:
    if ctx is None:
        ctx = _collector(collect_all=False)

    # ❶ acyclicity
    try:
        topological_sort(state)
    except CycleError as err:
        ctx.error(
            "V101", "state dataflow graph is cyclic", sdfg=sdfg, state=state, cause=err
        )

    # One scope tree serves the node checks and ❹; a malformed one is
    # reported once, as V102, in ❹'s place.
    try:
        sd = state.scope_dict()
        scope_error = None
    except (ValueError, KeyError) as err:
        sd, scope_error = None, err

    # ❷ node-level checks
    for node in state.nodes():
        _validate_node(sdfg, state, node, ctx, sd)

    # ❸ edge/memlet checks
    for e in state.edges():
        _validate_edge(sdfg, state, e, ctx)

    # ❹ scope structure (reported on inconsistency) + schedule/storage
    # feasibility (depends on a well-formed scope tree, hence skipped on
    # malformed scopes in collect mode).
    if scope_error is not None:
        ctx.error(
            "V102",
            f"malformed scopes: {scope_error}",
            sdfg=sdfg,
            state=state,
            cause=scope_error,
        )
    else:
        _validate_storage(sdfg, state, sd, ctx)

    # ❺ every entry has exactly one matching exit
    for entry in state.entry_nodes():
        try:
            state.exit_node(entry)
        except KeyError as err:
            ctx.error(
                "V103",
                "scope entry without matching exit",
                sdfg=sdfg,
                state=state,
                node=entry,
                cause=err,
            )
    return ctx.diagnostics


def _validate_node(
    sdfg, state: SDFGState, node: Node, ctx: DiagnosticCollector, scope_dict
) -> None:
    if isinstance(node, AccessNode):
        if node.data not in sdfg.arrays:
            ctx.error(
                "V201",
                f"access node references undefined container {node.data!r}",
                sdfg=sdfg,
                state=state,
                node=node,
                data=node.data,
            )
        return

    if isinstance(node, Tasklet):
        # Tasklets may not reference external memory without memlets: all
        # loaded names must be connectors, scope parameters, or symbols.
        # Malformed scopes (no scope_dict) are reported separately (V102).
        if scope_dict is not None:
            defined = _symbols_defined_at(sdfg, node, scope_dict)
            for name in node.free_symbols():
                if name not in defined and name not in sdfg.constants:
                    ctx.error(
                        "V202",
                        f"tasklet accesses name {name!r} without a memlet "
                        "(undeclared symbol or external memory)",
                        sdfg=sdfg,
                        state=state,
                        node=node,
                    )
        # Connected edges must target declared connectors.
        for e in state.in_edges(node):
            if e.dst_conn is None and not e.data.is_empty():
                ctx.error(
                    "V203",
                    "dataflow into tasklet without a connector",
                    sdfg=sdfg,
                    state=state,
                    node=node,
                )
        for e in state.out_edges(node):
            if e.src_conn is None and not e.data.is_empty():
                ctx.error(
                    "V204",
                    "dataflow out of tasklet without a connector",
                    sdfg=sdfg,
                    state=state,
                    node=node,
                )
        if not state.out_edges(node) and node.out_connectors:
            ctx.error(
                "V205",
                "tasklet declares outputs but has no outgoing edges",
                sdfg=sdfg,
                state=state,
                node=node,
            )
        return

    if isinstance(node, NestedSDFG):
        # Recurse; nested SDFG must not recurse into itself (paper §3.4).
        if node.sdfg is sdfg:
            ctx.error(
                "V206", "recursive nested SDFG", sdfg=sdfg, state=state, node=node
            )
            return
        _validate_sdfg_into(node.sdfg, ctx)
        outer_names = set(node.in_connectors) | set(node.out_connectors)
        for conn in outer_names:
            if conn not in node.sdfg.arrays:
                ctx.error(
                    "V207",
                    f"nested SDFG connector {conn!r} has no matching container",
                    sdfg=sdfg,
                    state=state,
                    node=node,
                )
        return

    if isinstance(node, MapEntry):
        # A range bound read from data arrives on a connector of the
        # entry itself; a rewrite that moves the range off its entry
        # leaves the name unbound where the map starts.
        lacking = {s.name for s in node.map.range.free_symbols}
        lacking -= node.in_connectors | set(sdfg.symbols) | set(sdfg.constants)
        if lacking:
            lacking &= {
                c for n in state.entry_nodes() for c in n.in_connectors
                if not c.startswith("IN_")
            }
        if lacking:
            ctx.error(
                "V210",
                f"map range names dynamic-range connector(s) {sorted(lacking)} "
                "that its entry lacks",
                sdfg=sdfg,
                state=state,
                node=node,
            )
        return

    if isinstance(node, ConsumeEntry):
        ins = state.in_edges_by_connector(node, "IN_stream")
        if len(ins) != 1:
            ctx.error(
                "V208",
                "consume entry needs exactly one stream input",
                sdfg=sdfg,
                state=state,
                node=node,
            )
            return
        src = ins[0].src
        if not (isinstance(src, AccessNode) and isinstance(src.desc(sdfg), Stream)):
            ctx.error(
                "V209",
                "consume entry input must come from a stream",
                sdfg=sdfg,
                state=state,
                node=node,
            )


def _validate_edge(sdfg, state: SDFGState, e, ctx: DiagnosticCollector) -> None:
    mem = e.data
    if mem.is_empty():
        return
    if mem.data not in sdfg.arrays:
        ctx.error(
            "V301",
            f"memlet references undefined container {mem.data!r}",
            sdfg=sdfg,
            state=state,
            data=mem.data,
        )
        return  # remaining checks dereference the descriptor
    desc = sdfg.arrays[mem.data]
    if mem.subset is not None and mem.subset.dims != desc.dims:
        ctx.error(
            "V302",
            f"memlet subset [{mem.subset}] rank {mem.subset.dims} does not "
            f"match container {mem.data!r} rank {desc.dims}",
            sdfg=sdfg,
            state=state,
            data=mem.data,
        )
    if mem.other_subset is not None:
        # other_subset reindexes the opposite endpoint's container.
        other = e.dst if isinstance(e.dst, AccessNode) else e.src
        if isinstance(other, AccessNode) and other.data in sdfg.arrays:
            odesc = sdfg.arrays[other.data]
            if mem.other_subset.dims != odesc.dims:
                ctx.error(
                    "V303",
                    f"memlet other_subset rank mismatch on {other.data!r}",
                    sdfg=sdfg,
                    state=state,
                    data=other.data,
                )
    # Connector existence on endpoints with explicit connector sets.
    if e.src_conn is not None and e.src_conn not in e.src.out_connectors:
        ctx.error(
            "V304",
            f"edge uses undeclared source connector {e.src_conn!r}",
            sdfg=sdfg,
            state=state,
            node=e.src,
        )
    if e.dst_conn is not None and e.dst_conn not in e.dst.in_connectors:
        ctx.error(
            "V305",
            f"edge uses undeclared destination connector {e.dst_conn!r}",
            sdfg=sdfg,
            state=state,
            node=e.dst,
        )
    # Subset must fit in the container — checked only when every free
    # symbol is a global size symbol (map parameters and loop variables
    # have data-dependent domains the positive-symbol model cannot bound).
    if mem.subset is not None and mem.subset.dims == desc.dims:
        for s in mem.subset.free_symbols:
            if s.name not in sdfg.symbols and s.name not in sdfg.constants:
                return
        for _ in range(_dims_out_of_bounds(mem.subset, desc.shape)):
            ctx.error(
                "V306",
                f"memlet {mem!r} is out of bounds for container "
                f"{mem.data!r} (shape {desc.shape})",
                sdfg=sdfg,
                state=state,
                data=mem.data,
            )


@memo.cached("bounds")
def _dims_out_of_bounds(subset, shape) -> int:
    """How many dimensions of ``subset`` provably leave ``shape`` (V306
    reports each).  A pure function of the two immutable arguments,
    memoized on them."""
    count = 0
    for r, dim in zip(subset.ranges, shape):
        # max_element is inclusive: OOB iff max >= dim.
        over = decide_nonnegative(r.max_element() - dim)
        under = decide_nonnegative(-r.min_element() - 1)
        if over is True or under is True:
            count += 1
    return count


def _validate_storage(
    sdfg, state: SDFGState, scope_dict, ctx: DiagnosticCollector
) -> None:
    """Schedules may only touch storage they can reach (paper §3.1:
    'memlets between containers either generate appropriate memory copy
    operations or fail with illegal accesses')."""
    for node in state.nodes():
        if not isinstance(node, AccessNode):
            continue
        if node.data not in sdfg.arrays:
            continue  # reported as V201
        storage = node.desc(sdfg).storage
        if storage == StorageType.Default:
            continue
        entry = scope_dict.get(node)
        schedule = _innermost_schedule(entry, scope_dict)
        if schedule is None:
            continue
        allowed = STORAGE_ACCESSIBLE_FROM[schedule]
        if storage not in allowed:
            ctx.error(
                "V401",
                f"container {node.data!r} with storage {storage.name} is not "
                f"accessible from schedule {schedule.name}",
                sdfg=sdfg,
                state=state,
                node=node,
                data=node.data,
            )


# =====================================================================
# Instrumentation placement lint (W6xx)
# =====================================================================


def check_instrumentation_placement(
    sdfg, ctx: Optional[DiagnosticCollector] = None
) -> List[Diagnostic]:
    """Warn when instrumentation is attached to elements that can never
    produce meaningful events: empty states (W601), disconnected nodes
    (W602), and states unreachable from the start state (W603).

    These placements are legal — the report simply stays empty or
    trivial — but they almost always indicate a tag left behind by a
    transformation or attached to the wrong element, so
    ``validate_sdfg(..., collect_all=True)`` surfaces them as warnings.
    """
    from repro.instrumentation.types import InstrumentationType

    if ctx is None:
        ctx = DiagnosticCollector(collect_all=True)

    # Reachability over the state machine, from the start state.
    reachable: Set = set()
    if sdfg.start_state is not None and sdfg.start_state in sdfg:
        frontier = [sdfg.start_state]
        while frontier:
            state = frontier.pop()
            if state in reachable:
                continue
            reachable.add(state)
            frontier.extend(e.dst for e in sdfg.out_edges(state))

    for state in sdfg.nodes():
        if state.instrument != InstrumentationType.NONE:
            if state.number_of_nodes() == 0:
                ctx.warning(
                    "W601",
                    f"state {state.name!r} is instrumented "
                    f"({state.instrument.name}) but contains no nodes; "
                    "it will never record iterations or data movement",
                    sdfg=sdfg,
                    state=state,
                )
            if state not in reachable:
                ctx.warning(
                    "W603",
                    f"state {state.name!r} is instrumented "
                    f"({state.instrument.name}) but unreachable from the "
                    "start state; it will never execute",
                    sdfg=sdfg,
                    state=state,
                )
        for node in state.nodes():
            if isinstance(node, Tasklet):
                itype = node.instrument
            elif isinstance(node, MapEntry):
                itype = node.map.instrument
            elif isinstance(node, ConsumeEntry):
                itype = node.consume.instrument
            else:
                continue
            if itype == InstrumentationType.NONE:
                continue
            if not state.in_edges(node) and not state.out_edges(node):
                ctx.warning(
                    "W602",
                    f"instrumented ({itype.name}) node {node!r} is "
                    "disconnected from the dataflow graph",
                    sdfg=sdfg,
                    state=state,
                    node=node,
                )
        for node in state.nodes():
            if isinstance(node, NestedSDFG) and node.sdfg is not sdfg:
                check_instrumentation_placement(node.sdfg, ctx)
    return ctx.warnings()


# =====================================================================
# Static write-conflict detection (paper §3.2)
# =====================================================================


def detect_write_conflicts(
    sdfg, ctx: Optional[DiagnosticCollector] = None
) -> List[Diagnostic]:
    """Warn (W501) when a write that crosses a map exit may touch the
    same elements from different iterations without a WCR memlet.

    A map parameter is *covered* when it appears in the write's subset,
    or — transitively — when the range of a covered parameter depends on
    it (tiled maps: the inner parameter's range is anchored at the tile
    parameter, so distinct tiles write disjoint elements).  A write
    crossing a map whose parameter is not covered repeats the same
    subset every iteration: a conflict unless the memlet declares a WCR
    or is dynamic (data-dependent writes are the programmer's contract,
    e.g. stream pushes).
    """
    if ctx is None:
        ctx = DiagnosticCollector(collect_all=True)
    for state in sdfg.nodes():
        _detect_state_write_conflicts(sdfg, state, ctx)
        for node in state.nodes():
            if isinstance(node, NestedSDFG) and node.sdfg is not sdfg:
                detect_write_conflicts(node.sdfg, ctx)
    return ctx.warnings()


def _detect_state_write_conflicts(sdfg, state, ctx: DiagnosticCollector) -> None:
    for e in state.edges():
        mem = e.data
        if mem.is_empty() or mem.wcr is not None or mem.dynamic:
            continue
        if mem.subset is None or mem.data not in sdfg.arrays:
            continue
        # Only analyze write origins: edges leaving a compute node (or an
        # access-node copy source) whose memlet path crosses a map exit.
        if isinstance(e.src, (EntryNode, ExitNode)):
            continue
        try:
            path = state.memlet_path(e)
        except ValueError:
            continue  # fan-out paths: branches are analyzed individually
        if path[0] is not e:
            continue  # interior edge; the origin edge covers this path
        crossed = [
            state.entry_node_of(edge.dst)
            for edge in path
            if isinstance(edge.dst, ExitNode)
        ]
        crossed = [c for c in crossed if isinstance(c, MapEntry)]
        if not crossed:
            continue
        # The conflict concerns the final destination container; skip
        # reindexed copies where the written subset is other_subset.
        final = path[-1].dst
        if isinstance(final, AccessNode) and final.data != mem.data:
            continue
        missing = _uncovered_params(mem.subset, crossed)
        if missing:
            maps = ", ".join(sorted({c.map.label for c in crossed}))
            ctx.warning(
                "W501",
                f"write to {mem.data!r}[{mem.subset}] repeats across "
                f"iterations of parameter(s) {sorted(missing)} of map(s) "
                f"{maps} without conflict resolution (WCR)",
                sdfg=sdfg,
                state=state,
                node=e.src,
                data=mem.data,
            )


def _uncovered_params(subset, crossed_entries) -> Set[str]:
    """Map parameters (of the crossed scopes) not pinned by the subset,
    directly or through the range of a pinned parameter."""
    param_ranges = {}
    for entry in crossed_entries:
        for param, rng in zip(entry.map.params, entry.map.range.ranges):
            param_ranges[param] = rng
    covered = {s.name for s in subset.free_symbols}
    changed = True
    while changed:
        changed = False
        for param, rng in param_ranges.items():
            if param not in covered:
                continue
            for expr in (rng.start, rng.end, rng.step):
                for s in expr.free_symbols:
                    if s.name in param_ranges and s.name not in covered:
                        covered.add(s.name)
                        changed = True
    return set(param_ranges) - covered


def _innermost_schedule(entry, scope_dict=None) -> Optional[ScheduleType]:
    """Innermost *effective* schedule: Default/Sequential scopes inherit
    the surrounding device schedule (a sequential loop inside a GPU
    kernel still executes on the device)."""
    while entry is not None:
        sched = entry.map.schedule if isinstance(entry, MapEntry) else entry.consume.schedule
        if sched not in (ScheduleType.Default, ScheduleType.Sequential):
            return sched
        if scope_dict is None:
            return sched
        entry = scope_dict.get(entry)
    return None


def _symbols_defined_at(sdfg, node: Node, sd) -> Set[str]:
    """Symbols visible to a node: SDFG symbols + enclosing scope params
    (``sd`` is the node's state's ``scope_dict``)."""
    defined = set(sdfg.symbols)
    # Interstate assignments introduce symbols as well.
    for e in sdfg.edges():
        defined.update(e.data.assignments.keys())
    entry = sd.get(node)
    while entry is not None:
        if isinstance(entry, MapEntry):
            defined.update(entry.map.params)
            # Data-dependent range inputs arrive via extra connectors.
            defined.update(
                c for c in entry.in_connectors if not c.startswith("IN_")
            )
        else:
            defined.add(entry.consume.pe_param)
        entry = sd.get(entry)
    return defined

"""Analytic (roofline-style) performance model over SDFGs.

The model consumes exactly what SDFG analysis provides — propagated
memlet volumes (data movement) and tasklet operation counts (work) — and
a machine model, producing a simulated execution time.  It is the
substitute for the paper's GPU and FPGA hardware runs (DESIGN.md §1):
absolute numbers are estimates, but *relative* behavior (who wins, how
copies and launches dominate small kernels, how pipelining beats naive
HLS by orders of magnitude) follows from the same quantities the paper's
analysis is based on.

Main entry points::

    report = simulate(sdfg, machine="gpu", symbols={"N": 4096})
    report.time            # seconds
    report.flops, report.bytes_moved

``simulate`` analyses the graph (validate + propagate) once and then
walks it; ``simulate_analysed`` is the walk alone, for callers that have
just done that analysis themselves.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.runtime.interpreter import next_state
from repro.runtime.machine import MACHINES, FPGAModel, MachineModel
from repro.sdfg.data import Stream
from repro.sdfg.dtypes import Language, StorageType
from repro.sdfg.nodes import (
    AccessNode,
    ConsumeEntry,
    EntryNode,
    MapEntry,
    NestedSDFG,
    Reduce,
    Tasklet,
)
from repro.graph import topological_sort
from repro.sdfg.propagation import scope_param_ranges
from repro.symbolic import memo
from repro.symbolic.sets import sum_over_ranges

_GPU_STORAGE = {StorageType.GPU_Global, StorageType.GPU_Shared}


def tasklet_flops(tasklet: Tasklet) -> int:
    """Arithmetic operation count of one tasklet execution (AST walk)."""
    if tasklet.language != Language.Python:
        return 2  # opaque external code: assume a multiply-add
    return _code_flops(tasklet.code)


@memo.cached("flops")
def _code_flops(code: str) -> int:
    """:func:`tasklet_flops` of Python ``code``: a pure function of the
    code string, memoized on it."""
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return 1
    flops = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            flops += 10 if isinstance(node.op, ast.Pow) else 1
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            flops += 1
        elif isinstance(node, ast.Call):
            flops += 10  # transcendental
        elif isinstance(node, ast.Compare):
            flops += len(node.ops)
    return max(flops, 1)


@dataclass
class ScopeCost:
    label: str
    iterations: float = 0.0
    flops: float = 0.0
    bytes_moved: float = 0.0
    random_access: bool = False
    kernel: bool = False  # launched as one device kernel
    pes: int = 1  # parallel processing elements (FPGA)


@dataclass
class SimReport:
    machine: str
    time: float = 0.0
    flops: float = 0.0
    bytes_moved: float = 0.0
    transfer_bytes: float = 0.0
    kernel_launches: int = 0
    breakdown: List[Tuple[str, float]] = field(default_factory=list)
    #: Names the walk read without a binding, all of them data-dependent:
    #: where an expression counted once, a nested SDFG's mapping entry was
    #: left out, or a transition ended the state walk.  Binding only names
    #: outside this set does not change the report.
    unbound: FrozenSet[str] = frozenset()

    @property
    def achieved_flops(self) -> float:
        return self.flops / self.time if self.time > 0 else 0.0

    def fraction_of_peak(self, machine: MachineModel) -> float:
        return self.achieved_flops / machine.peak_flops_dp

    def __repr__(self) -> str:
        return (
            f"SimReport({self.machine}: {self.time * 1e3:.3f} ms, "
            f"{self.flops / 1e9:.2f} Gflop, {self.bytes_moved / 1e9:.3f} GB)"
        )


class PerformanceModel:
    """The model walk over one SDFG (nested SDFGs get their own model).

    The model reads memlet volumes as they are: it neither validates nor
    propagates, so ``sdfg`` must already be valid and propagated —
    :func:`simulate` does that analysis once, on the outermost graph
    (both passes recurse into nested SDFGs), before it walks.
    """

    def __init__(self, sdfg, symbols: Dict[str, int]):
        self.sdfg = sdfg
        self.symbols = dict(symbols)
        for k, v in sdfg.constants.items():
            self.symbols.setdefault(k, v)
        # ``expr -> float`` under these bindings, shared by every model
        # with equal bindings through the ``model_eval`` memo table (the
        # value's type keeps ``N = 4`` and ``N = 4.0`` apart).
        binding = tuple(sorted((k, type(v), v) for k, v in self.symbols.items()))
        #: An expression that reads unbound names maps to the frozenset
        #: of those names, a fact of the binding alone, so every model
        #: that reads it from the shared table learns what it lacked.
        self._values: Dict = memo.memoized("model_eval", binding, dict)
        #: What :attr:`SimReport.unbound` reports.
        self.unbound: Set[str] = set()

    # ------------------------------------------------------------- execution
    def state_visit_counts(self, max_visits: int = 100_000) -> Dict[int, int]:
        """Walk the state machine concretely to count state executions.

        Each step is the interpreter's transition rule
        (:func:`~repro.runtime.interpreter.next_state`) on the symbol
        bindings, so symbol-governed loops count exactly.  A transition
        that reads a container (a data-dependent condition or assignment)
        ends the walk: the states after it count 0, a deliberate lower
        bound.  Each visit's values of the names the transitions assigned
        (the loop variables) are kept for :meth:`visit_costs`.
        """
        self._visits = {id(s): Counter() for s in self.sdfg.nodes()}
        env, loop = dict(self.symbols), {}
        state = self.sdfg.start_state
        while state is not None and max_visits > 0:
            self._visits[id(state)][tuple(sorted(loop.items()))] += 1
            max_visits -= 1
            try:
                state, assigned = next_state(self.sdfg, state, env)
            except KeyError:
                for e in self.sdfg.out_edges(state):
                    self.unbound.update(
                        s.name for s in e.data.free_symbols if s.name not in env
                    )
                break
            env.update(assigned)
            loop.update(assigned)
        return {k: sum(c.values()) for k, c in self._visits.items()}

    def visit_costs(self, state) -> List[Tuple[List[ScopeCost], float, int]]:
        """``(costs, transfer bytes, visits)`` over the walked visits: one
        :meth:`state_costs` for all, or, if it read loop variables, one
        per value of those among the visits (the walk binds them)."""
        visits = self._visits[id(state)]
        if not visits:
            return []
        costs, transfer = self.state_costs(state)
        # A name a transition assigned is never left in ``unbound``.
        loop = self.unbound & {name for key in visits for name, _ in key}
        if not loop:
            return [(costs, transfer, sum(visits.values()))]
        self.unbound -= loop
        groups = Counter(tuple(i for i in k if i[0] in loop) for k in visits.elements())
        out = []
        for key, n in sorted(groups.items()):
            inner = PerformanceModel(self.sdfg, {**self.symbols, **dict(key)})
            out.append((*inner.state_costs(state), n))
            self.unbound |= inner.unbound
        return out

    # --------------------------------------------------------------- analysis
    def _eval(self, expr) -> float:
        values = self._values
        try:
            value = values[expr]
        except KeyError:
            try:
                value = float(expr.evaluate(self.symbols))
            except KeyError:
                value = frozenset(
                    s.name for s in expr.free_symbols if s.name not in self.symbols
                )
            if len(values) >= memo.MAX_ENTRIES:
                values.clear()
            values[expr] = value
        if value.__class__ is float:
            return value
        self.unbound |= value
        return 1.0  # unbound (data-dependent); count once

    def state_costs(self, state) -> Tuple[List[ScopeCost], float]:
        """Per-top-level-scope costs and host<->device transfer bytes."""
        costs: List[ScopeCost] = []
        transfer = 0.0
        sd = state.scope_dict()
        order = topological_sort(state)
        runs = self._execution_counts(order, sd)
        for node in order:
            if sd.get(node) is not None:
                continue
            if isinstance(node, MapEntry):
                costs.append(self._scope_cost(state, node, sd, runs))
            elif isinstance(node, ConsumeEntry):
                pes = runs[node]
                costs.append(ScopeCost(node.consume.label, pes, flops=pes * 2))
            elif isinstance(node, Tasklet):
                bytes_moved = self._edge_bytes(state, node)
                costs.append(ScopeCost(node.name, 1, tasklet_flops(node), bytes_moved))
            elif isinstance(node, Reduce):
                in_e = state.in_edges(node)[0]
                vol = self._eval(in_e.data.volume)
                dt = self.sdfg.arrays[in_e.data.data].dtype.bytes
                costs.append(ScopeCost(node.label, vol, vol, vol * dt * 2))
            elif isinstance(node, NestedSDFG):
                inner = PerformanceModel(node.sdfg, self._inner_symbols(node))
                for st in node.sdfg.nodes():
                    cs, tr = inner.state_costs(st)
                    costs.extend(cs)
                    transfer += tr
                self.unbound |= inner.unbound
            elif isinstance(node, AccessNode):
                transfer += self._copy_transfer_bytes(state, node)
        return costs, transfer

    def _execution_counts(self, order, sd) -> Dict[EntryNode, float]:
        """The execution-count tree: the runs of each scope's body in one
        visit of its state, its count summed over the enclosing parameters'
        values (a count that names none: the parent's runs times it)."""
        runs: Dict[EntryNode, float] = {}
        chains: Dict[Optional[EntryNode], list] = {None: []}  # innermost first
        for node in order:
            if not isinstance(node, EntryNode):
                continue
            is_map, parent = isinstance(node, MapEntry), sd.get(node)
            count = node.map.num_iterations() if is_map else node.consume.num_pes
            ranges = chains[parent]
            chains[node] = [*reversed(scope_param_ranges(node).items()), *ranges]
            if not {name for name, _ in ranges} & {s.name for s in count.free_symbols}:
                runs[node] = runs.get(parent, 1.0) * self._eval(count)
                continue
            runs[node] = self._eval(sum_over_ranges(count, ranges, self.symbols))
        return runs

    def _inner_symbols(self, node: NestedSDFG) -> Dict[str, float]:
        """Bindings inside a nested SDFG: the outer ones, with each
        ``symbol_mapping`` entry evaluated in the outer bindings (an
        entry that cannot be evaluated stays unbound)."""
        inner = dict(self.symbols)
        for name, expr in node.symbol_mapping.items():
            try:
                inner[name] = expr.evaluate(self.symbols)
            except KeyError:
                self.unbound.update(
                    s.name for s in expr.free_symbols if s.name not in self.symbols
                )
                inner.pop(name, None)
        return inner

    def _edge_bytes(self, state, node) -> float:
        total = 0.0
        for e in state.in_edges(node) + state.out_edges(node):
            if e.data.is_empty() or e.data.data not in self.sdfg.arrays:
                continue
            desc = self.sdfg.arrays[e.data.data]
            total += self._eval(e.data.volume) * desc.dtype.bytes
        return total

    def _scope_cost(self, state, entry: MapEntry, sd, runs) -> ScopeCost:
        m = entry.map
        cost = ScopeCost(label=m.label, kernel=True)
        cost.iterations = runs[entry]
        # Work: each tasklet in the scope, once per run of its scope's body.
        exit_ = state.exit_node(entry)
        inside = state.scope_subgraph(entry, include_scope_nodes=False, scope_dict=sd)
        for node in inside:
            if isinstance(node, Tasklet):
                cost.flops += tasklet_flops(node) * runs[sd[node]]
        # Data: propagated boundary memlets.
        for e in state.in_edges(entry) + state.out_edges(exit_):
            if e.data.is_empty() or e.data.data not in self.sdfg.arrays:
                continue
            desc = self.sdfg.arrays[e.data.data]
            if isinstance(desc, Stream):
                continue
            cost.bytes_moved += self._eval(e.data.volume) * desc.dtype.bytes
            if e.data.dynamic:
                cost.random_access = True
        # Locality credit: a tiled scope whose per-tile footprint fits in
        # LLC re-reads from cache; approximate by discounting redundant
        # traffic down to one pass over the union footprint.
        for e in state.in_edges(entry):
            mem = e.data
            if mem.is_empty() or mem.subset is None or mem.data not in self.sdfg.arrays:
                continue
            desc = self.sdfg.arrays[e.data.data]
            if isinstance(desc, Stream):
                continue
            footprint = self._eval(e.data.subset.num_elements()) * desc.dtype.bytes
            volume = self._eval(e.data.volume) * desc.dtype.bytes
            if volume > footprint * 4:
                # Reuse exists; charge footprint once per sqrt(excess) as a
                # cache-aware middle ground between perfect and no reuse.
                cost.bytes_moved -= 0.75 * (volume - footprint)
        cost.pes = self._unrolled_pes(state, entry)
        return cost

    def _unrolled_pes(self, state, entry: MapEntry) -> int:
        if entry.map.unroll or entry.map.schedule.name == "FPGA_Device":
            try:
                return int(self._eval(entry.map.num_iterations()))
            except Exception:
                return 1
        return 1

    def _copy_transfer_bytes(self, state, node: AccessNode) -> float:
        total = 0.0
        for e in state.in_edges(node):
            if e.data.is_empty() or not isinstance(e.src, AccessNode):
                continue
            src_desc = self.sdfg.arrays[e.src.data]
            dst_desc = self.sdfg.arrays[e.dst.data]
            if isinstance(src_desc, Stream) or isinstance(dst_desc, Stream):
                continue
            cross = (
                (src_desc.storage in _GPU_STORAGE) != (dst_desc.storage in _GPU_STORAGE)
            ) or (
                (src_desc.storage == StorageType.FPGA_Global)
                != (dst_desc.storage == StorageType.FPGA_Global)
            )
            if cross:
                total += self._eval(e.data.volume) * dst_desc.dtype.bytes
        return total


def simulate(
    sdfg,
    machine: Union[str, MachineModel, FPGAModel] = "cpu",
    symbols: Optional[Dict[str, int]] = None,
    naive_fpga: bool = False,
) -> SimReport:
    """Predict the SDFG's execution time on a machine model.

    Validates and propagates ``sdfg`` (in place; raises on an invalid
    graph), then runs the model walk (:func:`simulate_analysed`).
    """
    sdfg.validate()
    sdfg.propagate()
    return simulate_analysed(sdfg, machine, symbols, naive_fpga)


def simulate_analysed(
    sdfg,
    machine: Union[str, MachineModel, FPGAModel] = "cpu",
    symbols: Optional[Dict[str, int]] = None,
    naive_fpga: bool = False,
) -> SimReport:
    """The model walk of :func:`simulate` alone, for a caller that has
    already validated and propagated ``sdfg`` (the tuner scores the
    variants its guarded optimizer just analysed this way)."""
    machine_obj = MACHINES[machine] if isinstance(machine, str) else machine
    machine_name = machine if isinstance(machine, str) else machine.name
    model = PerformanceModel(sdfg, symbols or {})
    model.state_visit_counts()
    report = SimReport(machine=machine_name)
    for state, (costs, transfer, reps) in (
        (st, group) for st in sdfg.nodes() for group in model.visit_costs(st)
    ):
        state_time = 0.0
        for c in costs:
            if isinstance(machine_obj, FPGAModel):
                if naive_fpga:
                    t = machine_obj.time_naive(c.flops)
                else:
                    t = max(
                        machine_obj.time_pipelined(c.iterations, c.pes),
                        machine_obj.time_memory(c.bytes_moved),
                    )
            else:
                t_comp = machine_obj.time_compute(c.flops)
                t_mem = machine_obj.time_memory(c.bytes_moved, c.random_access)
                t = max(t_comp, t_mem)
                if c.kernel:
                    t += machine_obj.launch_latency
                    report.kernel_launches += reps
            state_time += t
            report.flops += c.flops * reps
            report.bytes_moved += c.bytes_moved * reps
            report.breakdown.append((f"{state.name}/{c.label}", t * reps))
        if isinstance(machine_obj, MachineModel):
            t_tr = machine_obj.time_transfer(transfer)
        else:
            t_tr = machine_obj.time_memory(transfer)
        report.transfer_bytes += transfer * reps
        state_time += t_tr
        if t_tr:
            report.breakdown.append((f"{state.name}/transfer", t_tr * reps))
        report.time += state_time * reps
    report.unbound = frozenset(model.unbound)
    return report

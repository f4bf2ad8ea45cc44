"""Memlet propagation (paper §4.3, compilation step ❶).

Memlet ranges are propagated from tasklets and containers *outwards*
through scopes, computing each scope's overall data requirements as the
image of the scope function (the Map range) on the union of the internal
memlet subsets.  The result — exact per-scope data footprints — is what
enables automatic accelerator copy generation, transformation
applicability checks, and the performance model's volume estimates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    ConsumeEntry,
    ConsumeExit,
    EntryNode,
    ExitNode,
    MapEntry,
    MapExit,
    NestedSDFG,
)
from repro.sdfg.state import SDFGState
from repro.symbolic import Expr, Integer, Mul, Subset, Symbol, memo, sum_over_ranges


def propagate_memlets_sdfg(sdfg) -> None:
    """Propagate memlets in every state (and nested SDFGs first)."""
    for state in sdfg.nodes():
        for node in state.nodes():
            if isinstance(node, NestedSDFG):
                propagate_memlets_sdfg(node.sdfg)
        propagate_memlets_state(sdfg, state)


def propagate_memlets_state(sdfg, state: SDFGState) -> None:
    """Recompute memlets on edges crossing scope boundaries, innermost first."""
    sd = state.scope_dict()

    def depth(entry) -> int:
        d = 0
        while entry is not None:
            d += 1
            entry = sd.get(entry)
        return d

    entries = sorted(state.entry_nodes(), key=depth, reverse=True)
    for entry in entries:
        exit_ = state.exit_node(entry)
        params = scope_param_ranges(entry)
        # Inward-facing edges: outer edge at IN_k summarizes the union of
        # internal consumers hanging off OUT_k.
        for conn in sorted(c for c in entry.in_connectors if c.startswith("IN_")):
            internal = state.out_edges_by_connector(
                entry, "OUT_" + conn[len("IN_") :]
            )
            external = state.in_edges_by_connector(entry, conn)
            if not internal or not external:
                continue
            summary = _propagate_union(
                [e.data for e in internal], params, entry
            )
            for e in external:
                if summary is not None:
                    e.data = summary.clone()
        # Outward-facing edges at the exit node.
        for conn in sorted(c for c in exit_.out_connectors if c.startswith("OUT_")):
            internal = state.in_edges_by_connector(exit_, "IN_" + conn[len("OUT_") :])
            external = state.out_edges_by_connector(exit_, conn)
            if not internal or not external:
                continue
            summary = _propagate_union([e.data for e in internal], params, entry)
            for e in external:
                if summary is not None:
                    e.data = summary.clone()


def scope_param_ranges(entry: EntryNode) -> Dict:
    """Each parameter of a map or consume scope with the range it sweeps."""
    if isinstance(entry, MapEntry):
        return entry.map.param_ranges()
    # Consume scopes: the PE parameter sweeps [0, num_pes); accesses are
    # inherently dynamic.
    from repro.symbolic import Range

    c = entry.consume
    return {c.pe_param: Range(0, c.num_pes)}


def _propagate_union(
    memlets: List[Memlet], params: Dict, entry: EntryNode
) -> Optional[Memlet]:
    """Union of internal memlets, swept over the scope parameters.

    The result is a pure function of the memlet contents, the parameter
    ranges, and whether the scope is a consume (dynamic), so it is
    memoized on those; callers ``clone()`` the returned prototype before
    attaching it to an edge.
    """
    non_empty = [m for m in memlets if not m.is_empty()]
    if not non_empty:
        return None
    # A memlet without a stored volume counts its subset's elements, so
    # the stored ``_volume`` (None then) keys it as well as ``volume``.
    try:
        key = (
            tuple((m.data, m.subset, m._volume, m.dynamic, m.wcr) for m in non_empty),
            tuple(sorted(params.items())),
            isinstance(entry, ConsumeEntry),
        )
    except TypeError:
        return _propagate_union_uncached(non_empty, params, entry)
    return memo.memoized(
        "propagate", key, lambda: _propagate_union_uncached(non_empty, params, entry)
    )


def _propagate_union_uncached(
    non_empty: List[Memlet], params: Dict, entry: EntryNode
) -> Optional[Memlet]:
    data = non_empty[0].data
    images = []
    total_volume: Expr = Integer(0)
    dynamic = isinstance(entry, ConsumeEntry)
    wcr = None
    for m in non_empty:
        if m.data != data:
            # Differently-named data through one connector pair: leave as-is.
            return None
        if m.subset is None:
            return None
        images.append(m.subset.image(params))
        total_volume = total_volume + m.volume
        dynamic = dynamic or m.dynamic
        if m.wcr is not None:
            wcr = m.wcr
    union = images[0]
    for img in images[1:]:
        union = union.union_bb(img)
    # Total accesses: the inner volumes summed over the scope's range, so
    # the outer volume names no parameter of the scope it leaves (V006).
    # A parameter the volume does not name multiplies it by its size.
    volume = total_volume
    iterations: Expr = Integer(1)
    for name, rng in params.items():
        if Symbol(name) in volume.free_symbols:
            volume = sum_over_ranges(volume, [(name, rng)])
        else:
            iterations = Mul.make(iterations, rng.size())
    volume = Mul.make(volume, iterations)
    out = Memlet(data=data, subset=union, volume=volume, dynamic=dynamic, wcr=wcr)
    return out

"""Work conservation: a transformation that only moves data leaves the
work the analytic model counts where it was.

MapTiling, MapInterchange, MapExpansion, MapCollapse, MapToForLoop and
Vectorization change where a program's data moves, not how much
arithmetic it does (paper §4, §6.2).  For every application of each to
the 36 corpus programs at registry sizes, the model's ``flops`` equal
the naive program's, and ``bytes_moved`` is never below the footprint
of the non-transient containers the program touches.  A model that
counts a tiled nest as one iteration fails both; the allow-list of
exceptions is empty.
"""

import pytest

from repro.runtime.perfmodel import simulate_analysed
from repro.sdfg.data import Stream
from repro.sdfg.propagation import scope_param_ranges
from repro.transformations.guard import GuardedOptimizer
from repro.transformations.optimizer import enumerate_matches
from repro.workloads import polybench
from tests.sdfg.test_analysis_reuse import CORPUS, KERNELS, _make

CONSERVING = (
    "MapTiling",
    "MapInterchange",
    "MapExpansion",
    "MapCollapse",
    "MapToForLoop",
    "Vectorization",
)

#: ``(program, transformation, match)`` applications allowed to change
#: the counted work.  Empty, and it may only stay so.
ALLOWED = {}

#: The kernels' sizes (the PolyBench programs carry theirs).
KERNEL_SIZES = {
    "matmul": {"M": 32, "K": 32, "N": 32},
    "jacobi2d": {"N": 32, "T": 4},
    "histogram": {"H": 64, "W": 64, "BINS": 256},
    "query": {"N": 1024},
    "spmv": {"H": 256, "W": 256, "nnz": 2048},
    "gemm_chain": {"N": 16},
}


def _sizes(name):
    return KERNEL_SIZES[name] if name in KERNELS else dict(polybench.get(name).sizes)


def footprint_bytes(sdfg, sizes) -> float:
    """A lower bound of the union footprint of the non-transient
    containers ``sdfg`` touches: per container, its largest subset that
    a non-dynamic memlet states in the bindings ``sizes``."""
    largest = {}
    for state in sdfg.nodes():
        for e in state.edges():
            mem = e.data
            if mem.is_empty() or mem.dynamic or mem.subset is None:
                continue
            desc = sdfg.arrays.get(mem.data)
            if desc is None or desc.transient or isinstance(desc, Stream):
                continue
            try:
                n = float(mem.subset.num_elements().evaluate(sizes))
            except KeyError:  # names a scope parameter: an inner access
                continue
            largest[mem.data] = max(largest.get(mem.data, 0.0), n * desc.dtype.bytes)
    return sum(largest.values())


def _applications(root):
    for xform in CONSERVING:
        for index in range(len(enumerate_matches(root, xform))):
            child = root.copy()
            if GuardedOptimizer(child).apply(xform, match_index=index):
                yield (xform, index), child


def test_the_allow_list_is_empty():
    assert ALLOWED == {}


@pytest.mark.parametrize("name", CORPUS)
def test_data_movement_transformations_conserve_the_counted_work(name):
    root = _make(name)
    root.validate()
    root.propagate()
    sizes = _sizes(name)
    naive = simulate_analysed(root, "cpu", sizes)
    floor = footprint_bytes(root, sizes)
    assert naive.bytes_moved >= floor
    for (xform, index), child in _applications(root):
        if (name, xform, index) in ALLOWED:
            continue
        report = simulate_analysed(child, "cpu", sizes)
        where = f"{name}: {xform}[{index}]"
        assert report.flops == naive.flops, where
        assert report.bytes_moved >= floor, where
        assert not report.unbound & _scope_params(child), where


def _scope_params(sdfg):
    return {
        p
        for state in sdfg.nodes()
        for entry in state.entry_nodes()
        for p in scope_param_ranges(entry)
    }

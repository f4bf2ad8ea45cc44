"""Local buffers that keep their program's meaning.

A double-buffered descriptor stays marked in a parse and a copy, so it
is not doubled twice.
LocalStorage refuses a write edge with a WCR, and every LocalStorage
match left in the corpus agrees with the interpreter."""

import json

import numpy as np
import pytest

from repro.codegen import compile_sdfg
from repro.sdfg.nodes import MapExit
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.transformations import (
    DoubleBuffering,
    LocalStorage,
    MapExpansion,
    apply_transformations,
    enumerate_matches,
)
from repro.transformations.optimizer import apply_match
from repro.workloads import kernels, polybench
from tests.transformations.test_transformations import check_copy2, nested_copy_sdfg


def _double_buffered():
    sdfg = nested_copy_sdfg()
    assert apply_transformations(sdfg, LocalStorage) == 1
    assert apply_transformations(sdfg, DoubleBuffering) == 1
    return sdfg


def _shape(sdfg, name="local_A"):
    return [str(s) for s in sdfg.arrays[name].shape]


def test_a_parse_and_a_copy_offer_no_second_double_buffering():
    sdfg = _double_buffered()
    assert _shape(sdfg) == ["2", "1", "N"]
    for other in (sdfg_from_json(sdfg_to_json(sdfg)), sdfg.copy()):
        assert other.arrays["local_A"].double_buffered
        assert enumerate_matches(other, DoubleBuffering) == []
        assert apply_transformations(other, DoubleBuffering) == 0
        assert _shape(other) == ["2", "1", "N"]
        check_copy2(other, "double-buffered, after a snapshot")


def test_the_mark_is_written_only_when_set():
    plain = json.dumps(sdfg_to_json(nested_copy_sdfg()))
    assert "double_buffered" not in plain
    doubled = sdfg_to_json(_double_buffered())
    marked = [n for n, d in doubled["arrays"].items() if d.get("double_buffered")]
    assert marked == ["local_A"]


# ------------------------------------------------ LocalStorage and WCR
def _corpus():
    """The compile corpus: every PolyBench program at its registry size
    and the six kernels at small sizes, as ``(name, build, inputs)``."""
    for name in polybench.all_kernels():
        k = polybench.get(name)
        inputs = dict(k.data())
        inputs.update({s: k.sizes[s] for s in k.extra_symbols})
        yield name, k.make_sdfg, inputs
    yield "matmul", kernels.matmul_sdfg, kernels.matmul_data(8)
    yield "jacobi2d", kernels.jacobi2d_sdfg, {"A": kernels.jacobi2d_data(8)["A"], "T": 2}
    yield "histogram", kernels.histogram_sdfg, kernels.histogram_data(8, 8)
    yield "query", kernels.query_sdfg, kernels.query_data(64)
    yield "spmv", kernels.spmv_sdfg, kernels.spmv_data(16, 4)[0]
    yield "gemm_chain", kernels.gemm_chain_sdfg, kernels.gemm_chain_data(8)


CORPUS = {name: (build, inputs) for name, build, inputs in _corpus()}


def _run(sdfg, inputs, backend):
    args = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
    compile_sdfg(sdfg, backend=backend, cache="off", fallback=False)(**args)
    return args


def _assert_local_storage_matches_agree(sdfg, build, inputs, note):
    """Each LocalStorage match of ``sdfg`` (a propagated graph of the
    program ``build`` makes), applied alone and run on python, equals
    the interpreter on the untransformed program."""
    count = len(enumerate_matches(sdfg.copy(), LocalStorage))
    want = _run(build(), inputs, "interpreter") if count else {}
    for index in range(count):
        graph = sdfg.copy()
        assert apply_match(graph, LocalStorage, match_index=index)
        got = _run(graph, inputs, "python")
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_allclose(
                    got[name], value, rtol=1e-9, atol=1e-9,
                    err_msg=f"{note}, LocalStorage[{index}], {name}",
                )


def _atax_expanded():
    sdfg = polybench.get("atax").make_sdfg()
    assert apply_match(sdfg, MapExpansion, match_index=0)
    sdfg.propagate()
    return sdfg


def test_atax_after_map_expansion_offers_no_local_storage_on_a_wcr_edge():
    sdfg = _atax_expanded()
    wcr_edges = [
        e for st in sdfg.nodes() for e in st.edges()
        if isinstance(e.src, MapExit) and isinstance(e.dst, MapExit)
        and e.data.wcr is not None
    ]
    assert wcr_edges  # the pattern LocalStorage would match is there
    offered = [
        e for m in enumerate_matches(sdfg, LocalStorage)
        for e in LocalStorage._cacheable_edges(m.state, m.candidate, sdfg)
    ]
    assert all(e.data.wcr is None for e in offered)
    assert not set(map(id, offered)) & set(map(id, wcr_edges))


def test_atax_after_map_expansion_agrees_with_the_interpreter():
    """``MapExpansion[0] > LocalStorage[1]`` used to run with a max
    error of 13.8: the buffer accumulated across outer iterations and
    its copy-back dropped the WCR."""
    build, inputs = CORPUS["atax"]
    _assert_local_storage_matches_agree(
        _atax_expanded(), build, inputs, "atax after MapExpansion[0]"
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_local_storage_match_in_the_corpus_agrees_with_the_interpreter(name):
    build, inputs = CORPUS[name]
    sdfg = build()
    sdfg.propagate()
    _assert_local_storage_matches_agree(sdfg, build, inputs, name)

"""The serializer emits every dictionary with sorted keys, so the
canonical dump needs no ``sort_keys``.

``content_hash`` is the address of the tuning cache, the program cache
and serve routing, and those addresses cross processes: the dump must
give the bytes a key-sorting dump gives, whatever order sets and dicts
iterate in.  The graphs cover the 36 corpus programs, the Fig. 14
matmul after its transformation chain, and hand-built graphs with every
kind the serializer writes.  ``corpus_digest`` is also run by CI under
two hash seeds.
"""

import hashlib
import json

import pytest

from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.sdfg import InterstateEdge
from repro.sdfg.serialize import (
    canonical_form,
    canonical_sdfg_json,
    content_hash,
    sdfg_to_json,
)
from repro.workloads import kernels
from tests.sdfg.test_analysis_reuse import CORPUS, _make, _nested
from tests.sdfg.test_state_and_sdfg import twin_maps_sdfg

#: sha256 over ``corpus_digest``'s lines; it moves only if some corpus
#: program's content address moves, which would orphan every stored
#: tuning result, compiled program and serve program key.  It moved
#: when propagation started summing volumes over a scope's range
#: (correlation, covariance, syrk, syr2k) and the hand-built query and
#: gemm chain started ending propagated.
PINNED_DIGEST = "fa8a5716ed0db7865969b7230d3df08aeea62fa03d7471600dfc99fb48d74933"


def _consume_sdfg():
    """A consume scope draining a transient ``Stream`` into ``out``."""
    sdfg = SDFG("drain")
    sdfg.add_array("out", (1,), dtypes.float64)
    sdfg.add_stream("S", dtypes.float64, buffer_size=4, transient=True)
    st = sdfg.add_state()
    s_node = st.add_access("S")
    ce, cx = st.add_consume("drain", ("p", 2), condition="len(S) == 0")
    t = st.add_tasklet("acc", ["val"], ["o"], "o = val")
    st.add_edge(s_node, ce, Memlet(data="S", subset="0", dynamic=True), None, "IN_stream")
    st.add_edge(ce, t, Memlet(data="S", subset="0", dynamic=True), "OUT_stream", "val")
    st.add_memlet_path(
        t, cx, st.add_write("out"),
        memlet=Memlet(data="out", subset="0", wcr="sum", dynamic=True),
        src_conn="o",
    )
    return sdfg


def _reduce_sdfg():
    """A ``Reduce`` over axis 1 into a double-buffered transient."""
    sdfg = SDFG("rowsum")
    sdfg.add_array("X", ("N", "M"), dtypes.float64)
    sdfg.add_array("Y", ("N",), dtypes.float64)
    _, buf = sdfg.add_array("T", ("N",), dtypes.float64, transient=True)
    buf.double_buffered = True
    st = sdfg.add_state()
    red = st.add_reduce("lambda a, b: a + b", axes=(1,), identity=0.0)
    st.add_edge(st.add_read("X"), red, Memlet.simple("X", "0:N, 0:M"), None, None)
    t = st.add_access("T")
    st.add_edge(red, t, Memlet.simple("T", "0:N"), None, None)
    st.add_edge(t, st.add_write("Y"), Memlet.simple("Y", "0:N"), None, None)
    return sdfg


def _nested_mapping_sdfg():
    """A nested SDFG whose ``symbol_mapping`` has keys out of order."""
    sdfg = _nested()
    (node,) = [n for n in sdfg.nodes()[0].nodes() if hasattr(n, "symbol_mapping")]
    node.sdfg.add_symbol("Z")
    node.symbol_mapping = {"Z": node.symbol_mapping["M"] + 1, **node.symbol_mapping}
    return sdfg


def _interstate_sdfg():
    """Arrays, symbols and constants declared out of order, and an
    interstate edge whose assignments are out of order."""
    sdfg = SDFG("loop", constants={"W": 3, "B": 1.5})
    sdfg.add_array("Z", ("N",), dtypes.float64)
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_scalar("s", dtypes.int32, transient=True)
    sdfg.add_symbol("t")
    sdfg.add_symbol("k")
    init = sdfg.add_state("init")
    body = sdfg.add_state("body")
    body.add_mapped_tasklet(
        "copy", {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="z = a + W",
        outputs={"z": Memlet.simple("Z", "i")},
    )
    sdfg.add_edge(init, body, InterstateEdge(None, {"t": "0", "k": "N - 1"}))
    sdfg.add_edge(body, body, InterstateEdge("t < 4", {"t": "t + 1", "k": "k - 1"}))
    return sdfg


HAND_BUILT = {
    "consume_stream": _consume_sdfg,
    "reduce_double_buffered": _reduce_sdfg,
    "nested_symbol_mapping": _nested_mapping_sdfg,
    "twin_scopes": twin_maps_sdfg,
    "interstate_constants": _interstate_sdfg,
}


#: The 36 corpus programs (30 PolyBench kernels and the six §6.1
#: kernels) and the Fig. 14 matmul after its transformation chain.
CORPUS_GRAPHS = CORPUS + ["matmul-fig14"]


def _graph(name):
    """The named graph, built and propagated."""
    if name in HAND_BUILT:
        graph = HAND_BUILT[name]()
    elif name == "matmul-fig14":
        graph = kernels.optimize_matmul(kernels.matmul_sdfg())
    else:
        graph = _make(name)
    graph.propagate()
    return graph


def corpus_digest() -> str:
    """sha256 over one ``name content_hash`` line per corpus graph."""
    lines = "".join(f"{name} {content_hash(_graph(name))}\n" for name in CORPUS_GRAPHS)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _sorting_dump(graph) -> str:
    """The canonical dump as a key-sorting encoder writes it."""
    return json.dumps(
        canonical_form(sdfg_to_json(graph)),
        sort_keys=True, separators=(",", ":"), default=str,
    )


def _unsorted_dicts(obj, path="$"):
    """Paths of the dictionaries in ``obj`` whose keys are not sorted."""
    if isinstance(obj, dict):
        keys = list(obj)
        if keys != sorted(keys):
            yield f"{path}: {keys}"
        for k, v in obj.items():
            yield from _unsorted_dicts(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _unsorted_dicts(v, f"{path}[{i}]")


ALL = CORPUS_GRAPHS + sorted(HAND_BUILT)


@pytest.mark.parametrize("name", ALL)
def test_canonical_dump_equals_a_key_sorting_dump(name):
    graph = _graph(name)
    assert canonical_sdfg_json(graph) == _sorting_dump(graph)


@pytest.mark.parametrize("name", ALL)
def test_every_emitted_dictionary_has_sorted_keys(name):
    assert list(_unsorted_dicts(_graph(name).to_json())) == []


def test_hand_built_graphs_cover_every_serialized_kind():
    seen_nodes, seen_data, keys = set(), set(), set()

    def walk(obj):
        seen_data.update(d["type"] for d in obj["arrays"].values())
        keys.update(k for d in obj["arrays"].values() for k in d)
        if obj["constants"]:
            keys.add("constants")
        if any(t["assignments"] for t in obj["transitions"]):
            keys.add("assignments")
        for state in obj["states"]:
            for n in state["nodes"]:
                seen_nodes.add(n["type"])
                keys.update(n)
                if n["type"] == "NestedSDFG":
                    if len(n["symbol_mapping"]) > 1:
                        keys.add("symbol_mapping")
                    walk(n["sdfg"])

    for make in HAND_BUILT.values():
        walk(make().to_json())
    assert seen_nodes == {
        "AccessNode", "Tasklet", "MapEntry", "MapExit", "ConsumeEntry",
        "ConsumeExit", "Reduce", "NestedSDFG",
    }
    assert seen_data == {"Array", "Scalar", "Stream"}
    assert {"double_buffered", "buffer_size", "scope_entry", "constants",
            "assignments", "symbol_mapping"} <= keys


def test_corpus_content_addresses_are_pinned():
    assert corpus_digest() == PINNED_DIGEST

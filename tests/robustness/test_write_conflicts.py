"""Tests for the static write-conflict detector (paper §3.2: writes
that may conflict require a write-conflict-resolution memlet)."""

import re

import pytest

from repro.codegen.chunking import Unchunkable, chunk_plan
from repro.codegen.compiler import compile_sdfg
from repro.codegen.python_gen import PythonGenerator
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.nodes import MapEntry
from repro.sdfg.validation import detect_write_conflicts, validate_sdfg
from repro.diagnostics import Severity


def racy_sdfg(wcr=None, dynamic=False):
    """A 2D map writing ``out[i]``: iterations over j overlap."""
    sdfg = SDFG("racy" if wcr is None else "safe")
    sdfg.add_array("A", ("N", "N"), dtypes.float64)
    sdfg.add_array("out", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "acc",
        {"i": "0:N", "j": "0:N"},
        inputs={"a": Memlet.simple("A", "i, j")},
        code="o = a",
        outputs={"o": Memlet(data="out", subset="i", wcr=wcr, dynamic=dynamic)},
    )
    return sdfg


def test_racy_map_is_flagged():
    warns = detect_write_conflicts(racy_sdfg())
    assert len(warns) == 1
    w = warns[0]
    assert w.code == "W501"
    assert w.severity == Severity.WARNING
    assert w.data == "out"
    assert "'j'" in w.message and "WCR" in w.message


def test_wcr_silences_the_warning():
    assert detect_write_conflicts(racy_sdfg(wcr="sum")) == []


def test_dynamic_memlet_is_programmer_contract():
    assert detect_write_conflicts(racy_sdfg(dynamic=True)) == []


def test_warning_included_in_collect_all_not_raised():
    sdfg = racy_sdfg()
    # Fail-fast validation passes (warnings never raise)...
    sdfg.validate()
    # ...but collect_all surfaces the warning.
    diags = validate_sdfg(sdfg, collect_all=True)
    assert [d.code for d in diags] == ["W501"]


def test_injective_writes_pass_clean():
    sdfg = SDFG("inj")
    sdfg.add_array("A", ("N", "N"), dtypes.float64)
    sdfg.add_array("B", ("N", "N"), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "c",
        {"i": "0:N", "j": "0:N"},
        inputs={"a": Memlet.simple("A", "i, j")},
        code="b = a",
        outputs={"b": Memlet.simple("B", "i, j")},
    )
    assert detect_write_conflicts(sdfg) == []


def test_tiled_map_not_a_false_positive():
    """After MapTiling the inner param's range depends on the tile
    param: distinct tiles stay disjoint and must not be flagged."""
    from repro.transformations import MapTiling, apply_transformations

    sdfg = SDFG("tile")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "c",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a",
        outputs={"b": Memlet.simple("B", "i")},
    )
    assert apply_transformations(sdfg, MapTiling, options={"tile_sizes": (4,)}) == 1
    assert detect_write_conflicts(sdfg) == []


@pytest.mark.parametrize("kernel", ["matmul", "jacobi2d", "histogram", "query", "spmv"])
def test_paper_kernels_pass_clean(kernel):
    """The paper's WCR-annotated reductions (spmv, query, histogram) and
    injective stencils pass without warnings."""
    from repro.workloads import kernels

    sdfg = getattr(kernels, f"{kernel}_sdfg")()
    assert detect_write_conflicts(sdfg) == []


def test_all_polybench_builders_pass_clean():
    import repro.workloads.polybench as pb

    flagged = {}
    for name in pb.all_kernels():
        warns = detect_write_conflicts(pb.get(name).make_sdfg())
        if warns:
            flagged[name] = [str(w) for w in warns]
    assert flagged == {}


# =====================================================================
# Chunk-axis disjointness: the proof chunks and strips rest on
# =====================================================================
#
# ``chunk_plan`` extends the W501 question to chunks: if a map's domain
# is split into contiguous chunks along one parameter, run one after
# another or on the parallel tier's workers, can two chunks ever touch
# the same element?  It answers from the points the map's NumPy lowering
# analysed; these cases call it directly and pin the parameter it
# accepts, or why it refuses.


def _plans(sdfg):
    """Map label -> the parameter ``chunk_plan`` accepts, or None and
    why: the refusal, or the tier that recorded no access facts."""
    sdfg.validate()
    sdfg.propagate()
    gen = PythonGenerator(sdfg)
    gen.generate()
    plans = {}
    for state in sdfg.nodes():
        for entry in state.nodes():
            if not isinstance(entry, MapEntry):
                continue
            if id(entry) not in gen._accesses:
                tier = gen._lowering[id(entry)]["tier"]
                plans[entry.map.label] = (None, f"lowers to the {tier!r} tier")
                continue
            try:
                param, _ = chunk_plan(sdfg, entry.map, *gen._accesses[id(entry)])
            except Unchunkable as refusal:
                plans[entry.map.label] = (None, str(refusal))
            else:
                plans[entry.map.label] = (param, None)
    return plans


def _chunking(sdfg):
    """The plan of the SDFG's one map, checked against what the parallel
    tier does with it at ``parallel="thread:2"``: the map is chunked over
    that parameter, or kept serial by a W703 that gives the same reason."""
    sdfg.validate()
    c = compile_sdfg(sdfg, backend="python", parallel="thread:2", cache="off",
                     fallback=False)
    c.close()
    chunked = re.findall(r"# parallel map \S+: chunked over (\w+)", c.source)
    w703 = [w.message for w in c.codegen_warnings if w.code == "W703"]
    assert len(chunked) + len(w703) == 1, (chunked, w703)
    (plan,) = _plans(sdfg).values()
    param, why = plan
    if param is not None:
        assert chunked == [param], (chunked, plan)
    else:
        kept = "lowers to" if why.startswith("lowers to") else "not provably parallelizable"
        assert kept in w703[0] and why in w703[0], (w703, plan)
    return plan


def _slice_map_sdfg(out_subset, code="o = a", in_subset="i"):
    """Map over ``i`` in ``0:N`` writing ``out[<out_subset>]``."""
    sdfg = SDFG("slices")
    sdfg.add_array("A", ("4*N",), dtypes.float64)
    sdfg.add_array("out", ("4*N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "w",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", in_subset)},
        code=code,
        outputs={"o": Memlet.simple("out", out_subset)},
    )
    return sdfg


@pytest.mark.parametrize(
    "subset,chunked",
    [
        # Injective point writes: trivially chunk-disjoint.
        ("i", True),
        # Strided points with a gap: disjoint (stride 2 > span 1).
        ("2*i", True),
        ("3*i + 1", True),
        # Slice writes, disjoint or overlapping, are not points: the loop
        # tier takes them and records no access facts.
        ("2*i:2*i+2", False),
        ("4*i:4*i+4", False),
        ("i:i+2", False),
        ("2*i:2*i+3", False),
        # Negative/reversed coefficient is refused conservatively.
        ("N - i", False),
    ],
)
def test_chunk_axis_disjointness_cases(subset, chunked):
    param, why = _chunking(_slice_map_sdfg(subset))
    if chunked:
        assert param == "i"
    elif ":" in subset:
        assert "lowers to the 'loop' tier" in why
    else:
        assert param is None
        assert "strides 'i' by -1" in why


def test_symbolic_stride_is_refused():
    """A write at ``K*i`` with symbolic K cannot be proven chunk-disjoint
    (K = 0 aliases every iteration onto one element): no NumPy tier
    takes it, so no chunk plan is made."""
    sdfg = SDFG("symstride")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("out", ("K*N + N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "w",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="o = a",
        outputs={"o": Memlet.simple("out", "K*i")},
    )
    param, why = _chunking(sdfg)
    assert param is None
    assert "lowers to the 'loop' tier" in why


def test_indirect_indexing_stays_ineligible():
    """``out[idx[i]] = v`` (dynamic non-WCR write that is not a
    recognized scatter-reduction) must never be chunked: no tier sees
    through the indirection but the loop, which records no facts."""
    sdfg = SDFG("indirect")
    sdfg.add_array("idx", ("N",), dtypes.int64)
    sdfg.add_array("out", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "scatter",
        {"i": "0:N"},
        inputs={"j": Memlet.simple("idx", "i")},
        code="o = float(j)",
        outputs={"o": Memlet(data="out", subset="0:N", dynamic=True)},
    )
    param, why = _chunking(sdfg)
    assert param is None
    assert "lowers to the 'loop' tier" in why


def test_wcr_map_is_eligible_via_private_merge():
    """A Sum-WCR write that would race in place is still parallelizable
    through per-worker privatization + operator merge."""
    sdfg = racy_sdfg(wcr="sum")
    assert _chunking(sdfg) == ("i", None)
    c = compile_sdfg(sdfg, backend="python", parallel="thread:2", cache="off")
    c.close()
    assert "out = _wcr_identity_like(out, 'Sum')" in c.source


def test_racy_map_parallelizes_along_the_disjoint_param_only():
    """The W501-flagged map (``out[i]`` written for every ``j``) has no
    NumPy tier, so no chunk plan.  A map whose chunks would race along
    its first parameter ``j`` (every ``j`` reads the last column, which
    the last ``j`` chunk writes) is chunked along ``i``, where the
    overlap stays inside one chunk — never along ``j``."""
    param, why = _chunking(racy_sdfg())
    assert param is None and "lowers to the 'loop' tier" in why

    sdfg = SDFG("colread")
    sdfg.add_array("X", ("N", "N"), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "acc",
        {"j": "0:N", "i": "0:N"},
        inputs={"a": Memlet.simple("X", "i, N - 1")},
        code="o = a + 1.0",
        outputs={"o": Memlet.simple("X", "i, j")},
    )
    assert _chunking(sdfg) == ("i", None)


def test_two_stores_into_one_container_stay_serial():
    """``out[i]`` and ``out[i + 1]`` are each chunk-disjoint, but the
    last point of one chunk's second store is the first point of the
    next chunk's first store."""
    sdfg = SDFG("two_stores")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("out", ("N + 1",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "w",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="o1 = a\no2 = a + 1.0",
        outputs={"o1": Memlet.simple("out", "i"), "o2": Memlet.simple("out", "i + 1")},
    )
    param, why = _chunking(sdfg)
    assert param is None
    assert "map writes 'out'[1 + i], which other chunks may write through [i]" in why


def test_interior_stream_is_refused():
    from repro.workloads import kernels

    param, why = _chunking(kernels.query_sdfg())
    assert param is None
    assert "stream push to 'S'" in why


@pytest.mark.parametrize("name, data", [("cholesky", "A"), ("nussinov", "table")])
def test_read_of_an_accumulated_container_is_refused(name, data):
    """A chunk would read what earlier chunks accumulated."""
    from repro.workloads.polybench import get

    refused = [why for param, why in _plans(get(name).make_sdfg()).values()
               if why == f"map reads {data!r}, which it accumulates into "
               "through a per-chunk private copy"]
    assert refused


def test_mixed_wcr_and_plain_writes_are_refused():
    sdfg = SDFG("mixed")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("out", ("N",), dtypes.float64)
    sdfg.add_state().add_mapped_tasklet(
        "w",
        {"i": "1:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="o1 = a\no2 = a",
        outputs={"o1": Memlet.simple("out", "i"),
                 "o2": Memlet(data="out", subset="0", wcr="lambda a, b: a + b")},
    )
    assert _chunking(sdfg) == (None, "container(s) ['out'] mix WCR and plain writes")

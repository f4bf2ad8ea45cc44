"""The tier census: which whole-domain lowering every map scope of the
corpus takes, pinned, so a change that knocks a kernel off its tier fails
here rather than in a benchmark.

``compile_report["lowering"]`` carries one ``{map, state, tier, reason}``
row per map scope.  Tiers are pinned as per-program counts (map labels
carry source line numbers, counts do not); every ``loop`` row must be on
the allow-list below, with its reason.
"""

from collections import Counter

import pytest

from repro.codegen import compile_sdfg
from repro.workloads import kernels, polybench

TIERS = {"contraction", "slice", "gather", "scatter", "ragged", "predicated", "loop"}

#: program -> {tier: number of map scopes}.  ``contraction`` counts every
#: two-operand product summed over one parameter, whether or not the
#: ``Vectorization`` transformation marked it.
EXPECTED = {
    "2mm": {"slice": 2, "contraction": 2},
    "3mm": {"slice": 1, "contraction": 3},
    "adi": {"slice": 8, "loop": 2},
    "atax": {"slice": 1, "contraction": 2},
    "bicg": {"slice": 2, "contraction": 2},
    "cholesky": {"slice": 1, "contraction": 1},
    "correlation": {"slice": 10, "contraction": 1, "loop": 2},
    "covariance": {"slice": 6, "loop": 2},
    "deriche": {"slice": 3},
    "doitgen": {"slice": 1, "contraction": 1},
    # The two reversed operands r[k-1-i], y[k-1-i]: negative coefficient.
    "durbin": {"slice": 1, "gather": 2},
    "fdtd-2d": {"slice": 4},
    "floyd-warshall": {"slice": 1},
    "gemm": {"slice": 1, "contraction": 1},
    "gemver": {"slice": 2, "contraction": 2},
    "gesummv": {"slice": 2, "contraction": 2},
    "gramschmidt": {"slice": 3, "contraction": 1},
    "heat-3d": {"slice": 2},
    "jacobi-1d": {"slice": 2},
    "jacobi-2d": {"slice": 2},
    "lu": {"contraction": 2},
    "ludcmp": {"contraction": 4},
    "mvt": {"contraction": 2},
    "nussinov": {"slice": 1},
    "seidel-2d": {},
    "symm": {"slice": 3, "contraction": 1},
    "syr2k": {"slice": 2, "loop": 2},
    "syrk": {"slice": 1, "contraction": 1, "loop": 2},
    "trisolv": {"contraction": 1},
    "trmm": {"slice": 1, "contraction": 1},
    # The six Fig. 14 kernels.
    "matmul": {"slice": 1},
    "jacobi2d": {"slice": 1},
    "histogram": {"scatter": 1},
    "query": {"predicated": 1},
    "spmv": {"ragged": 2},  # the outer map and the inner map it absorbs
    "gemm_chain": {"slice": 8, "contraction": 8},
}

#: Every map allowed on the loop tier: program -> what its reason says.
#: adi sweeps a tridiagonal recurrence inside the map (a body of several
#: nodes); the others are triangular nests (``for j in 0:i+1``) whose
#: inner bound is a parameter, not data — the inner map still vectorizes.
LOOP_ALLOWED = {
    "adi": "scope body is 3 nodes",
    "correlation": "takes no range bound from a connector",
    "covariance": "takes no range bound from a connector",
    "syr2k": "takes no range bound from a connector",
    "syrk": "takes no range bound from a connector",
}


def _make(name):
    if name in polybench.all_kernels():
        return polybench.get(name).make_sdfg()
    return getattr(kernels, f"{name}_sdfg")()


def test_census_covers_the_corpus():
    assert set(polybench.all_kernels()) | {
        "matmul", "jacobi2d", "histogram", "query", "spmv", "gemm_chain"
    } == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tier_of_every_map(name):
    compiled = compile_sdfg(_make(name), backend="python")
    assert compiled.backend == "python", compiled.degradation
    rows = compiled.compile_report["lowering"]
    assert rows is compiled.lowering
    for row in rows:
        assert set(row) == {"map", "state", "tier", "reason"}
        assert row["tier"] in TIERS
        if row["tier"] == "loop":
            assert name in LOOP_ALLOWED, row
            assert LOOP_ALLOWED[name] in row["reason"], row
        else:
            assert row["reason"] is None, row
    assert dict(Counter(r["tier"] for r in rows)) == EXPECTED[name]


def test_marked_matmul_is_a_contraction():
    sdfg = kernels.optimize_matmul(kernels.matmul_sdfg())
    rows = compile_sdfg(sdfg, backend="python").compile_report["lowering"]
    assert {r["map"]: r["tier"] for r in rows} == {
        "_reduce_init_": "slice",
        "_MatMult_": "contraction",
    }


def test_census_survives_the_program_cache(tmp_path):
    from repro.codegen.progcache import ProgramCache

    cache = ProgramCache(str(tmp_path))
    cold = compile_sdfg(kernels.spmv_sdfg(), backend="python", cache=cache)
    warm = compile_sdfg(kernels.spmv_sdfg(), backend="python", cache=cache)
    fresh = compile_sdfg(
        kernels.spmv_sdfg(), backend="python", cache=ProgramCache(str(tmp_path))
    )
    assert warm.cache_hit and fresh.cache_hit
    assert cold.lowering == warm.lowering == fresh.lowering
    assert fresh.compile_report["lowering"][0]["tier"] == "ragged"


def test_census_round_trips_with_the_report():
    from repro.instrumentation.report import InstrumentationReport

    report = compile_sdfg(kernels.query_sdfg(), backend="python").compile_report
    again = InstrumentationReport.from_json(report.to_json())
    assert again["lowering"] == report["lowering"] != []
    with pytest.raises(KeyError):
        report["events"]


def test_other_backends_report_no_maps():
    compiled = compile_sdfg(kernels.query_sdfg(), backend="interpreter")
    assert compiled.compile_report["lowering"] == []

"""What validation checks at scope boundaries (V006, V210), and the
guard's verifying inputs for every corpus program.

A memlet outside a scope names none of its parameters once propagated
(V006), and a map range read from data names connectors of its own
entry (V210).  A rewrite that breaks either is rolled back.
"""

import numpy as np
import pytest

from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.data import Scalar
from repro.sdfg.nodes import MapEntry
from repro.sdfg.validation import InvalidSDFGError, validate_sdfg
from repro.transformations import MapInterchange
from repro.transformations.guard import GuardedOptimizer, synthesize_inputs
from repro.transformations.optimizer import apply_match, enumerate_matches
from repro.tuning import default_pool
from repro.workloads import kernels
from tests.sdfg.test_analysis_reuse import CORPUS, _make


def _scaled_copy():
    sdfg = SDFG("scale")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "s", {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = 2 * a",
        outputs={"b": Memlet.simple("B", "i")},
    )
    return sdfg, st


def test_v006_reports_an_outer_volume_naming_the_scope_parameter():
    sdfg, st = _scaled_copy()
    (entry,) = [n for n in st.nodes() if isinstance(n, MapEntry)]
    (outer,) = st.in_edges(entry)
    outer.data = Memlet(data="A", subset="0:N", volume="i + 1")
    codes = [d.code for d in validate_sdfg(sdfg, collect_all=True)]
    assert codes == ["V006"]
    sdfg.propagate()  # sums the inner volume over i: N
    assert str(outer.data.volume) == "N"
    sdfg.validate()


def test_a_hand_built_path_repeating_the_inner_subset_is_valid():
    """Before propagation every hop of a memlet path carries the inner
    subset, naming ``i`` outside its scope; its volume is the subset's
    size, which names no parameter, so V006 does not fire."""
    sdfg, _ = _scaled_copy()
    sdfg.validate()


def _spmv():
    sdfg = kernels.spmv_sdfg()
    sdfg.validate()
    sdfg.propagate()
    return sdfg


def test_v210_reports_a_range_moved_off_its_connectors():
    sdfg = _spmv()
    apply_match(sdfg, enumerate_matches(sdfg, MapInterchange)[0])
    found = [d for d in validate_sdfg(sdfg, collect_all=True) if d.code == "V210"]
    assert found and "__rng0" in found[0].message
    with pytest.raises(InvalidSDFGError):
        sdfg.validate()


def test_spmv_range_moves_roll_back_and_its_other_matches_apply():
    root = _spmv()
    outcomes = {}
    for name in default_pool():
        for index in range(len(enumerate_matches(root, name))):
            opt = GuardedOptimizer(root.copy())
            opt.apply(name, match_index=index)
            attempt = opt.report.attempts[-1]
            outcomes[f"{name}[{index}]"] = (attempt.status, attempt.code)
    rolled = {k: v for k, v in outcomes.items() if v[0] != "applied"}
    assert rolled == {
        "MapInterchange[0]": ("rolled_back", "V210"),
        "MapTiling[1]": ("rolled_back", "V210"),
    }
    assert len(outcomes) > len(rolled)


def test_tiling_a_tiled_map_again_takes_a_fresh_tile_parameter():
    """Tiling the inner map of a tiled nest a second time would name the
    new tile parameter ``__tile_i`` like the enclosing one, whose value
    its range reads."""
    sdfg, st = _scaled_copy()
    for _ in range(2):
        assert GuardedOptimizer(sdfg).apply("MapTiling", match_index=0)
    ranges = {
        n.map.params[0]: str(n.map.range) for n in st.nodes() if isinstance(n, MapEntry)
    }
    assert ranges == {
        "__tile_i": "0:N:32",
        "__tile_i_": "__tile_i:min(N, 32 + __tile_i):32",
        "i": "__tile_i_:min(N, 32 + __tile_i, 32 + __tile_i_)",
    }


@pytest.mark.parametrize("name", CORPUS)
def test_verifying_inputs_are_built_for_every_corpus_program(name):
    sdfg = _make(name)
    inputs = synthesize_inputs(sdfg)
    for arg, desc in sdfg.arglist().items():
        if isinstance(desc, Scalar):
            assert np.dtype(type(inputs[arg])) == desc.dtype.as_numpy()


def test_a_verified_apply_on_query_compares_its_outputs():
    opt = GuardedOptimizer(kernels.query_sdfg(), verify=True)
    assert opt.apply("MapTiling")
    attempt = opt.report.attempts[-1]
    assert attempt.verified == "ok" and attempt.max_abs_error == 0.0

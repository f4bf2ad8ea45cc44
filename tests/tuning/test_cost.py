"""Cost providers: measured and analytic scoring behind one interface."""

import pytest

from repro.runtime.perfmodel import simulate_analysed
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.serialize import content_hash
from repro.transformations import apply_match
from repro.tuning import AnalyticCost, CostProvider, MeasuredCost, resolve_provider
from repro.workloads import kernels


class TestAnalyticCost:
    def test_deterministic_and_positive(self):
        sdfg = kernels.matmul_sdfg()
        provider = AnalyticCost(machine="cpu", symbols={"M": 64, "N": 64, "K": 64})
        a, b = provider.score(sdfg), provider.score(sdfg)
        assert a == b > 0

    def test_scores_unrunnable_machines(self):
        """The analytic provider tunes for targets we cannot execute."""
        sdfg = kernels.matmul_sdfg()
        for machine in ("cpu", "gpu", "fpga"):
            assert AnalyticCost(machine=machine).score(sdfg) > 0

    def test_ranks_fused_below_naive(self):
        naive = kernels.matmul_sdfg()
        fused = kernels.matmul_sdfg()
        from repro.transformations import apply_match

        assert apply_match(fused, "MapReduceFusion")
        provider = AnalyticCost(machine="cpu")
        assert provider.score(fused) < provider.score(naive)

    def test_key_reflects_configuration(self):
        assert AnalyticCost("cpu").key() != AnalyticCost("gpu").key()
        assert (
            AnalyticCost("cpu", symbols={"N": 8}).key()
            != AnalyticCost("cpu", symbols={"N": 9}).key()
        )


def _implicit_symbol_sdfg():
    """``B[i] = A[i] * 2`` over ``0:K``, where ``K`` is free in the map
    range but not declared (arrays are sized by ``N``)."""
    sdfg = SDFG("implicit_k")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    state = sdfg.add_state("s")
    state.add_mapped_tasklet(
        "scale", {"i": "0:K"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2",
        outputs={"b": Memlet.simple("B", "i")},
    )
    assert "K" not in sdfg.symbols and "K" in sdfg.free_symbols()
    return sdfg


def _loop_sdfg():
    """The implicit-symbol graph with its map turned into a loop."""
    sdfg = _implicit_symbol_sdfg()
    assert apply_match(sdfg, "MapToForLoop")
    return sdfg


def _tiled_sdfg():
    """matmul tiled: inner ranges read the tile parameters, which no
    default binds."""
    sdfg = kernels.matmul_sdfg()
    assert apply_match(sdfg, "MapTiling")
    return sdfg


def _eager_time(provider, sdfg):
    """The model's time with every unbound declared or free size symbol
    bound to the default up front."""
    symbols = dict(provider.symbols)
    for s in sorted(set(sdfg.free_symbols()) | set(sdfg.symbols)):
        if s not in symbols and s not in sdfg.constants:
            symbols[s] = provider.symbol_default
    return float(simulate_analysed(sdfg, provider.machine, symbols).time)


class TestSymbolDefaults:
    """The model binds the graph's free size symbols only when its walk
    read a name the declared ones leave unbound; scores are those of
    binding them all up front, bit for bit."""

    @pytest.mark.parametrize(
        "make", [_implicit_symbol_sdfg, _loop_sdfg, _tiled_sdfg, kernels.matmul_sdfg]
    )
    @pytest.mark.parametrize("machine", ["cpu", "gpu", "fpga"])
    @pytest.mark.parametrize("symbols", [{}, {"N": 96}])
    def test_lazy_default_equals_eager_binding(self, make, machine, symbols):
        sdfg = make()
        sdfg.validate()
        sdfg.propagate()
        provider = AnalyticCost(machine=machine, symbols=symbols)
        assert provider.score_analysed(sdfg).hex() == _eager_time(provider, sdfg).hex()

    def test_implicit_symbol_takes_the_default(self):
        sdfg = _implicit_symbol_sdfg()
        sdfg.validate()
        sdfg.propagate()
        report = simulate_analysed(sdfg, "cpu", {"N": 64})
        assert report.unbound == {"K"}
        assert AnalyticCost(symbols={"N": 64, "K": 1024}).score_analysed(sdfg) == (
            AnalyticCost(symbols={"N": 64}).score_analysed(sdfg)
        )
        assert AnalyticCost(symbols={"N": 64, "K": 8}).score_analysed(sdfg) < (
            AnalyticCost(symbols={"N": 64}).score_analysed(sdfg)
        )

    def test_scope_parameters_read_unbound_take_no_symbol_walk(self, monkeypatch):
        sdfg = _tiled_sdfg()
        sdfg.validate()
        sdfg.propagate()
        walks = []
        free_symbols = SDFG.free_symbols
        monkeypatch.setattr(
            SDFG, "free_symbols", lambda g: walks.append(g.name) or free_symbols(g)
        )
        assert AnalyticCost(symbols={}).score_analysed(sdfg) > 0
        assert simulate_analysed(sdfg, "cpu", {}).unbound == {"K", "M", "N"}
        assert walks == []


class TestMeasuredCost:
    def test_positive_and_non_mutating(self):
        sdfg = kernels.matmul_sdfg()
        before = content_hash(sdfg)
        score = MeasuredCost(symbol_default=8, repeats=2).score(sdfg)
        assert score > 0
        assert content_hash(sdfg) == before
        assert sdfg.instrument.name == "NONE"  # instrumented only the copy

    def test_explicit_inputs_change_key(self):
        data = kernels.matmul_data(8)
        base = MeasuredCost()
        with_inputs = MeasuredCost(inputs=data)
        assert base.key() != with_inputs.key()
        data2 = kernels.matmul_data(8, seed=1)
        assert MeasuredCost(inputs=data2).key() != with_inputs.key()

    def test_scores_with_explicit_inputs(self):
        data = kernels.matmul_data(8)
        score = MeasuredCost(inputs=data, repeats=2).score(kernels.matmul_sdfg())
        assert score > 0
        # Measurement must not consume the caller's arrays.
        assert (data["C"] == 0).all()


class TestResolveProvider:
    def test_names_and_instances(self):
        assert isinstance(resolve_provider("measured"), MeasuredCost)
        assert isinstance(resolve_provider("analytic", machine="gpu"), AnalyticCost)
        custom = AnalyticCost("fpga")
        assert resolve_provider(custom) is custom
        with pytest.raises(ValueError):
            resolve_provider("oracle")

    def test_base_interface_is_abstract(self):
        provider = CostProvider()
        with pytest.raises(NotImplementedError):
            provider.key()
        with pytest.raises(NotImplementedError):
            provider.score(None)

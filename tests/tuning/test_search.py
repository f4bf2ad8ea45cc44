"""Search drivers and the tune() entry point — including the acceptance
path: measured tuning finds a matmul variant that beats the naive SDFG,
and a repeated invocation with the same cache dir short-circuits."""

import difflib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.sdfg.serialize import (
    canonical_sdfg_json,
    content_hash,
    sdfg_from_json,
    sdfg_to_json,
)
from repro.symbolic import memo
from repro.telemetry.sink import TelemetrySink, install_sink
from repro.transformations import auto_optimize, replay
from repro.transformations.guard import GuardedOptimizer
from repro.transformations.optimizer import _resolve, sort_matches
from repro.tuning import (
    AnalyticCost,
    MeasuredCost,
    TuningConfig,
    TuningReport,
    tune,
)
from repro.workloads import kernels, polybench

#: Search pool for matmul-shaped graphs: small, but contains the
#: known-good chain (fusion + vectorization) and known-bad moves.
POOL = ["MapReduceFusion", "MapFusion", "MapCollapse", "MapToForLoop", "Vectorization"]


class TestMeasuredAcceptance:
    #: Greedy search needs a first step that pays on its own.  At 48 the
    #: naive N^3 temporary (0.9 MB) is one: fusing it away is measurable.
    #: At the original size, 24, the strided-view tier runs the naive
    #: program and every one-step variant in the same ~40 us — only fusion
    #: *plus* vectorization is faster — so that size is kept below as a
    #: beam search, which carries the plateau to depth 2.
    SIZE = 48

    def test_measured_tuning_beats_naive_and_caches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        provider = MeasuredCost(symbol_default=self.SIZE, repeats=3)
        first = tune(
            kernels.matmul_sdfg(),
            cost=provider,
            strategy="greedy",
            depth=3,
            budget=12,
            transformations=POOL,
            cache_dir=cache_dir,
        )
        assert not first.cache_hit
        assert first.history, "search found no improving sequence"
        assert first.best_score < first.baseline_score
        assert first.improved

        # The tuned variant still computes a correct matmul.
        data = kernels.matmul_data(16)
        ref = kernels.matmul_reference(data)
        first.sdfg.compile()(**data)
        np.testing.assert_allclose(data["C"], ref)

        # Same problem, same cache dir: the search is short-circuited.
        second = tune(
            kernels.matmul_sdfg(),
            cost=MeasuredCost(symbol_default=self.SIZE, repeats=3),
            strategy="greedy",
            depth=3,
            budget=12,
            transformations=POOL,
            cache_dir=cache_dir,
        )
        assert second.cache_hit
        assert second.history == first.history
        assert second.report.cache["hit"] is True
        assert second.report.budget_used == 0  # no evaluations ran

    def test_measured_beam_crosses_the_one_step_plateau_at_24(self):
        result = tune(
            kernels.matmul_sdfg(),
            cost=MeasuredCost(symbol_default=24, repeats=5),
            strategy="beam",
            beam_width=8,
            depth=2,
            budget=24,
            transformations=POOL,
        )
        assert result.improved and result.best_score < result.baseline_score
        data = kernels.matmul_data(16)
        ref = kernels.matmul_reference(data)
        result.sdfg.compile()(**data)
        np.testing.assert_allclose(data["C"], ref)

    def test_different_config_misses_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        kwargs = dict(
            cost=AnalyticCost(machine="cpu"),
            transformations=POOL,
            budget=8,
            cache_dir=cache_dir,
        )
        first = tune(kernels.matmul_sdfg(), depth=2, **kwargs)
        assert not first.cache_hit
        again = tune(kernels.matmul_sdfg(), depth=3, **kwargs)
        assert not again.cache_hit  # depth is part of the config key


class TestSearchDrivers:
    def test_greedy_deterministic_trace(self):
        def run():
            return tune(
                kernels.matmul_sdfg(),
                cost=AnalyticCost(machine="cpu"),
                strategy="greedy",
                depth=2,
                budget=16,
                transformations=POOL,
            )

        a, b = run(), run()
        assert a.history == b.history
        assert [c.to_json() for c in a.report.candidates] == [
            c.to_json() for c in b.report.candidates
        ]

    def test_beam_at_least_as_good_as_greedy(self):
        kwargs = dict(
            cost=AnalyticCost(machine="cpu"),
            depth=2,
            budget=32,
            transformations=POOL,
        )
        greedy = tune(kernels.matmul_sdfg(), strategy="greedy", **kwargs)
        beam = tune(
            kernels.matmul_sdfg(), strategy="beam", beam_width=3, **kwargs
        )
        assert beam.best_score <= greedy.best_score

    def test_budget_is_respected(self):
        result = tune(
            kernels.matmul_sdfg(),
            cost=AnalyticCost(machine="cpu"),
            strategy="beam",
            depth=4,
            beam_width=4,
            budget=5,
            transformations=POOL,
        )
        assert result.report.budget_used <= 5
        assert len(result.report.scored()) <= 5

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            tune(kernels.matmul_sdfg(), cost=AnalyticCost(), strategy="anneal")

    def test_input_sdfg_never_mutated(self):
        sdfg = kernels.matmul_sdfg()
        before = content_hash(sdfg)
        tune(sdfg, cost=AnalyticCost(), depth=2, budget=8, transformations=POOL)
        assert content_hash(sdfg) == before
        assert sdfg.transformation_history == []

    def test_duplicate_variants_pruned(self):
        """Variants that converge to the same canonical content hash are
        scored once (MapExpansion rebuilds maps, erasing a prior
        Vectorization mark, so both orders collapse)."""
        result = tune(
            kernels.matmul_sdfg(),
            cost=AnalyticCost(machine="cpu"),
            strategy="beam",
            depth=2,
            beam_width=4,
            budget=40,
            transformations=["MapExpansion", "Vectorization"],
        )
        assert any(
            c.status == "pruned_duplicate" for c in result.report.candidates
        )


class TestMemoStateInvariance:
    """The symbolic memo tables are a pure cache: a search that starts on
    cleared tables and one that starts on warm tables are the same search."""

    @pytest.mark.parametrize("name", ["gemm", "atax"])
    def test_cold_and_warm_memo_give_identical_search(self, name):
        from repro.symbolic import clear_caches
        from repro.workloads import polybench

        kernel = polybench.get(name)

        def run():
            result = tune(
                kernel.make_sdfg(),
                cost="analytic",
                symbols=kernel.sizes,
                strategy="greedy",
            )
            return (
                [(c.status, c.score) for c in result.report.candidates],
                result.report.budget_used,
                result.history,
                content_hash(result.sdfg),
            )

        clear_caches()
        cold = run()
        warm = run()
        assert cold == warm
        assert cold[0], "search recorded no candidates"


class TestReportAndInstrumentation:
    def test_report_json_round_trip(self, tmp_path):
        result = tune(
            kernels.matmul_sdfg(),
            cost=AnalyticCost(machine="cpu"),
            depth=2,
            budget=8,
            transformations=POOL,
        )
        path = str(tmp_path / "report.json")
        result.report.save(path)
        loaded = TuningReport.load(path)
        assert loaded.to_json() == result.report.to_json()
        assert loaded.render() == result.report.render()
        assert loaded.speedup() == result.report.speedup()

    def test_tuning_and_cache_events_on_sink(self, tmp_path):
        sink = TelemetrySink()
        previous = install_sink(sink)
        try:
            result = tune(
                kernels.matmul_sdfg(),
                cost=AnalyticCost(machine="cpu"),
                depth=1,
                budget=4,
                transformations=POOL,
                cache_dir=str(tmp_path / "c"),
            )
        finally:
            install_sink(previous)
        events, _, _ = sink.drain(0)
        timed = [e for e in events if e.kind == "tuning" and e.label == "mm"]
        assert len(timed) == 1 and timed[0].value >= 0
        cache = [e.fields["event"] for e in events if e.kind == "cache"
                 and e.label == "tuning"]
        assert cache == ["miss", "store"]
        assert result.report.cache["misses"] == 1


class TestAutoOptimizeIntegration:
    def test_search_strategy_applies_in_place(self):
        sdfg = kernels.matmul_sdfg()
        applied = auto_optimize(
            sdfg,
            strategy="search",
            cost=AnalyticCost(machine="cpu"),
            depth=2,
            budget=12,
            transformations=POOL,
        )
        assert applied == len(sdfg.transformation_history) > 0
        data = kernels.matmul_data(12)
        ref = kernels.matmul_reference(data)
        sdfg.compile()(**data)
        np.testing.assert_allclose(data["C"], ref)

    def test_search_result_replayable_through_optimizer(self):
        result = tune(
            kernels.matmul_sdfg(),
            cost=AnalyticCost(machine="cpu"),
            depth=2,
            budget=12,
            transformations=POOL,
        )
        fresh = kernels.matmul_sdfg()
        replay(fresh, result.history)
        assert content_hash(fresh) == content_hash(result.sdfg)

    def test_the_result_is_the_graph_the_search_scored(self):
        """A search miss returns the winning variant's own graph (no
        replay), and it is what a replay of the history builds."""
        scored = []

        class Recording(AnalyticCost):
            def score_analysed(self, sdfg):
                score = super().score_analysed(sdfg)
                scored.append((sdfg, score))
                return score

        result = tune(kernels.matmul_sdfg(), cost=Recording(machine="cpu"),
                      depth=2, budget=12, transformations=POOL)
        assert result.history
        (score,) = [s for g, s in scored if g is result.sdfg]
        assert score == result.best_score
        fresh = kernels.matmul_sdfg()
        replay(fresh, result.history)
        assert sdfg_to_json(fresh) == sdfg_to_json(result.sdfg)

    def test_rejects_unknown_auto_strategy(self):
        with pytest.raises(ValueError):
            auto_optimize(kernels.matmul_sdfg(), strategy="mystery")


class TestConfig:
    def test_config_key_stable_and_sensitive(self):
        a = TuningConfig(strategy="greedy", depth=3)
        b = TuningConfig(strategy="greedy", depth=3)
        assert a.key() == b.key()
        assert a.key() != TuningConfig(strategy="beam", depth=3).key()
        assert a.key() != TuningConfig(strategy="greedy", depth=4).key()

    def test_tune_leaves_the_callers_config_alone(self):
        cfg = TuningConfig()
        before = cfg.to_json()
        tune(kernels.matmul_sdfg(), cost="analytic", config=cfg, budget=3,
             strategy="beam", depth=1, beam_width=2, transformations=POOL)
        assert cfg.to_json() == before
        assert cfg.strategy == "greedy" and cfg.budget == 64

    def test_default_pool_excludes_hardware_offloads(self):
        cfg = TuningConfig()
        pool = cfg.pool()
        assert "GPUTransform" not in pool
        assert "FPGATransform" not in pool
        assert "MapFusion" in pool
        assert pool == sorted(pool)


#: The five searches of the ``tune_search`` benchmark (analytic cost on
#: the cpu model, the benchmark's problem sizes, default search config),
#: recorded before the search reused one analysis per candidate: every
#: candidate record ``[depth, parent, transformation, match, status,
#: score, reason, accepted]``, the winner, the scores, the tuned graph's
#: hash and the content hash of every graph the cost provider scored.
TRACES = json.loads(Path(__file__).with_name("search_traces.json").read_text())


def _bench_search(key, provider_cls=AnalyticCost):
    strategy, name = key.split(":")
    if name == "matmul":
        sdfg, sizes = kernels.matmul_sdfg(), {s: 64 for s in "MKN"}
    else:
        kernel = polybench.get(name)
        sdfg, sizes = kernel.make_sdfg(), dict(kernel.sizes)
    provider = provider_cls(machine="cpu", symbols=sizes)
    return tune(sdfg, cost=provider, strategy=strategy), provider


class _CheckedAnalyticCost(AnalyticCost):
    """The analytic cost, asserting that every graph the search hands to
    the model walk without re-analysing it is valid and a propagate
    fixpoint, and recording its content hash."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.hashes = []

    def score(self, sdfg):
        raise AssertionError("the search scored a graph it had not analysed")

    def score_analysed(self, sdfg):
        sdfg.validate()
        before = canonical_sdfg_json(sdfg)
        again = sdfg_from_json(sdfg_to_json(sdfg))
        again.propagate()
        after = canonical_sdfg_json(again)
        if after != before:
            diff = difflib.unified_diff(
                json.dumps(json.loads(before), indent=1).splitlines(),
                json.dumps(json.loads(after), indent=1).splitlines(),
                "scored", "propagated", lineterm="", n=2,
            )
            pytest.fail(
                "the model walk got a graph that propagate changes:\n"
                + "\n".join(list(diff)[:40])
            )
        self.hashes.append(content_hash(sdfg))
        return super().score_analysed(sdfg)


class TestSearchTracePins:
    """The benchmark's searches, candidate by candidate, against the
    pinned traces: a change to the search's hot path that alters which
    candidates are tried, how they end or how they score fails here."""

    @pytest.mark.parametrize("key", sorted(TRACES))
    def test_trace_winner_and_scores_are_pinned(self, key):
        pin = TRACES[key]
        result, _ = _bench_search(key)
        got = [
            [c.depth, c.parent, c.transformation, c.match, c.status, c.score,
             c.reason, c.accepted]
            for c in result.report.candidates
        ]
        for i, (have, want) in enumerate(zip(got, pin["candidates"])):
            assert have == want, f"{key}: candidate {i} differs from the pin"
        assert len(got) == len(pin["candidates"])
        assert result.history == pin["winner"]
        assert result.baseline_score == pin["baseline_score"]
        assert result.best_score == pin["best_score"]
        assert content_hash(result.sdfg) == pin["result_hash"]

    @pytest.mark.parametrize("key", sorted(TRACES))
    def test_model_walk_sees_only_analysed_pinned_variants(self, key):
        result, provider = _bench_search(key, _CheckedAnalyticCost)
        assert provider.hashes == TRACES[key]["variant_hashes"]
        assert result.history == TRACES[key]["winner"]


class _ClearingAnalyticCost(AnalyticCost):
    """The analytic cost with every symbolic memo table, the model's
    evaluations among them, emptied before each score."""

    def score_analysed(self, sdfg):
        memo.clear()
        return super().score_analysed(sdfg)


def test_beam_scores_do_not_depend_on_the_model_memo():
    key = "beam:atax"
    result, _ = _bench_search(key, _ClearingAnalyticCost)
    got = [[c.status, c.score] for c in result.report.candidates]
    assert got == [[c[4], c[5]] for c in TRACES[key]["candidates"]]
    assert result.best_score == TRACES[key]["best_score"]


class TestReboundMatch:
    """The search enumerates a variant's matches once, on its probe, and
    hands each candidate's guard its match rebound by position to the
    guard's private copy: on every pinned candidate that is exactly
    what ``apply(match_index=i)`` does after enumerating again."""

    @pytest.mark.parametrize("key", sorted(TRACES))
    def test_rebound_match_equals_apply_by_index(self, key):
        name = key.split(":")[1]
        sdfg = (kernels.matmul_sdfg() if name == "matmul"
                else polybench.get(name).make_sdfg())
        sdfg.validate()
        sdfg.propagate()
        variants = {"": sdfg_to_json(sdfg)}  # label -> propagated snapshot
        compared = 0
        for _, parent, xform, index, status, _, reason, _ in TRACES[key]["candidates"]:
            if status in ("no_match", "pruned_budget"):
                continue
            assert not reason.startswith("match enumeration failed")
            snapshot = variants[parent]
            probe = sdfg_from_json(snapshot)
            matches = sort_matches(probe, _resolve(xform).matches(probe))
            rebound = GuardedOptimizer.from_snapshot(probe, probe.copy())
            by_index = GuardedOptimizer.from_snapshot(probe, sdfg_from_json(snapshot))
            applied = rebound.apply_rebound(matches[index])
            assert applied == by_index.apply(xform, match_index=index)
            got, want = rebound.report.attempts[-1], by_index.report.attempts[-1]
            assert (got.transformation, got.status, got.reason, got.code) == (
                want.transformation, want.status, want.reason, want.code)
            assert sdfg_to_json(rebound.sdfg) == sdfg_to_json(by_index.sdfg)
            if applied:
                step = f"{xform}[{index}]"
                variants.setdefault(f"{parent} > {step}" if parent else step,
                                    sdfg_to_json(rebound.sdfg))
            compared += 1
        assert compared == sum(
            c[4] not in ("no_match", "pruned_budget") for c in TRACES[key]["candidates"]
        )


def test_search_parses_each_expanded_variant_once(monkeypatch):
    """A search holds graphs, not snapshots: each variant is enumerated
    on its own graph, a candidate's guard works on a copy of it, and a
    rollback transplants a copy.  The serializer parses nothing, not
    the root, a probe, a rolled-back candidate or the result."""
    from repro.sdfg import serialize
    from repro.tuning import search

    parses, expanded = [], []
    parse, expand = serialize.sdfg_from_json, search._expand

    def counted_parse(obj):
        parses.append(obj["name"])
        return parse(obj)

    def counted_expand(variant, *args):
        expanded.append(variant.label())
        return expand(variant, *args)

    monkeypatch.setattr(serialize, "sdfg_from_json", counted_parse)
    monkeypatch.setattr(search, "_expand", counted_expand)
    kernel = polybench.get("gemm")
    result = tune(kernel.make_sdfg(), cost="analytic", symbols=dict(kernel.sizes))
    guarded = [
        c for c in result.report.candidates
        if c.status not in ("no_match", "pruned_budget")
        and not c.reason.startswith("match enumeration failed")
    ]
    assert parses == []
    assert len(guarded) > 3 * len(expanded) > 0

"""The search's duplicate table, keyed by structural fingerprint: equal
canonical forms always give equal fingerprints, the fingerprint ignores
what the canonical form drops or reorders, and a candidate is hashed
only when its fingerprint is already in the table."""

import collections

import pytest

from repro.sdfg import dtypes
from repro.sdfg.serialize import (
    content_hash,
    sdfg_from_json,
    sdfg_to_json,
    structural_fingerprint,
)
from repro.tuning import search
from tests.sdfg.test_analysis_reuse import CORPUS, _make
from tests.tuning.test_search import TRACES, _bench_search

#: ``content_hash`` calls per pinned search: the greedy searches prune
#: no duplicate and hash nothing; beam:atax prunes nine, and hashes each
#: candidate whose fingerprint an earlier one has and, the first time,
#: that earlier one (its plateau of equal scores holds many variants of
#: one structure, so 30 calls).
HASH_CALLS = {
    "beam:atax": 30,
    "greedy:atax": 0,
    "greedy:gemm": 0,
    "greedy:jacobi-2d": 0,
    "greedy:matmul": 0,
}


def _reinsert_edges_reversed(sdfg):
    for state in sdfg.nodes():
        edges = state.edges()
        for e in edges:
            state.remove_edge(e)
        for e in reversed(edges):
            state.add_edge_object(e)
    return sdfg


def _assert_hash_classes_have_one_fingerprint(pairs):
    by_hash = collections.defaultdict(set)
    for digest, fingerprint in pairs:
        by_hash[digest].add(fingerprint)
    split = [d for d, fps in by_hash.items() if len(fps) > 1]
    assert not split, f"{len(split)} content hash(es) with several fingerprints"
    return by_hash


def test_corpus_equal_hashes_give_equal_fingerprints():
    pairs = []
    for name in CORPUS:
        graph = _make(name)
        graph.propagate()
        for g in (
            graph,
            graph.copy(),
            sdfg_from_json(sdfg_to_json(graph)),
            _reinsert_edges_reversed(graph.copy()),
        ):
            pairs.append((content_hash(g), structural_fingerprint(g)))
    assert len(_assert_hash_classes_have_one_fingerprint(pairs)) == len(CORPUS)


def test_searched_equal_hashes_give_equal_fingerprints(monkeypatch):
    """Every graph the pinned searches fingerprint: the root and each
    guarded candidate, duplicates included."""
    pairs = []
    fingerprint = search.structural_fingerprint

    def recorded(sdfg):
        fp = fingerprint(sdfg)
        pairs.append((content_hash(sdfg), fp))
        return fp

    monkeypatch.setattr(search, "structural_fingerprint", recorded)
    for key in sorted(TRACES):
        _bench_search(key)
    by_hash = _assert_hash_classes_have_one_fingerprint(pairs)
    assert len(pairs) > len(by_hash)  # the pruned duplicates are in there


def test_fingerprint_ignores_edge_order_and_history():
    graph = _make("gemm")
    graph.propagate()
    before = structural_fingerprint(graph)
    digest = content_hash(graph)
    _reinsert_edges_reversed(graph)
    graph.transformation_history.append({"transformation": "MapFusion", "match": 0})
    assert content_hash(graph) == digest
    assert structural_fingerprint(graph) == before


@pytest.mark.parametrize("key", sorted(TRACES))
def test_search_hashes_only_on_a_fingerprint_collision(key, monkeypatch):
    calls = []

    def counted(sdfg):
        calls.append(sdfg.name)
        return content_hash(sdfg)

    monkeypatch.setattr(search, "content_hash", counted)
    result, _ = _bench_search(key)
    pruned = sum(c.status == "pruned_duplicate" for c in result.report.candidates)
    assert pruned == sum(c[4] == "pruned_duplicate" for c in TRACES[key]["candidates"])
    assert len(calls) == HASH_CALLS[key]


def test_a_collision_is_settled_by_content_hash():
    """Same fingerprint, different content: not a duplicate, and both
    variants are hashed; an exact copy of either is one."""
    first = _make("gemm")
    first.propagate()
    second = first.copy()
    name = sorted(second.arrays)[0]
    second.arrays[name].dtype = dtypes.float32
    assert structural_fingerprint(second) == structural_fingerprint(first)
    assert content_hash(second) != content_hash(first)

    state = search._SearchState(budget=4)
    root = search._Variant(history=[], sdfg=first, score=1.0)
    state.remember(root, structural_fingerprint(first))
    assert root.hash is None
    twin, digest = state.duplicate(second, structural_fingerprint(second))
    assert twin is None and digest == content_hash(second)
    assert root.hash == content_hash(first)
    child = search._Variant(history=[{"transformation": "X", "match": 0}],
                            sdfg=second, score=2.0, hash=digest)
    state.remember(child, structural_fingerprint(second))
    twin, _ = state.duplicate(second.copy(), structural_fingerprint(second))
    assert twin is child
    assert state.duplicate(first.copy(), structural_fingerprint(first))[0] is root

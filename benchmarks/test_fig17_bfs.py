"""Fig. 17 — BFS vs graph-framework baselines on five graphs.

Dataset substitution (DESIGN.md §1 / Table 5): synthetic generators
reproduce the characteristic regimes — road networks (high diameter,
degree <= 4), social networks (heavy-tailed, low diameter), and a
Kronecker graph.  Baseline roles: level-synchronous push (Gluon's
bfs_push) and direction-optimizing BFS (Galois SyncTile).

Expected shape: the frameworks win or tie on the social/Kronecker
graphs; the SDFG's fine-grained data-driven scheduling is competitive
on road networks (paper: up to 2x faster there).  Absolute times on
this testbed compare a compiled-Python SDFG backend against NumPy-bulk
baselines, so only relative per-graph *trends* are meaningful.
"""

import numpy as np
import pytest

from repro.library.graphs import (
    bfs_direction_optimizing,
    bfs_level_sync,
    bfs_reference,
    kronecker_graph,
    road_network,
    social_network,
)
from repro.workloads.bfs import build_bfs_sdfg
from conftest import mean_seconds, run_once

GRAPHS = {
    "usa(road)": lambda: road_network(40, keep=0.7, seed=1),
    "osm-eur(road)": lambda: road_network(48, keep=0.65, seed=2),
    "soc-lj(social)": lambda: social_network(1200, 12, seed=3),
    "twitter(social)": lambda: social_network(1500, 18, seed=4),
    "kron(synthetic)": lambda: kronecker_graph(10, 8, seed=5),
}

ROLES = ("sdfg", "gluon(level-sync)", "galois(dir-opt)")


@pytest.fixture(scope="module")
def graphs():
    return {name: maker() for name, maker in GRAPHS.items()}


@pytest.fixture(scope="module")
def compiled_bfs():
    return build_bfs_sdfg(optimized=True).compile()


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_fig17(benchmark, results_table, graphs, compiled_bfs, gname, role):
    g = graphs[gname]
    ref = bfs_reference(g, 0)
    if role == "sdfg":
        depth = np.zeros(g.num_vertices, np.int32)

        def run():
            compiled_bfs(
                G_row=g.indptr, G_col=g.indices, depth=depth, src=0,
                V=g.num_vertices, E=g.num_edges,
            )
            return depth
    elif role == "gluon(level-sync)":
        run = lambda: bfs_level_sync(g, 0)  # noqa: E731
    else:
        run = lambda: bfs_direction_optimizing(g, 0)  # noqa: E731

    result = run_once(benchmark, run)
    np.testing.assert_array_equal(result, ref)
    results_table.append(("fig17", gname, role, mean_seconds(benchmark)))
    benchmark.extra_info["graph"] = gname
    benchmark.extra_info["V"] = g.num_vertices
    benchmark.extra_info["E"] = g.num_edges

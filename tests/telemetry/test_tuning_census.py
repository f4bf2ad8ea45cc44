"""The telemetry stream of the tuner: a cached whole-program search run
twice (a miss, then a hit) and one cutout search, counted event by
event.  Cache counters, per-search timers, per-transformation totals
and the cutout records all reach the sink from their owners, each
once."""

import json
from collections import Counter

from repro.telemetry.sink import TelemetrySink, install_sink
from repro.tuning import AnalyticCost, tune
from repro.workloads import kernels

#: The census at the parent of the change that made the tuner, the
#: tuning cache and the compile driver publish without a shared
#: recorder: ``(kind, label, value is not None, fields without *_s)``.
PARENT_EVENTS = Counter({
    ("cache", "tuning", False, '{"event": "hit", "n": 1}'): 1,
    ("cache", "tuning", False, '{"event": "miss", "n": 1}'): 4,
    ("cache", "tuning", False, '{"event": "store", "n": 1}'): 4,
    ("compile", "gemm_chain", True, None): 2,
    ("phase", "codegen[interpreter]", True, None): 2,
    ("phase", "propagate", True, None): 2,
    ("phase", "validate", True, None): 2,
    ("tuning", "cutout:dedup", False, '{"saved": 1, "total": 4, "unique": 3}'): 1,
    ("tuning", "cutout:init0", True,
     '{"cache_hit": false, "evals": 3, "members": 2, "stitched": 2}'): 1,
    ("tuning", "cutout:mm0", True,
     '{"cache_hit": false, "evals": 3, "members": 1, "stitched": 1}'): 1,
    ("tuning", "cutout:mm1", True,
     '{"cache_hit": false, "evals": 3, "members": 1, "stitched": 1}'): 1,
    ("tuning", "gemm_chain_cut_init0", True, None): 1,
    ("tuning", "gemm_chain_cut_mm0", True, None): 1,
    ("tuning", "gemm_chain_cut_mm1", True, None): 1,
    ("tuning", "mm", True, None): 1,
    ("tuning", "xform:MapExpansion", True,
     '{"accepted": 1, "candidates": 1, "rejected": 0}'): 4,
    ("tuning", "xform:MapReduceFusion", True,
     '{"accepted": 1, "candidates": 1, "rejected": 0}'): 1,
    ("tuning", "xform:MapTiling", True,
     '{"accepted": 1, "candidates": 1, "rejected": 0}'): 4,
    ("tuning", "xform:Vectorization", True,
     '{"accepted": 1, "candidates": 1, "rejected": 0}'): 4,
})


def _untimed(fields):
    if fields is None:
        return None
    return json.dumps(
        {k: v for k, v in fields.items() if not k.endswith("_s")}, sort_keys=True
    )


def test_tuning_sink_census_matches_the_parent(tmp_path):
    """The symbolic memo's ``symcache:*`` counts are left out: they
    depend on what earlier work left in the process-wide memo."""
    sink = TelemetrySink(capacity=8192)
    previous = install_sink(sink)
    try:
        for _ in range(2):  # a miss, then a hit
            tune(kernels.matmul_sdfg(), cost=AnalyticCost(machine="cpu"),
                 depth=1, budget=4, cache_dir=str(tmp_path / "a"))
        tune(kernels.gemm_chain_sdfg(2), cost=AnalyticCost(machine="cpu"),
             strategy="cutout", depth=1, budget=4, cache_dir=str(tmp_path / "b"))
    finally:
        install_sink(previous)
    events, _, dropped = sink.drain(0)
    assert dropped == 0
    got = Counter(
        (e.kind, e.label, e.value is not None, _untimed(e.fields))
        for e in events if not e.label.startswith("symcache:")
    )
    assert got == PARENT_EVENTS
    # The search timer follows its transformation totals, as the
    # recorder's exit used to publish it.
    labels = [e.label for e in events if e.kind == "tuning"]
    assert labels.index("mm") == labels.index("xform:Vectorization") + 1

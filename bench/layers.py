"""Per-layer probes of the traced run.

Every probe calls a layer's *public* functions directly — on a copy of
the program when the call mutates it — inside a span named after the
metric, and the metric is read back from the spans: the median over
repetitions per program, then the geometric mean over programs.  The
probes are the same on every workload, so a per-layer number means the
same thing whichever workload's traced run printed it.

Which end-to-end number each of these should move is the "moves" table
in README.md.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List

import numpy as np

from bench import harness, programs
from bench.spans import Tracer
from bench.workloads import ServeMixed

#: Repetitions of each timed call per program.
REPS = 3
#: Programs the transformation and tuning probes search.
TUNED = ("gemm", "atax")


# ------------------------------------------------ frontend / sdfg / codegen
def probe_compile(tr: Tracer, corpus: List[programs.Program]) -> Dict[str, float]:
    from repro.codegen import compile_sdfg, generate_code
    from repro.codegen.progcache import ProgramCache
    from repro.sdfg import SDFG
    from repro.sdfg.propagation import propagate_memlets_sdfg
    from repro.sdfg.serialize import content_hash
    from repro.sdfg.validation import validate_sdfg
    from repro.symbolic import memo

    out: Dict[str, float] = {}
    degraded = 0
    # Whole-corpus compile passes, each on cleared memo tables: what a
    # ``compile_corpus`` op is made of, and the memo's hit share over it.
    for _ in range(REPS):
        memo.clear()
        before = memo.stats()
        compiled = []
        for p in corpus:
            with tr.span("frontend.build", p.name):
                sdfg = p.make_sdfg()
            with tr.span("codegen.compile", p.name):
                compiled.append(compile_sdfg(sdfg, cache="off"))
        after = memo.stats()
    hits = sum(after[n]["hits"] - before.get(n, {}).get("hits", 0) for n in after)
    misses = sum(after[n]["misses"] - before.get(n, {}).get("misses", 0) for n in after)
    out["symbolic.memo_hit_share"] = hits / (hits + misses)
    out["symbolic.memo_entries"] = sum(s["entries"] for s in after.values())
    for p, c in zip(corpus, compiled):
        degraded += bool(c.degradation)
        with tr.span("runtime.first_call", p.name):
            c(**p.fresh())
    out["codegen.source_bytes"] = sum(len(c.source) for c in compiled)
    out["codegen.degraded"] = degraded

    # The pipeline's phases one by one, on warm memo tables.
    json_bytes = nodes = 0
    for p in corpus:
        sdfg = p.make_sdfg()
        cache = ProgramCache()
        compile_sdfg(SDFG.from_json(sdfg.to_json()), cache=cache)
        for _ in range(REPS):
            with tr.span("sdfg.validate", p.name):
                validate_sdfg(sdfg)
            with tr.span("sdfg.to_json", p.name):
                obj = sdfg.to_json()
            with tr.span("sdfg.from_json", p.name):
                copy = SDFG.from_json(obj)
            with tr.span("sdfg.propagate", p.name):
                propagate_memlets_sdfg(copy)
            with tr.span("sdfg.content_hash", p.name):
                content_hash(sdfg)
            with tr.span("codegen.generate", p.name):
                generate_code(SDFG.from_json(obj), "python")
            with tr.span("codegen.progcache_hit", p.name):
                hit = compile_sdfg(SDFG.from_json(obj), cache=cache)
            assert hit.cache_hit
        json_bytes += len(json.dumps(obj, sort_keys=True))
        nodes += len(sdfg.nodes()) + sum(len(s.nodes()) for s in sdfg.nodes())
    out["sdfg.json_bytes"] = json_bytes
    out["sdfg.nodes"] = nodes
    for metric in ("frontend.build", "sdfg.validate", "sdfg.propagate", "sdfg.to_json",
                   "sdfg.from_json", "sdfg.content_hash", "codegen.generate",
                   "codegen.compile", "codegen.progcache_hit", "runtime.first_call"):
        out[metric + "_ms"] = tr.geomean_ms(metric)
    return out


# ------------------------------------------------------------------ runtime
def probe_runtime(tr: Tracer, seed: int, small: List[programs.Program]) -> Dict[str, float]:
    from repro.codegen import compile_sdfg
    from repro.runtime.interpreter import SDFGInterpreter
    from repro.transformations.guard import synthesize_inputs

    large = programs.kernel_programs(seed, programs.LARGE, optimize=True)
    for span, progs in (("runtime.call_large", large), ("runtime.call_small", small)):
        for p in progs:
            compiled = compile_sdfg(p.make_sdfg(), cache="off")
            compiled(**p.fresh())  # builds the marshaling plan
            for _ in range(REPS):
                args = p.fresh()
                with tr.span(span, p.name):
                    compiled(**args)
            compiled.close()
    for p in large:
        for _ in range(REPS):
            with tr.span("runtime.numpy", p.name):
                p.numpy_call()
    ours, numpy_ = tr.samples("runtime.call_large"), tr.samples("runtime.numpy")
    ratios = [statistics.median(ours[n]) / statistics.median(numpy_[n]) for n in ours]

    for p in small:
        if p.name in programs.SERVE_PROGRAMS:
            sdfg = p.make_sdfg()
            inputs = synthesize_inputs(sdfg)
            for _ in range(REPS):
                with tr.span("runtime.interpreter", p.name):
                    SDFGInterpreter(sdfg)(**{
                        k: v.copy() if isinstance(v, np.ndarray) else v
                        for k, v in inputs.items()
                    })
    return {
        "runtime.call_large_ms": tr.geomean_ms("runtime.call_large"),
        "runtime.call_small_ms": tr.geomean_ms("runtime.call_small"),
        "runtime.vs_numpy_ratio": statistics.geometric_mean(ratios),
        "runtime.interpreter_ms": tr.geomean_ms("runtime.interpreter"),
    }


# ------------------------------------------------- transformations / tuning
def probe_search(tr: Tracer, scratch: str, tuned: List[programs.Program]) -> Dict[str, float]:
    from repro.sdfg import SDFG
    from repro.transformations.guard import GuardedOptimizer
    from repro.transformations.optimizer import enumerate_matches
    from repro.tuning import AnalyticCost, default_pool, tune

    matches = 0
    for p in tuned:
        snapshot = p.make_sdfg().to_json()
        for xform in default_pool():
            with tr.span("transformations.enumerate", f"{p.name}:{xform}"):
                found = len(enumerate_matches(SDFG.from_json(snapshot), xform))
            matches += found
            for index in range(found):
                guard = GuardedOptimizer(SDFG.from_json(snapshot))
                with tr.span("transformations.guarded_apply", f"{p.name}:{xform}:{index}"):
                    guard.apply(xform, match_index=index)

    # Rollbacks are counted where they happen: on the variants a search
    # reaches below the root, which the loop above never builds.
    candidates = evaluations = rollbacks = 0
    gains = []
    for rep in range(2):
        cache_dir = os.path.join(scratch, f"probe-tuning-{rep}")
        for p in tuned:
            sdfg = p.make_sdfg()
            kwargs = dict(cost="analytic", machine="cpu", symbols=p.sizes,
                          jobs=1, cache_dir=cache_dir)
            with tr.span("tuning.search", p.name):
                result = tune(sdfg, **kwargs)
            with tr.span("tuning.cache_hit", p.name):
                replay = tune(sdfg, **kwargs)
            assert replay.cache_hit and not result.cache_hit
            if rep == 0:
                candidates += len(result.report.candidates)
                rollbacks += sum(c.status == "rolled_back" for c in result.report.candidates)
                evaluations += result.report.budget_used
                gains.append(result.baseline_score / result.best_score)
    for p in tuned:
        provider = AnalyticCost(machine="cpu", symbols=p.sizes)
        sdfg = p.make_sdfg()
        for _ in range(REPS):
            with tr.span("tuning.score", p.name):
                provider.score(sdfg)
    return {
        "transformations.enumerate_ms": tr.geomean_ms("transformations.enumerate"),
        "transformations.matches": matches,
        "transformations.guarded_apply_ms": tr.geomean_ms("transformations.guarded_apply"),
        "transformations.rollbacks": rollbacks,
        "tuning.search_ms": tr.geomean_ms("tuning.search"),
        "tuning.cache_hit_ms": tr.geomean_ms("tuning.cache_hit"),
        "tuning.score_ms": tr.geomean_ms("tuning.score"),
        "tuning.candidates": candidates,
        "tuning.evaluations": evaluations,
        "tuning.score_gain": statistics.geometric_mean(gains),
    }


# -------------------------------------------------------- serve / telemetry
SERVE_PASSES = 3


def probe_serve(tr: Tracer, seed: int, scratch: str) -> Dict[str, float]:
    """A short ``serve_mixed`` session of its own (one warm-up pass, then
    ``SERVE_PASSES`` traced ones), and the wire codec on its payloads."""
    from repro.serve import protocol

    probe_dir = os.path.join(scratch, "probe-serve")
    os.makedirs(probe_dir)
    w = ServeMixed(seed, probe_dir, tr)
    try:
        w.setup()
        order = harness.shuffled_order(w)
        first_span = len(tr.spans)
        harness.run_pass(w, order, verify=False)
        del tr.spans[first_span:]  # the warm-up's spans are not samples
        passes = harness.timed_passes(w, order, SERVE_PASSES)
        snapshot = w.clients[0].metrics()["metrics"]
    finally:
        w.teardown()
    summary = harness.summarise(passes)

    warm = [ms for name in programs.SERVE_PROGRAMS
            for ms in tr.samples("serve.execute_warm", "wall").get(name, [])]
    cold = tr.samples("serve.execute_cold", "wall")["cold"]
    metrics_op = tr.samples("telemetry.metrics_op", "wall")["metrics"]

    for p in w.programs:
        arrays = p.arrays()
        request = {"op": "execute", "v": protocol.PROTOCOL_VERSION, "tenant": "tenant0",
                   "program": "0" * 64, "symbols": p.sizes}
        for _ in range(REPS):
            with tr.span("serve.encode", p.name):
                encoded = protocol.encode_arrays(arrays)
            with tr.span("serve.decode", p.name):
                protocol.decode_arrays(encoded)
            request["arrays"] = encoded
            with tr.span("serve.validate_request", p.name):
                protocol.validate_request(request)
    return {
        "serve.boot_s": w.boot_s,
        "serve.encode_ms": tr.geomean_ms("serve.encode"),
        "serve.decode_ms": tr.geomean_ms("serve.decode"),
        "serve.validate_request_ms": tr.geomean_ms("serve.validate_request"),
        "serve.worker_cpu_share": summary["child_cpu_share"],
        "serve.warm_wall_p50_ms": float(np.percentile(warm, 50)),
        "serve.warm_wall_p95_ms": float(np.percentile(warm, 95)),
        "serve.cold_wall_p50_ms": float(np.percentile(cold, 50)),
        "serve.wall_ops_per_s": summary["ops_per_wall_s"],
        "serve.rejected": w.counts["rejected"],
        "serve.errors": w.counts["errors"],
        "serve.resent": w.counts["resent"],
        "telemetry.metrics_op_ms": float(np.percentile(metrics_op, 50)),
        "telemetry.events": snapshot["totals"]["events"],
        "telemetry.dropped": snapshot["totals"]["dropped"],
    }


#: Metrics that must repeat bit-for-bit for one seed (``--counts-only``).
EXACT_COUNTS = (
    "sdfg.json_bytes", "sdfg.nodes", "codegen.source_bytes",
    "transformations.matches", "transformations.rollbacks",
    "tuning.candidates", "tuning.evaluations", "tuning.score_gain",
)


def probe_all(tr: Tracer, seed: int, scratch: str, counts_only: bool = False) -> Dict[str, Any]:
    """Every per-layer metric except the ``bench.*`` ones, which describe
    the workload's own passes.  ``counts_only`` skips the probes that
    produce no exact count."""
    rng = np.random.default_rng(seed)
    small = programs.polybench_programs(rng)  # at exec_calls sizes
    corpus = small + programs.kernel_programs(seed, programs.SMALL, optimize=False)
    tuned = [p for p in small if p.name in TUNED]
    out = probe_compile(tr, corpus)
    out.update(probe_search(tr, scratch, tuned))
    if not counts_only:
        out.update(probe_runtime(tr, seed, small))
        out.update(probe_serve(tr, seed, scratch))
    return out

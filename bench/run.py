"""Run one workload of the benchmark.

    python3 bench/run.py --workload exec_calls --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload exec_calls --seed 1 --seconds 12 --trace 1
    python3 bench/run.py --workload exec_calls --seed 1 --counts-only

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a third of the passes, every other one with spans
recorded (the rest give the untraced side of the overhead ratio), then
the layer probes, prints the per-layer metrics and writes
``bench/out/trace_<workload>.json``.
Either way the metrics are printed by name with their units, the full
result goes to ``bench/out/<workload>.json``, and the last line of
standard output is the result object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import check_manifest, env  # noqa: E402 - needs the path above


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed CPU seconds to size the run for "
                         "(default: the manifest's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--counts-only", action="store_true",
                    help="print only the exact-count per-layer metrics")
    return ap.parse_args(argv)


def measure(args, manifest, scratch):
    """Set up, warm up, run the timed passes; returns the metric values
    to print and the detail that goes to the result file."""
    # Imported here: NumPy must load after env.prepare() pinned its threads.
    import statistics

    from bench import clock, harness, layers
    from bench.spans import Tracer
    from bench.workloads import WORKLOADS

    tracer = Tracer(enabled=False)

    if args.counts_only:
        tracer.enabled = True
        values = layers.probe_all(tracer, args.seed, scratch, counts_only=True)
        values = {n: values[n] for n in layers.EXACT_COUNTS}
        return values, {"attempted": 1, "failed": 0}

    w = WORKLOADS[args.workload](args.seed, scratch, tracer)
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
    count = harness.scaled_passes(w, seconds, manifest["run_seconds"])
    if args.trace:
        count = max(2, 2 * round(count / 6))  # a third of the passes, half of them traced
    try:
        w.setup()
        order = harness.shuffled_order(w)
        warmup = [harness.run_pass(w, order, verify=False) for _ in range(w.WARMUP)]
        raw_setup_s = clock.tree_cpu()
        passes = harness.timed_passes(w, order, count, alternate_tracing=bool(args.trace))
        rss = clock.peak_rss_mb()
    finally:
        w.teardown()

    summary = harness.summarise(passes)
    setup_slowdown = statistics.median(p.slowdown for p in warmup)
    detail = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": len(w.ops), "warmup_passes": w.WARMUP,
        "setup_s": raw_setup_s / setup_slowdown, "raw_setup_s": raw_setup_s,
        "peak_rss_mb": rss, **summary,
        "op_rows": harness.op_rows(w, passes),
    }
    if not args.trace:
        values = {k: detail[k] for k in ("setup_s", "cpu_ms", "ok_share", "peak_rss_mb")}
        return values, detail

    traced = statistics.median(p.cpu_ms_per_op for p in passes if p.traced)
    untraced = statistics.median(p.cpu_ms_per_op for p in passes if not p.traced)
    tracer.enabled = True
    values = layers.probe_all(tracer, args.seed, scratch)
    values.update({
        "bench.wall_over_cpu": summary["wall_over_cpu"],
        "bench.calib_ms": summary["calib_ms"],
        "bench.trace_overhead_share": traced / untraced - 1.0,
    })
    detail.update(cpu_ms_traced=traced, cpu_ms_untraced=untraced,
                  spans=len(tracer.spans))
    tracer.dump(os.path.join(env.OUT, f"trace_{w.name}.json"))
    return values, detail


def main(argv=None) -> int:
    args = parse(argv)
    manifest = check_manifest.load()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; the manifest has {names}",
              file=sys.stderr)
        return 2
    scratch = env.prepare()
    from bench import clock

    try:
        values, detail = measure(args, manifest, scratch)
    finally:
        leaked = clock.kill_descendants()
        env.cleanup(scratch)
    if leaked:
        print(f"bench: {leaked} process(es) outlived teardown and were killed",
              file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    if not args.counts_only:
        check_manifest.check_printed(manifest, args.workload, bool(args.trace), metrics)
        detail["metrics"] = metrics
        name = f"{args.workload}_traced.json" if args.trace else f"{args.workload}.json"
        with open(os.path.join(env.OUT, name), "w") as f:
            json.dump(detail, f, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

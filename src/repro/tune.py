"""Command-line front end for the transformation auto-tuner.

Usage (``python -m repro.tune``):

* ``python -m repro.tune run gemm --cache-dir .tuning-cache --report
  tuning.json`` — tune one kernel (PolyBench name or one of the five
  fundamental kernels), print the tuning trace, optionally persist the
  :class:`TuningReport` JSON and reuse/populate a shared cache;
* ``python -m repro.tune compare matmul`` — tune, then score the naive
  and tuned variants under the measured backend and the analytic
  cpu/gpu/fpga machine models side by side;
* ``python -m repro.tune run gemm_chain --cutout`` — cutout strategy:
  split the program into per-state cutouts, deduplicate
  identical kernels by content hash, and tune each unique one before
  stitching the winners back;
* ``python -m repro.tune --if-drifted snapshot.json`` — re-tune only
  the kernels whose telemetry timings drifted past their stored
  baselines (W901), invalidating their stale cache entries first;
* ``python -m repro.tune --list`` — list tunable kernel names.

``--assert-improved`` exits nonzero when the tuned variant scores worse
than the naive one, ``--assert-cache-hit`` when the run was not served
from the cache, and ``--assert-dedup`` when cutout grouping saved no
searches — CI uses these to prove the subsystem end to end.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.tuning import TuningResult, tune


def make_kernel_sdfg(name: str):
    """Resolve a kernel name: fundamental kernels (§6.1) and other
    ``*_sdfg`` factories in :mod:`repro.workloads.kernels` first, then
    the PolyBench registry."""
    from repro.workloads import kernels

    if name in kernels.KERNELS or hasattr(kernels, f"{name}_sdfg"):
        return getattr(kernels, f"{name}_sdfg")()
    from repro.workloads.polybench import get

    try:
        kernel = get(name)
    except KeyError as err:
        raise KeyError(
            f"unknown kernel {name!r}; see python -m repro.tune --list"
        ) from err
    return kernel.make_sdfg()


def list_kernels() -> List[str]:
    from repro.workloads import kernels
    from repro.workloads.polybench import all_kernels

    factories = {n[: -len("_sdfg")] for n in dir(kernels) if n.endswith("_sdfg")}
    return sorted(set(kernels.KERNELS) | factories | set(all_kernels()))


def run_tuning(args, kernel: Optional[str] = None) -> TuningResult:
    sdfg = make_kernel_sdfg(kernel or args.kernel)
    return tune(
        sdfg,
        cost=args.cost,
        strategy=args.strategy,
        depth=args.depth,
        beam_width=args.beam_width,
        budget=args.budget,
        machine=args.machine,
        cache_dir=args.cache_dir,
    )


def run_drift_retune(args) -> int:
    """``--if-drifted``: re-tune only the kernels flagged W901.

    Loads a saved telemetry snapshot, checks it against the stored
    benchmark baselines, invalidates the drifted kernels' tuning-cache
    entries (their cached histories were won under the old performance
    regime), and re-tunes each one.  Kernels that are not tunable by
    name are reported and skipped.
    """
    import json

    from repro.telemetry.regression import check_drift, load_baselines

    with open(args.if_drifted) as f:
        snapshot = json.load(f)
    baselines = load_baselines(args.baselines)
    drift = check_drift(snapshot, baselines)
    if not drift.drifts:
        print(
            f"no drifted kernels in {args.if_drifted} "
            f"({len(drift.checked)} checked, {len(drift.skipped)} skipped)"
        )
        return 0

    status = 0
    for d in drift.drifts:
        print(d.to_diagnostic().message if hasattr(d, "to_diagnostic") else d)
        try:
            sdfg = make_kernel_sdfg(d.kernel)
        except KeyError:
            print(f"  (not a tunable kernel; skipping {d.kernel!r})")
            continue
        if args.cache_dir:
            from repro.tuning import TuningCache

            cache = TuningCache(args.cache_dir)
            # Telemetry reports the serve-layer kernel name; cache entries
            # are keyed by the SDFG's own name — invalidate under both.
            removed = cache.invalidate(d.kernel)
            if sdfg.name != d.kernel:
                removed += cache.invalidate(sdfg.name)
            print(f"  invalidated {removed} cache entr{'y' if removed == 1 else 'ies'}")
        result = run_tuning(args, kernel=d.kernel)
        print(result.report.render())
        if args.report:
            path = f"{args.report}.{d.kernel}.json" if len(drift.drifts) > 1 else args.report
            result.report.save(path)
            print(f"saved tuning report to {path}", file=sys.stderr)
        if args.assert_improved and (
            result.best_score is None
            or result.baseline_score is None
            or result.best_score > result.baseline_score
        ):
            status = 1
    return status


def _compare(args, result: TuningResult) -> str:
    """Score naive vs tuned under measured + analytic providers."""
    from repro.tuning import AnalyticCost, MeasuredCost

    naive = make_kernel_sdfg(args.kernel)
    tuned = result.sdfg
    providers = [("measured[python]", MeasuredCost())] + [
        (f"analytic[{m}]", AnalyticCost(machine=m)) for m in ("cpu", "gpu", "fpga")
    ]
    lines = [
        f"naive vs tuned scores for {args.kernel!r} "
        f"(winner: {len(result.history)} transformation(s))",
        f"  {'provider':20s} {'naive':>14s} {'tuned':>14s} {'speedup':>9s}",
    ]
    for label, provider in providers:
        try:
            a = provider.score(naive)
            b = provider.score(tuned)
        except Exception as err:  # noqa: BLE001 - provider N/A for this kernel
            lines.append(f"  {label:20s} (unavailable: {type(err).__name__}: {err})")
            continue
        speedup = f"{a / b:9.2f}" if b > 0 else " " * 9
        lines.append(f"  {label:20s} {a:14.6g} {b:14.6g} {speedup}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Search transformation sequences for the best-scoring "
        "SDFG variant (cost-guided auto-tuning).",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=("run", "compare"),
        help="run: tune and print the trace; compare: tune, then score "
        "naive vs tuned across providers",
    )
    parser.add_argument(
        "kernel",
        nargs="?",
        help="kernel to tune (fundamental kernel or PolyBench name)",
    )
    parser.add_argument(
        "--cost",
        default="measured",
        choices=("measured", "analytic"),
        help="cost provider (default: measured)",
    )
    parser.add_argument(
        "--machine",
        default="cpu",
        choices=("cpu", "gpu", "fpga"),
        help="machine model for --cost analytic (default: cpu)",
    )
    parser.add_argument(
        "--strategy",
        default="greedy",
        choices=("greedy", "beam", "cutout"),
        help="search driver (default: greedy)",
    )
    parser.add_argument(
        "--cutout",
        action="store_true",
        help="shorthand for --strategy cutout (per-state cutout "
        "extraction, hash dedup, per-cutout search, stitch-back)",
    )
    parser.add_argument("--depth", type=int, default=4, help="max chain length")
    parser.add_argument(
        "--beam-width", type=int, default=3, help="beam width (--strategy beam)"
    )
    parser.add_argument(
        "--budget", type=int, default=48, help="max cost evaluations"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent tuning cache directory (content-addressed; "
        "repeated identical runs short-circuit the search)",
    )
    parser.add_argument(
        "--report", metavar="FILE", help="save the TuningReport as JSON"
    )
    parser.add_argument(
        "--assert-improved",
        action="store_true",
        help="exit 1 when the tuned variant scores worse than naive",
    )
    parser.add_argument(
        "--assert-cache-hit",
        action="store_true",
        help="exit 1 when the run was not served from the cache",
    )
    parser.add_argument(
        "--assert-dedup",
        action="store_true",
        help="exit 1 when cutout grouping deduplicated nothing",
    )
    parser.add_argument(
        "--if-drifted",
        metavar="SNAPSHOT",
        help="re-tune only kernels whose timings in this saved telemetry "
        "snapshot drifted past their baselines (W901), invalidating "
        "their cache entries first",
    )
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        metavar="PATH",
        help="baseline BENCH_*.json file or directory for --if-drifted "
        "(default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list tunable kernels and exit"
    )
    args = parser.parse_args(argv)
    if args.cutout:
        args.strategy = "cutout"

    if args.list:
        print("\n".join(list_kernels()))
        return 0
    if args.if_drifted:
        try:
            return run_drift_retune(args)
        except (OSError, ValueError, KeyError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    if not args.command or not args.kernel:
        parser.print_usage()
        return 2

    try:
        result = run_tuning(args)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 1

    print(result.report.render())
    if args.command == "compare":
        print()
        print(_compare(args, result))

    if args.report:
        result.report.save(args.report)
        print(f"saved tuning report to {args.report}", file=sys.stderr)

    status = 0
    if args.assert_cache_hit and not result.cache_hit:
        print("error: expected a tuning-cache hit, but the search ran",
              file=sys.stderr)
        status = 1
    if args.assert_dedup and not result.report.cutouts.get("deduplicated"):
        print(
            "error: expected cutout dedup to save at least one search "
            f"(cutouts section: {result.report.cutouts or '{}'})",
            file=sys.stderr,
        )
        status = 1
    if args.assert_improved and (
        result.best_score is None
        or result.baseline_score is None
        or result.best_score > result.baseline_score
    ):
        print(
            f"error: tuned score {result.best_score} is worse than naive "
            f"{result.baseline_score}",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

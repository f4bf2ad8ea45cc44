"""A/A check: does the benchmark agree with itself?

Runs two interleaved sets (A B A B …) of full untraced runs of this
checkout, every run on another seed, and prints per workload × metric
both medians, how much worse B's median is than A's, each set's spread
(interquartile distance over median), the bound, and PASS/FAIL:

    python3 bench/aa.py                 # 10 runs per set, all workloads
    python3 bench/aa.py --runs 5 --workload exec_calls

PASS needs the gap and both spreads inside the metric's bound
(``setup_s`` is judged on its gap alone).  The target is a gap under
half the bound and a spread under a third of it.  If a metric misses,
lengthen warm-up or passes before touching the bound.  Every run's
values also go to ``bench/out/aa.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import check_manifest, env  # noqa: E402 - needs the path above

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One untraced run; returns its result file's numbers (the four
    end-to-end metrics and what lies behind them, uncorrected)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    with open(os.path.join(env.OUT, f"{workload}.json")) as f:
        detail = json.load(f)
    return {k: v for k, v in detail.items() if isinstance(v, (int, float))}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    ap.add_argument("--workload", action="append",
                    help="limit to this workload (repeatable)")
    args = ap.parse_args()
    if args.runs < 5:
        ap.error("--runs must be at least 5")
    manifest = check_manifest.load()
    metrics = manifest["end_to_end"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]

    failed = False
    everything = {}
    print("| workload | metric | median A | median B | gap | spread A | spread B | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for i in range(2 * args.runs):
            sets["AB"[i % 2]].append(one_run(workload, i + 1, manifest["run_seconds"]))
            print(f"  {workload}: run {i + 1}/{2 * args.runs}", file=sys.stderr)
        everything[workload] = sets
        for m in metrics:
            a = [r[m["name"]] for r in sets["A"]]
            b = [r[m["name"]] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) if m["better"] == "lower" else (med_a - med_b)
            gap = worse / med_a
            spreads = (spread(a), spread(b))
            ok = gap <= m["bound"] and (
                m["name"] == "setup_s" or max(spreads) <= m["bound"])
            failed |= not ok
            print(f"| {workload} | {m['name']} ({m['unit']}) | {med_a:.4f} | {med_b:.4f} "
                  f"| {gap:+.2%} | {spreads[0]:.2%} | {spreads[1]:.2%} "
                  f"| {m['bound']:.0%} | {'PASS' if ok else 'FAIL'} |", flush=True)
    with open(os.path.join(env.OUT, "aa.json"), "w") as f:
        json.dump(everything, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

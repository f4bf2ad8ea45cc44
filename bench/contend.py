"""Contention experiment: what do busy neighbours do to each clock?

Runs every workload once on the machine as it is and once beside two
busy-loop processes (one per core of the reference box), and prints
how ``cpu_ms`` (the gated, machine-speed-corrected number), the raw CPU
per op behind it and the wall time per op moved:

    python3 bench/contend.py

This is the evidence for timing with the tree-CPU clock; the table it
printed on the reference box is in README.md.
"""

from __future__ import annotations

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import aa, check_manifest  # noqa: E402 - needs the path above

NEIGHBOURS = 2


def one_run(workload: str, seconds: int):
    detail = aa.one_run(workload, 1, seconds)
    return detail["cpu_ms"], detail["raw_cpu_ms"], 1e3 / detail["ops_per_wall_s"]


def main() -> int:
    manifest = check_manifest.load()
    print("| workload | cpu_ms alone | beside neighbours | change | raw CPU/op change | wall/op change |")
    print("|---|---|---|---|---|---|")
    for w in manifest["workloads"]:
        quiet = one_run(w["name"], manifest["run_seconds"])
        neighbours = [
            subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range(NEIGHBOURS)
        ]
        try:
            busy = one_run(w["name"], manifest["run_seconds"])
        finally:
            for n in neighbours:
                n.kill()
            for n in neighbours:
                n.wait()
        change = [b / q - 1 for q, b in zip(quiet, busy)]
        print(f"| {w['name']} | {quiet[0]:.3f} | {busy[0]:.3f} | {change[0]:+.1%} "
              f"| {change[1]:+.1%} | {change[2]:+.1%} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

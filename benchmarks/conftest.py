"""Shared helpers for the reproduction benchmarks.

Each ``test_fig*``/``test_table*`` module regenerates one figure or
table of the paper (see DESIGN.md §3 for the index).  Wall-clock
benchmarks measure the Python/NumPy backend on this machine; GPU/FPGA
results come from the machine models (DESIGN.md §1) and are attached to
the benchmark records as ``extra_info['modeled_ms']``.

Run with::

    pytest benchmarks/ --benchmark-only

A results summary usable for EXPERIMENTS.md is printed per module.
"""

import os

import numpy as np
import pytest


def maybe_dump_report(compiled, name: str) -> None:
    """Write the last instrumentation report of ``compiled`` next to the
    benchmark results when ``REPRO_BENCH_REPORTS`` names a directory.

    Benchmarks call this after running an instrumented (or
    ``REPRO_PROFILE=1``) kernel; with the variable unset this is free.
    """
    target = os.environ.get("REPRO_BENCH_REPORTS", "")
    report = getattr(compiled, "last_report", None)
    if not target or report is None:
        return
    os.makedirs(target, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    report.save(os.path.join(target, f"{safe}.json"))


def run_once(benchmark, fn, *args, rounds=1, **kwargs):
    """Benchmark with minimal repetitions (kernels are deterministic and
    the suite covers 30+ kernels x several roles)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=rounds,
                              iterations=1, warmup_rounds=0)


def mean_seconds(benchmark):
    """The mean time of ``benchmark``'s rounds, or None when timing is
    off: under ``--benchmark-disable`` the fixture runs the function
    once and keeps no stats, so a benchmark module still runs as a
    correctness test."""
    return None if benchmark.stats is None else benchmark.stats.stats.mean


@pytest.fixture(scope="session")
def results_table():
    """Session-scoped accumulator: modules append (figure, kernel, role,
    seconds) rows; the final fixture teardown prints the timed ones."""
    rows = []
    yield rows
    rows = [row for row in rows if row[3] is not None]
    if rows:
        print("\n=== reproduction results (paper figure, kernel, role, time[s]) ===")
        for fig, kernel, role, secs in rows:
            print(f"{fig:12s} {kernel:16s} {role:22s} {secs:12.6f}")


def geomean(values):
    values = np.asarray(list(values), dtype=float)
    return float(np.exp(np.log(values).mean()))

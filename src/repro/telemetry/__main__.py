"""Telemetry CLI: live dashboard, snapshots, and regression checks.

::

    python -m repro.telemetry snapshot --socket /tmp/repro.sock --json
    python -m repro.telemetry watch    --socket /tmp/repro.sock
    python -m repro.telemetry check    --socket /tmp/repro.sock \\
        --baselines benchmarks/baselines --fail-on-drift

``snapshot`` fetches one aggregate from a live daemon's ``metrics``
endpoint; ``watch`` refreshes it as a text dashboard; ``check`` compares
the merged kernel timings against stored ``BENCH_*.json`` baselines and
prints ``W901`` / ``W902`` diagnostics.  ``check`` also accepts
``--snapshot FILE`` to run offline against a saved ``snapshot --json``
payload (the CI job does both).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.telemetry.aggregate import (
    merge_cache_counters,
    merge_tenant_counters,
)
from repro.telemetry.regression import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_THRESHOLD,
    check_drift,
    load_baselines,
)


# ------------------------------------------------------------------ fetching
def fetch_snapshot(socket_path: str, timeout: float = 30.0) -> Dict[str, Any]:
    """One ``metrics`` round-trip against a live daemon."""
    from repro.serve.client import ServeClient, ServeError

    with ServeClient(socket_path=socket_path, timeout=timeout) as client:
        response = client.metrics()
    if response.get("status") != "ok":
        raise ServeError(response)
    metrics = response.get("metrics")
    if not isinstance(metrics, dict):
        raise RuntimeError("daemon returned no metrics payload "
                           "(telemetry disabled? start without --no-telemetry)")
    return metrics


def _load_snapshot(args: argparse.Namespace) -> Dict[str, Any]:
    if getattr(args, "snapshot", None):
        with open(args.snapshot) as f:
            return json.load(f)
    if not args.socket:
        raise SystemExit("pass --socket PATH (live daemon) or --snapshot FILE")
    return fetch_snapshot(args.socket, timeout=args.timeout)


# ----------------------------------------------------------------- rendering
def _fmt_ms(value: Optional[float]) -> str:
    return f"{value * 1e3:9.3f}" if isinstance(value, (int, float)) else "        -"


def render_dashboard(snapshot: Dict[str, Any], top: int = 10) -> str:
    """Plain-text dashboard of one aggregate snapshot."""
    lines: List[str] = []
    totals = snapshot.get("totals", {})
    sink = snapshot.get("sink", {})
    lines.append(
        f"telemetry: {totals.get('events', 0)} events in "
        f"{totals.get('windows', 0)} window(s) of "
        f"{snapshot.get('window_seconds', '?')}s | dropped "
        f"{totals.get('dropped', 0)} | skewed {totals.get('skewed', 0)} | "
        f"ring {sink.get('resident', 0)}/{sink.get('capacity', 0)}"
    )
    kernels = snapshot.get("kernels", {})
    if kernels:
        lines.append("")
        lines.append(f"{'kernel':<28} {'count':>6} {'p50 ms':>9} "
                     f"{'p95 ms':>9} {'p99 ms':>9} {'max ms':>9} {'warm':>5}")
        for name, stats in sorted(
            kernels.items(), key=lambda kv: -(kv[1].get("count") or 0)
        )[:top]:
            lines.append(
                f"{name:<28.28} {stats.get('count', 0):>6} "
                f"{_fmt_ms(stats.get('p50'))} {_fmt_ms(stats.get('p95'))} "
                f"{_fmt_ms(stats.get('p99'))} {_fmt_ms(stats.get('max'))} "
                f"{stats.get('warm', 0):>5}"
            )
    tenants = merge_tenant_counters(snapshot)
    if tenants:
        lines.append("")
        lines.append(f"{'tenant':<16} {'requests':>8} {'ok':>6} "
                     f"{'rejected':>8} {'errors':>6}")
        for tenant, counters in sorted(tenants.items()):
            lines.append(
                f"{tenant:<16.16} {counters.get('requests', 0):>8} "
                f"{counters.get('ok', 0):>6} {counters.get('rejected', 0):>8} "
                f"{counters.get('errors', 0):>6}"
            )
    caches = merge_cache_counters(snapshot)
    if caches:
        lines.append("")
        lines.append(f"{'cache':<24} {'hit':>6} {'miss':>6} "
                     f"{'store':>6} {'hit rate':>8}")
        for name, counters in sorted(caches.items()):
            rate = counters.get("hit_rate")
            lines.append(
                f"{name:<24.24} {counters.get('hit', 0):>6} "
                f"{counters.get('miss', 0):>6} {counters.get('store', 0):>6} "
                f"{rate if rate is None else format(rate, '8.2%')}"
            )
    tuning = snapshot.get("tuning", {})
    if tuning:
        lines.append("")
        lines.append(f"{'tuning':<34} {'cand':>6} {'acc':>5} {'rej':>5} "
                     f"{'events':>6} {'sec':>10}")
        for label, counters in sorted(tuning.items()):
            lines.append(
                f"{label:<34.34} {int(counters.get('candidates', 0)):>6} "
                f"{int(counters.get('accepted', 0)):>5} "
                f"{int(counters.get('rejected', 0)):>5} "
                f"{int(counters.get('events', 0)):>6} "
                f"{counters.get('seconds', 0.0):>10.4f}"
            )
    exemplar = snapshot.get("exemplar")
    if exemplar:
        lines.append("")
        lines.append(
            f"slowest traced request: {exemplar.get('kernel', '?')} "
            f"{_fmt_ms(exemplar.get('seconds')).strip()} ms "
            f"(tenant {exemplar.get('tenant', '?')}, "
            f"backend {exemplar.get('backend', '?')})"
        )
        report = exemplar.get("report")
        if isinstance(report, dict):
            try:
                from repro.instrumentation import InstrumentationReport

                rendered = InstrumentationReport.from_json(report).render()
                for line in rendered.splitlines()[:12]:
                    lines.append(f"  {line}")
            except (ValueError, KeyError, TypeError):
                pass
    breakers = snapshot.get("breaker_states", {})
    if breakers:
        lines.append("")
        lines.append("breakers: " + ", ".join(
            f"{key}={state}" for key, state in sorted(breakers.items())
        ))
    windows = snapshot.get("windows", [])
    if windows:
        hot = windows[0].get("hotspots", {}).get("by_time", [])[:top]
        if hot:
            lines.append("")
            lines.append("hot spots (current window, by time):")
            for entry in hot:
                lines.append(
                    f"  {entry.get('element', '?'):<40.40} "
                    f"{_fmt_ms(entry.get('seconds'))} ms"
                )
    return "\n".join(lines)


# ---------------------------------------------------------------- subcommands
def cmd_snapshot(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args)
    if args.json:
        json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_dashboard(snapshot, top=args.top))
    if args.assert_traffic:
        tenants = merge_tenant_counters(snapshot)
        requests = sum(c.get("requests", 0) for c in tenants.values())
        caches = merge_cache_counters(snapshot)
        hits = sum(c.get("hit", 0) for c in caches.values())
        problems = []
        if requests <= 0:
            problems.append("no per-tenant request counters")
        if hits <= 0:
            problems.append("no cache hits recorded")
        if not snapshot.get("kernels"):
            problems.append("no kernel timings recorded")
        if problems:
            print("assert-traffic FAILED: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        print(f"assert-traffic OK: {requests} request(s), {hits} cache "
              f"hit(s), {len(snapshot['kernels'])} kernel(s)",
              file=sys.stderr)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    iteration = 0
    while True:
        iteration += 1
        try:
            snapshot = fetch_snapshot(args.socket, timeout=args.timeout)
        except (ConnectionError, OSError) as err:
            print(f"[watch] daemon unreachable: {err}", file=sys.stderr)
            return 1
        if not args.no_clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(f"== repro.telemetry watch  (refresh {args.interval:g}s, "
              f"iteration {iteration}) ==")
        print(render_dashboard(snapshot, top=args.top))
        sys.stdout.flush()
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)


def cmd_check(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args)
    baselines = load_baselines(*args.baselines)
    report = check_drift(
        snapshot,
        baselines,
        threshold=args.threshold,
        min_samples=args.min_samples,
    )
    if args.json:
        json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for diag in report.diagnostics():
            print(str(diag))
        print(
            f"check: {len(report.checked)} kernel(s) against "
            f"{len(baselines)} baseline(s) -> {len(report.drifts)} drift(s), "
            f"{len(report.missing)} missing baseline(s), "
            f"{len(report.skipped)} skipped (under --min-samples)"
        )
    failed = (report.drifts and args.fail_on_drift) or (
        report.missing and args.fail_on_missing
    )
    return 1 if failed else 0


# ----------------------------------------------------------------------- main
def _add_source_args(parser: argparse.ArgumentParser, snapshot_file: bool):
    parser.add_argument("--socket", help="daemon Unix socket path")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="socket timeout in seconds (default 30)")
    if snapshot_file:
        parser.add_argument("--snapshot", metavar="FILE",
                            help="read a saved `snapshot --json` payload "
                                 "instead of querying a daemon")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.telemetry",
        description="Fleet telemetry: snapshots, live dashboard, and "
                    "performance-regression checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    snap = sub.add_parser("snapshot", help="fetch one aggregate snapshot")
    _add_source_args(snap, snapshot_file=True)
    snap.add_argument("--json", action="store_true",
                      help="print the raw snapshot JSON")
    snap.add_argument("--top", type=int, default=10,
                      help="rows per dashboard table (default 10)")
    snap.add_argument("--assert-traffic", action="store_true",
                      help="exit 1 unless the snapshot shows request, "
                           "cache-hit, and kernel activity (CI)")
    snap.set_defaults(func=cmd_snapshot)

    watch = sub.add_parser("watch", help="live text dashboard")
    _add_source_args(watch, snapshot_file=False)
    watch.add_argument("--interval", type=float, default=2.0,
                       help="refresh period in seconds (default 2)")
    watch.add_argument("--iterations", type=int, default=0,
                       help="stop after N refreshes (default: forever)")
    watch.add_argument("--top", type=int, default=10)
    watch.add_argument("--no-clear", action="store_true",
                       help="do not clear the screen between refreshes")
    watch.set_defaults(func=cmd_watch)

    check = sub.add_parser(
        "check", help="compare kernel timings against stored baselines"
    )
    _add_source_args(check, snapshot_file=True)
    check.add_argument("--baselines", nargs="+", required=True,
                       metavar="PATH",
                       help="BENCH_*.json files and/or directories of them")
    check.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       help="drift ratio that fires W901 "
                            f"(default {DEFAULT_THRESHOLD:g}x)")
    check.add_argument("--min-samples", type=int, default=DEFAULT_MIN_SAMPLES,
                       help="observations required before a kernel is "
                            f"judged (default {DEFAULT_MIN_SAMPLES})")
    check.add_argument("--fail-on-drift", action="store_true",
                       help="exit 1 when any W901 fires")
    check.add_argument("--fail-on-missing", action="store_true",
                       help="exit 1 when any observed kernel lacks a "
                            "baseline (W902)")
    check.add_argument("--json", action="store_true",
                       help="print the drift report as JSON")
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

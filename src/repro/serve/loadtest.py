"""Load / fault-tolerance driver for the service (CI + benchmarks).

Drives an :class:`~repro.serve.daemon.SDFGServer` — embedded by default,
or an already-running one via ``--socket`` — with a mix of:

* **warm** requests: every thread executes the same scale kernel, so all
  but the first hit per worker are served from the warm artifact LRU;
* **cold** requests: each one a never-seen-before program (distinct
  tasklet constant), forcing the full validate→compile→execute path;
* **fault** requests (optional): ``inject_fault: segv`` from a dedicated
  tenant, killing a pool worker mid-request;
* **deadline** requests (optional): an unbounded interstate loop from a
  dedicated tenant, which only the cooperative watchdog can end.

The run *fails* (nonzero exit) if any healthy request fails, if a fault
escapes its tenant, or if the daemon stops answering pings.  Latency
percentiles land in ``BENCH_serve.json``-style output.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.serve.client import ServeClient, ServeTimeout


# ------------------------------------------------------------- kernels
def scale_sdfg(mult: float = 2.0, name: str = "serve_scale", work: int = 1):
    """``A[i] *= mult`` — the workhorse request kernel.

    ``work > 1`` pads the tasklet with value-preserving ``b = b * 1.0``
    statements: the result is unchanged (drivers still verify
    ``a * mult``), but each element costs ``work`` multiplies.  The CI
    telemetry job uses this to inject a genuine slowdown that the
    perf-drift detector must catch.  (Statements, not one long
    expression — a deep BinOp chain would overflow the interpreter's
    recursion limit.)
    """
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG(name)
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state()
    code = f"b = a * {float(mult)!r}"
    code += "\nb = b * 1.0" * max(0, int(work) - 1)
    st.add_mapped_tasklet(
        "s",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code=code,
        outputs={"b": Memlet.simple("A", "i")},
    )
    return sdfg


def runaway_sdfg():
    """An interstate loop that never advances: only a watchdog deadline
    (R805) can end it."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("serve_runaway")
    sdfg.add_array("A", ("N",), dtypes.float64)
    body = sdfg.add_state("body")
    body.add_mapped_tasklet(
        "touch",
        {"k": "0:1"},
        inputs={"a": Memlet.simple("A", "0")},
        code="b = a + 1.0",
        outputs={"b": Memlet.simple("A", "0")},
    )
    before = sdfg.add_state("init", is_start=True)
    sdfg.add_loop(before, body, None, "it", 0, "it < N", "it")  # it never grows
    return sdfg


def percentile(samples: List[float], q: float) -> Optional[float]:
    if not samples:
        return None
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


# ------------------------------------------------------------ the drive
class LoadtestResult:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: List[Dict[str, Any]] = []
        self.failures: List[str] = []

    def add(self, kind: str, tenant: str, status: str, code: Optional[str],
            latency: float, **extra: Any) -> None:
        with self.lock:
            self.records.append(
                {"kind": kind, "tenant": tenant, "status": status,
                 "code": code, "latency": latency, **extra}
            )

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)


def _drive_thread(
    index: int,
    connect,
    plan: List[Dict[str, Any]],
    result: LoadtestResult,
    chaos: bool = False,
) -> None:
    try:
        client = connect()
    except OSError as err:
        result.fail(f"thread {index}: could not connect: {err}")
        return
    rng = np.random.default_rng(1000 + index)
    with client:
        for step in plan:
            kind = step["kind"]
            tenant = step["tenant"]
            start = time.monotonic()
            try:
                if kind in ("warm", "cold"):
                    n = int(step.get("n", 64))
                    a = rng.random(n)
                    expect = a * step["mult"]
                    resp = client.execute(
                        step["sdfg"], arrays={"A": a}, symbols={"N": n},
                        tenant=tenant, strict=False, deadline=20.0,
                    )
                    if resp.get("status") != "ok":
                        # Under a chaos schedule structured failures are
                        # *expected*; the invariant is that every answer
                        # is structured (has a code), and every ok
                        # answer is numerically correct.
                        if not (chaos and resp.get("code")):
                            result.fail(
                                f"{kind} request for {tenant} failed: "
                                f"{resp.get('code')} {resp.get('message')}"
                            )
                    elif not np.allclose(resp["arrays"]["A"], expect):
                        result.fail(f"{kind} request for {tenant}: wrong results")
                elif kind == "fault":
                    resp = client.execute(
                        step["sdfg"], arrays={}, symbols={"N": 1},
                        tenant=tenant, strict=False, deadline=10.0,
                        inject_fault="segv",
                    )
                    if resp.get("status") == "ok":
                        result.fail(
                            f"fault request for {tenant} reported ok; "
                            "the injected crash was lost"
                        )
                elif kind == "deadline":
                    resp = client.execute(
                        step["sdfg"], arrays={"A": np.zeros(4)},
                        symbols={"N": 4}, tenant=tenant, strict=False,
                        deadline=step.get("deadline", 0.5),
                    )
                    if resp.get("status") == "ok":
                        result.fail(
                            f"deadline request for {tenant} reported ok; "
                            "the watchdog never fired"
                        )
                else:  # pragma: no cover - defensive
                    continue
            except ServeTimeout as err:
                # The client-side deadline is the hang detector: a
                # request the daemon never answered is always a failure,
                # chaos schedule or not.
                result.fail(f"{kind} request for {tenant}: {err}")
                return
            except (OSError, ConnectionError) as err:
                result.fail(f"{kind} request for {tenant}: connection died: {err}")
                return
            result.add(
                kind, tenant, resp.get("status", "error"),
                resp.get("code"), time.monotonic() - start,
                kernel=step.get("kernel"),
                runtime=resp.get("runtime"),
                warm=resp.get("warm"),
                cache_hit=resp.get("cache_hit"),
            )


def run_loadtest(
    socket_path: Optional[str] = None,
    requests: int = 200,
    threads: int = 4,
    tenants: tuple = ("alice", "bob"),
    cold_every: int = 10,
    faults: int = 0,
    fault_tenant: str = "mallory",
    deadline_faults: int = 0,
    deadline_tenant: str = "slowpoke",
    workers: int = 2,
    warm_n: int = 64,
    warm_work: int = 1,
    output: Optional[str] = None,
    chaos: bool = False,
    read_timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the drive; returns the report dict (see module docstring)."""
    server = None
    if socket_path is None:
        from repro.runtime.watchdog import RetryPolicy
        from repro.serve.admission import TenantPolicy
        from repro.serve.daemon import SDFGServer, ServeConfig

        server = SDFGServer(ServeConfig(
            workers=workers,
            fault_injection=faults > 0,
            default_policy=TenantPolicy(
                max_inflight=max(8, threads * 2),
                breaker_threshold=3,
                breaker_cooldown=5.0,
            ),
            retry=RetryPolicy(retries=1, backoff=0.02, jitter=0.5),
        )).start()
        socket_path = server.config.socket_path

    result = LoadtestResult()
    try:
        # Build the request plans up front so threads stay in lockstep
        # with nothing but the service between them and the answer.
        warm = {
            t: scale_sdfg(2.0, name=f"warm_{t}", work=warm_work).to_json()
            for t in tenants
        }
        hog = runaway_sdfg().to_json() if deadline_faults else None
        crash = scale_sdfg(3.0, name="crash_vehicle").to_json() if faults else None
        cold_ids = itertools.count(1)

        plans: List[List[Dict[str, Any]]] = [[] for _ in range(threads)]
        for i in range(requests):
            tenant = tenants[i % len(tenants)]
            if cold_every and i % cold_every == cold_every - 1:
                k = next(cold_ids)
                mult = 1.0 + (k % 97) / 97.0
                step = {
                    "kind": "cold", "tenant": tenant, "mult": mult,
                    "kernel": f"cold_{k}",
                    "sdfg": scale_sdfg(mult, name=f"cold_{k}").to_json(),
                }
            else:
                step = {"kind": "warm", "tenant": tenant, "mult": 2.0,
                        "kernel": f"warm_{tenant}", "n": warm_n,
                        "sdfg": warm[tenant]}
            plans[i % threads].append(step)
        # Faults interleave with healthy traffic: insert mid-plan so the
        # pool takes hits while warm requests are in flight.
        for j in range(faults):
            plan = plans[j % threads]
            plan.insert(len(plan) // 2,
                        {"kind": "fault", "tenant": fault_tenant, "sdfg": crash})
        for j in range(deadline_faults):
            plan = plans[j % threads]
            plan.insert(len(plan) // 2,
                        {"kind": "deadline", "tenant": deadline_tenant,
                         "sdfg": hog, "deadline": 0.5})

        connect = lambda: ServeClient(  # noqa: E731
            socket_path=socket_path, read_timeout=read_timeout)
        started = time.monotonic()
        pool = [
            threading.Thread(target=_drive_thread,
                             args=(i, connect, plans[i], result, chaos),
                             daemon=True)
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=600.0)
            if t.is_alive():
                result.fail("driver thread hung")
        wall = time.monotonic() - started

        # The daemon must still be alive and answering.
        stats: Dict[str, Any] = {}
        try:
            with connect() as probe:
                pong = probe.ping()
                if pong.get("status") != "ok":
                    result.fail(f"post-run ping failed: {pong}")
                stats = probe.stats()
        except (OSError, ConnectionError) as err:
            result.fail(f"daemon unreachable after the run: {err}")
    finally:
        if server is not None:
            server.stop()

    by_kind: Dict[str, List[float]] = {}
    for rec in result.records:
        by_kind.setdefault(rec["kind"], []).append(rec["latency"])
    healthy = [r for r in result.records if r["kind"] in ("warm", "cold")]

    # Per-kernel worker-reported runtimes (the execute wall clock inside
    # the worker, i.e. the same measurement the telemetry aggregator
    # windows) — these are the baseline fields `repro.telemetry check`
    # compares live traffic against.  One-shot cold kernels are omitted:
    # a single sample is not a baseline.
    by_kernel: Dict[str, List[float]] = {}
    for rec in healthy:
        if rec["status"] == "ok" and rec.get("kernel") and rec.get("runtime") is not None:
            by_kernel.setdefault(rec["kernel"], []).append(float(rec["runtime"]))
    kernels = {
        name: {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "p50": percentile(samples, 50),
            "p95": percentile(samples, 95),
            "p99": percentile(samples, 99),
        }
        for name, samples in sorted(by_kernel.items())
        if len(samples) >= 2
    }
    artifact_hits = sum(1 for r in healthy if r.get("warm"))
    progcache_hits = sum(1 for r in healthy if r.get("cache_hit"))
    report = {
        "bench": "serve",
        "requests": len(result.records),
        "threads": threads,
        "workers": workers,
        "wall_seconds": round(wall, 6),
        "throughput_rps": round(len(result.records) / wall, 3) if wall else None,
        "healthy": {
            "total": len(healthy),
            "ok": sum(1 for r in healthy if r["status"] == "ok"),
            "errors": sum(1 for r in healthy if r["status"] == "error"),
            "rejected": sum(1 for r in healthy if r["status"] == "rejected"),
        },
        "cache": {
            "artifact_hits": artifact_hits,
            "artifact_hit_rate": (
                round(artifact_hits / len(healthy), 6) if healthy else None
            ),
            "progcache_hits": progcache_hits,
        },
        "kernels": kernels,
        "faults": {
            "injected": faults,
            "deadline": deadline_faults,
            "codes": sorted(
                {r["code"] for r in result.records
                 if r["kind"] in ("fault", "deadline") and r["code"]}
            ),
        },
        "latency": {
            kind: {
                "count": len(samples),
                "p50": percentile(samples, 50),
                "p99": percentile(samples, 99),
                "max": max(samples),
            }
            for kind, samples in sorted(by_kind.items())
        },
        "pool": (stats or {}).get("pool"),
        "admission": (stats or {}).get("admission"),
        "failures": result.failures,
        "passed": not result.failures,
    }
    if output:
        with open(output, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadtest",
        description="drive the compile-and-execute service with mixed load",
    )
    parser.add_argument("--socket", default=None,
                        help="target an already-running daemon (default: embed one)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size for the embedded daemon")
    parser.add_argument("--cold-every", type=int, default=10,
                        help="every Nth request is a never-seen program")
    parser.add_argument("--faults", type=int, default=0,
                        help="forced-SIGSEGV requests from tenant 'mallory'")
    parser.add_argument("--deadline-faults", type=int, default=0,
                        help="runaway-loop requests from tenant 'slowpoke'")
    parser.add_argument("--warm-n", type=int, default=64, metavar="N",
                        help="array size of the warm kernels (default 64)")
    parser.add_argument("--warm-work", type=int, default=1, metavar="W",
                        help="value-preserving work multiplier inside the "
                             "warm kernels (default 1; CI uses this to "
                             "inject a slowdown)")
    parser.add_argument("--output", default=None, metavar="JSON",
                        help="write the report here (BENCH_serve.json)")
    args = parser.parse_args(argv)

    report = run_loadtest(
        socket_path=args.socket,
        requests=args.requests,
        threads=args.threads,
        workers=args.workers,
        cold_every=args.cold_every,
        faults=args.faults,
        deadline_faults=args.deadline_faults,
        warm_n=args.warm_n,
        warm_work=args.warm_work,
        output=args.output,
    )
    summary = {k: report[k] for k in
               ("requests", "wall_seconds", "throughput_rps", "healthy",
                "cache", "kernels", "faults", "latency", "passed")}
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not report["passed"]:
        for failure in report["failures"][:20]:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

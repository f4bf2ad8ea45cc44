"""The five workloads.

Each is a closed loop over a fixed op list: a *pass* executes every op
once, in an order the harness shuffled once from the seed.  A workload
builds its programs, inputs and references in ``setup``; ``begin_pass``
is the untimed preparation of one pass (fresh input copies, cleared
memo tables, unique cold programs); ``run_op`` is the measured call
sequence; ``check`` compares what the op produced with an independent
reference, outside the timed region.

``PASSES`` is the number of timed passes at the manifest's
``run_seconds``, sized on the 2-core reference box so the timed window
burns about that many CPU seconds; ``WARMUP`` passes run first and
belong to set-up (they also make set-up long enough — about 3 s — that
an import wobble stays well inside the ``setup_s`` bound).

Why these five — which layer each loads and which it bypasses — is in
README.md.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench import clock, programs
from bench.spans import Tracer


class Outcome:
    """What one op did: ``ok`` means it raised nothing, took no
    degradation hop and was not refused; ``ms`` is its per-op sample."""

    __slots__ = ("index", "ok", "ms", "output", "error")

    def __init__(self, index: int, ok: bool, ms: float, output: Any,
                 error: Optional[str] = None):
        self.index = index
        self.ok = ok
        self.ms = ms
        self.output = output
        self.error = error


class Workload:
    name = ""
    PASSES = 0
    WARMUP = 0
    #: Fewer timed passes than this and the median stops meaning much.
    MIN_PASSES = 20
    #: Calibration units (3 ms each) timed right before and right after
    #: every pass, on top of the ticks between its ops.
    BRACKET_UNITS = 1
    #: Clock behind ``Outcome.ms`` (the per-op-kind rows).
    OP_CLOCK = staticmethod(time.process_time)

    def __init__(self, seed: int, scratch: str, tracer: Tracer):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.tracer = tracer
        self.calibrator = clock.Calibrator()
        #: One label per op of a pass (its kind, for the per-kind rows).
        self.ops: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def begin_pass(self) -> None:
        pass

    def run_op(self, index: int) -> Tuple[bool, Any]:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> bool:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    # One driver thread; serve_mixed overrides this with two.
    def run_pass(self, order: List[int]) -> List[Outcome]:
        outcomes = []
        for i in order:
            self.calibrator.tick()
            outcomes.append(self._timed_op(i))
        return outcomes

    def _timed_op(self, index: int, *args) -> Outcome:
        clock = self.OP_CLOCK
        t0 = clock()
        try:
            with self.tracer.span("op", self.ops[index]):
                ok, output = self.run_op(index, *args)
            error = None
        except Exception:  # noqa: BLE001 - a failed op is a counted result
            ok, output, error = False, None, traceback.format_exc()
        return Outcome(index, ok, (clock() - t0) * 1e3, output, error)


# ===================================================================== compile
class CompileCorpus(Workload):
    """``make_sdfg()`` + ``compile_sdfg(cache="off")`` over 36 programs,
    the symbolic memo cleared before every pass so each pass is a fresh
    worker's first sight of the corpus."""

    name = "compile_corpus"
    PASSES = 25
    WARMUP = 5

    def setup(self) -> None:
        self.programs = programs.corpus(self.seed, self.rng)
        self.ops = [p.name for p in self.programs]

    def begin_pass(self) -> None:
        from repro.symbolic import memo

        memo.clear()

    def run_op(self, index: int):
        from repro.codegen import compile_sdfg

        with self.tracer.span("frontend.build", self.ops[index]):
            sdfg = self.programs[index].make_sdfg()
        with self.tracer.span("codegen.compile", self.ops[index]):
            compiled = compile_sdfg(sdfg, cache="off")
        return not compiled.degradation, compiled

    def check(self, index: int, compiled) -> bool:
        got = self.programs[index].fresh()
        compiled(**got)
        return not compiled.degradation and self.programs[index].verify(got)


# ======================================================================== exec
class _Exec(Workload):
    """Steady-state calls of precompiled programs on a fresh, untimed
    copy of the inputs."""

    #: Calls of each program per pass.
    ROUNDS = 1

    def _programs(self) -> List[programs.Program]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.codegen import compile_sdfg

        once = self._programs()
        self.artifacts = [compile_sdfg(p.make_sdfg(), cache="off") for p in once]
        self.programs = once * self.ROUNDS
        self.compiled = self.artifacts * self.ROUNDS
        self.ops = [p.name for p in self.programs]
        self.args: List[Dict[str, Any]] = []

    def begin_pass(self) -> None:
        self.args.clear()  # or two passes' arrays are alive at once
        self.args.extend(p.fresh() for p in self.programs)

    def run_op(self, index: int):
        compiled = self.compiled[index]
        with self.tracer.span("runtime.call", self.ops[index]):
            compiled(**self.args[index])
        return not compiled.degradation, self.args[index]

    def check(self, index: int, got) -> bool:
        return self.programs[index].verify(got)

    def teardown(self) -> None:
        for compiled in getattr(self, "artifacts", ()):
            compiled.close()


class ExecKernels(_Exec):
    """The paper's Fig. 14 kernels at sizes where array work dominates:
    generated-code quality decides it, marshaling is noise."""

    name = "exec_kernels"
    PASSES = 75
    WARMUP = 14

    def _programs(self):
        return programs.kernel_programs(self.seed, programs.LARGE, optimize=True)


class ExecCalls(_Exec):
    """The 30 PolyBench programs at registry bench sizes (0.2-5 ms per
    call): the same layer used the other way round — argument
    marshaling, symbol inference and state dispatch dominate."""

    name = "exec_calls"
    PASSES = 125
    WARMUP = 25
    #: Two calls of each program per pass: a 38 ms pass would spend a
    #: third of the run on what happens between passes.
    ROUNDS = 2

    def _programs(self):
        return programs.polybench_programs(self.rng)


# ======================================================================= serve
class ServeMixed(Workload):
    """An embedded daemon with one worker, driven by two client threads
    as two tenants.  A pass is 100 requests: 88 warm ``execute`` by
    program key with arrays by value, 10 cold ``execute`` carrying the
    body of a program the daemon has never hashed, 2 ``metrics``."""

    name = "serve_mixed"
    PASSES = 22
    WARMUP = 5
    BRACKET_UNITS = 6  # no ticks inside the pass, see run_pass
    #: Both client threads and the daemon's handler threads live in this
    #: process, so a per-op CPU sample would mix them: the rows carry the
    #: client-felt wall time instead.
    OP_CLOCK = staticmethod(time.perf_counter)
    TENANTS = ("tenant0", "tenant1")
    WARM, COLD, METRICS = 88, 10, 2
    COLD_N = 256

    def setup(self) -> None:
        import os

        from repro.serve.client import ServeClient
        from repro.serve.daemon import SDFGServer, ServeConfig

        self.programs = programs.polybench_programs(self.rng, programs.SERVE_PROGRAMS)
        # Equal shares of the eight programs: their calls cost 2-6 ms, so
        # a drawn mix would move the pass by several percent per seed.
        self.warm_index = [i % len(self.programs) for i in range(self.WARM)]
        self.ops = (
            [self.programs[i].name for i in self.warm_index]
            + ["cold"] * self.COLD + ["metrics"] * self.METRICS
        )
        self.cold_input = self.rng.random(self.COLD_N)

        t0 = time.perf_counter()
        with self.tracer.span("serve.boot"):
            self.server = SDFGServer(ServeConfig(
                workers=1,
                recycle_after=10**9,
                cache_root=os.path.join(self.scratch, "serve-cache"),
                socket_path=os.path.join(self.scratch, "serve.sock"),
            )).start()
            self.clients = [
                ServeClient(socket_path=self.server.config.socket_path, tenant=t)
                for t in self.TENANTS
            ]
            self.clients[0].ping()
        self.boot_s = time.perf_counter() - t0
        # Every tenant compiles the warm programs once: artifacts are
        # namespaced per tenant, and the requests below go by key.
        self.keys: List[Dict[str, str]] = []
        for client in self.clients:
            self.keys.append({
                p.name: client.compile(p.make_sdfg())["program"]
                for p in self.programs
            })
        self.cold: List[Tuple[float, Any]] = []
        self.counts = {"rejected": 0, "errors": 0, "resent": 0}
        self._counts_lock = threading.Lock()

    def begin_pass(self) -> None:
        from repro.serve.loadtest import scale_sdfg

        # Unique constants, so no cold body was ever hashed before.
        self.cold = [
            (m, scale_sdfg(mult=m, name="cold"))
            for m in 1.0 + self.rng.random(self.COLD)
        ]

    def run_pass(self, order: List[int]) -> List[Outcome]:
        halves: List[List[Outcome]] = [[], []]

        # No calibrator ticks in here: beside a second driver thread and
        # the daemon's handlers a unit runs 10 % slower than alone, which
        # would read as a slower machine.  The harness samples before and
        # after the pass (BRACKET_UNITS), and a pass is under half a second.
        def drive(t: int) -> None:
            for i in order[t::2]:
                halves[t].append(self._timed_op(i, t))

        threads = [threading.Thread(target=drive, args=(t,)) for t in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return halves[0] + halves[1]

    def run_op(self, index: int, t: int):
        client = self.clients[t]
        kind = self.ops[index]
        if kind == "metrics":
            with self.tracer.span("telemetry.metrics_op", kind):
                response = client.metrics()
        elif kind == "cold":
            mult, sdfg = self.cold[index - self.WARM]
            with self.tracer.span("serve.execute_cold", kind):
                response = client.execute(
                    sdfg.to_json(), arrays={"A": self.cold_input},
                    symbols={"N": self.COLD_N}, strict=False,
                )
        else:
            p = self.programs[self.warm_index[index]]
            with self.tracer.span("serve.execute_warm", kind):
                response = client.execute(
                    program=self.keys[t][p.name], arrays=p.arrays(),
                    symbols=p.sizes, strict=False,
                )
        status = response.get("status")
        if status != "ok" or response.get("resent"):
            with self._counts_lock:  # two driver threads
                if status == "rejected":
                    self.counts["rejected"] += 1
                elif status != "ok":
                    self.counts["errors"] += 1
                if response.get("resent"):
                    self.counts["resent"] += 1
        ok = (
            status == "ok"
            and not response.get("shed")
            and not response.get("resent")
            and not response.get("degradation")
        )
        return ok, response

    def check(self, index: int, response) -> bool:
        kind = self.ops[index]
        if kind == "metrics":
            return "totals" in response.get("metrics", {})
        if kind == "cold":
            mult = self.cold[index - self.WARM][0]
            return programs.close(response["arrays"]["A"], self.cold_input * mult)
        return self.programs[self.warm_index[index]].verify(response["arrays"])

    def teardown(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if hasattr(self, "server"):
            self.server.stop()


# ======================================================================== tune
class TuneSearch(Workload):
    """``tune(cost="analytic")``: four greedy searches, one beam search
    and two replays from a populated tuning cache.  The analytic cost is
    deterministic, so the search path repeats and time measures the
    machinery (match enumeration, guarded apply/validate/rollback,
    canonical hashing), not the luck of a timer."""

    name = "tune_search"
    PASSES = 5
    WARMUP = 1
    MIN_PASSES = 5
    GREEDY = ("matmul", "gemm", "atax", "jacobi-2d")
    BEAM = ("atax",)
    REPLAY = ("gemm", "atax")

    def setup(self) -> None:
        import os

        from repro.tuning import tune

        pool = {
            p.name: p
            for p in programs.polybench_programs(
                self.rng, sorted(set(self.GREEDY + self.BEAM + self.REPLAY) - {"matmul"})
            )
        }
        pool["matmul"] = programs.matmul_program(self.seed, 64, optimize=False)
        self.cache_dir = os.path.join(self.scratch, "tuning-cache")
        self.plan: List[Tuple[programs.Program, Dict[str, Any], bool]] = (
            [(pool[n], {}, False) for n in self.GREEDY]
            + [(pool[n], {"strategy": "beam"}, False) for n in self.BEAM]
            + [(pool[n], {"cache_dir": self.cache_dir}, True) for n in self.REPLAY]
        )
        self.ops = [
            f"{'replay' if hit else kw.get('strategy', 'greedy')}:{p.name}"
            for p, kw, hit in self.plan
        ]
        self.sdfgs = [p.make_sdfg() for p, _, _ in self.plan]
        self.tune = tune
        for (p, kw, hit), sdfg in zip(self.plan, self.sdfgs):
            if hit:  # populate what the replays read
                self._tune(sdfg, p, kw)

    def _tune(self, sdfg, p: programs.Program, kw: Dict[str, Any]):
        return self.tune(
            sdfg, cost="analytic", machine="cpu", symbols=p.sizes, jobs=1, **kw
        )

    def run_op(self, index: int):
        p, kw, hit = self.plan[index]
        name = "tuning.cache_hit" if hit else "tuning.search"
        with self.tracer.span(name, self.ops[index]):
            result = self._tune(self.sdfgs[index], p, kw)
        return result.cache_hit == hit, result

    def check(self, index: int, result) -> bool:
        from repro.codegen import compile_sdfg

        p = self.plan[index][0]
        compiled = compile_sdfg(result.sdfg, cache="off")
        got = p.fresh()
        compiled(**got)
        return not compiled.degradation and p.verify(got)


WORKLOADS = {
    w.name: w for w in (CompileCorpus, ExecKernels, ExecCalls, ServeMixed, TuneSearch)
}

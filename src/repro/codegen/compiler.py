"""Compilation pipeline driver (paper §4.3).

``compile_sdfg`` runs the three steps: ❶ validation + memlet
propagation, ❷ code generation through the requested backend,
❸ "compiler invocation" — for the Python backend this is ``compile()``
+ ``exec`` of the generated module; for the C++ backend, gcc via ctypes
(see :mod:`repro.codegen.cpp_gen`).

Backends degrade gracefully along an explicit chain

    cpp  →  python  →  interpreter

so every valid SDFG is executable even when the host toolchain is
broken: a missing g++, a failed compile, a ctypes load error, or an
unsupported construct in a generator each abandon the current backend
and fall through to the next.  Every hop is recorded on the returned
:class:`CompiledSDFG` (``requested_backend`` + ``degradation``) so
callers — and the fault-injection harness — can see which fallbacks
fired and why.

The pipeline reports into the instrumentation event bus: each phase
(validate, propagate, per-backend codegen) is timed into the artifact's
``compile_report``, and executing an instrumented SDFG attaches an
:class:`~repro.instrumentation.report.InstrumentationReport` to the
artifact as ``last_report`` (see :mod:`repro.instrumentation`).
"""

from __future__ import annotations

import functools
import subprocess
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.chaos import faultpoint
from repro.codegen.common import CodegenError
from repro.codegen.options import CompileOptions, resolve_options
from repro.instrumentation import InstrumentationRecorder, recording_plan

#: Next backend to try when one fails; the interpreter is the terminal
#: fallback (it executes the IR directly and cannot itself "miscompile").
DEGRADATION_CHAIN: Dict[str, str] = {"cpp": "python", "python": "interpreter"}

#: Exception types that mean "this backend is unusable here", not "the
#: SDFG is broken": unsupported constructs (CodegenError), missing or
#: broken host toolchain (OSError from subprocess/ctypes), generated
#: code the host CPython rejects (SyntaxError), missing entry symbols
#: (AttributeError), and compiler-invocation failures.
DEGRADABLE_ERRORS = (
    CodegenError,
    OSError,
    SyntaxError,
    AttributeError,
    subprocess.SubprocessError,
)

#: Default diagnostic code per degradable error type, used when the
#: exception itself carries none (``CodegenError.code`` wins when set).
_DEFAULT_HOP_CODES: Dict[type, str] = {
    CodegenError: "CG000",
    SyntaxError: "CG102",
    AttributeError: "CG103",
    OSError: "CG101",
    subprocess.SubprocessError: "CG101",
}


def _classify_hop_code(err: BaseException) -> Optional[str]:
    code = getattr(err, "code", None)
    if code:
        return code
    for etype, default in _DEFAULT_HOP_CODES.items():
        if isinstance(err, etype):
            return default
    return None


def _hop(frm: str, to: Optional[str], err: BaseException, **extra) -> Dict[str, Any]:
    """One degradation record: the backend ``frm`` gave way to ``to``
    (None: nothing replaced it) because of ``err``."""
    message = str(err)
    hop = {
        "from": frm,
        "to": to,
        "error": type(err).__name__,
        "code": _classify_hop_code(err),
        "reason": message.splitlines()[0] if message else "",
        "message": message,
    }
    hop.update(extra)
    return hop


class CompiledSDFG:
    """A callable compiled SDFG (the paper's 'compiled library').

    Every backend's entry takes ``(arrays, symbols, instr, guard)``, and
    what a call records is fixed when the artifact is built, so a warm
    call reads no environment variable and walks no graph.
    """

    def __init__(self, sdfg, entry: Callable, source: str, backend: str):
        self.sdfg = sdfg
        self._entry = entry
        self.source = source
        #: Backend that actually produced this artifact.
        self.backend = backend
        #: Backend the caller asked for (== ``backend`` unless degraded).
        self.requested_backend = backend
        #: Fallback hops taken, in order: dicts with ``from``/``to``/
        #: ``error``/``code``/``reason``/``message`` keys (empty when
        #: none fired).  ``code`` is the triggering diagnostic code,
        #: ``message`` the full exception text.
        self.degradation: List[Dict[str, Optional[str]]] = []
        self.last_runtime: Optional[float] = None
        #: Report of the most recent instrumented execution (None when
        #: the SDFG carried no instrumentation and REPRO_PROFILE was off
        #: when the artifact was built).
        self.last_report = None
        #: Report of the compilation pipeline itself (phase timings).
        self.compile_report = None
        #: True when this artifact was rebuilt from the program cache.
        self.cache_hit = False
        #: Program-cache key of this artifact (None when caching is off).
        self.cache_key: Optional[str] = None
        #: Non-fatal diagnostics raised during code generation (e.g. a
        #: custom WCR reduction degraded to the scalar loop path).
        self.codegen_warnings: List[Any] = []
        #: Python backend: the tier each map scope lowered to, one
        #: ``{map, state, tier, reason}`` row per scope; also served as
        #: ``compile_report["lowering"]``.
        self.lowering: List[Dict[str, Optional[str]]] = []
        #: The resolved compile options this artifact (and any call-time
        #: fallback) is built with; set by ``compile_sdfg``.
        self.options = CompileOptions(backend=backend)
        #: Watchdog policy: per-call wall-clock deadline (seconds) and
        #: transient-memory budget (bytes), seeded from ``options`` (the
        #: serve worker sets them per request).
        self.deadline: Optional[float] = None
        self.memory_budget: Optional[int] = None
        #: Sanitizer findings of the most recent call (collect mode), or
        #: None when the sanitizer was off.
        self.last_findings: Optional[List[Any]] = None
        #: Cached argument-marshaling plan (built on the first call).
        self._marshal_plan = None
        #: Isolated cpp: removes the library's build directory (a
        #: ``weakref.finalize``, so collecting the artifact removes it
        #: too); :meth:`close` calls it.
        self._remove_build = None
        #: Whether calls record (``REPRO_PROFILE`` or an instrumented
        #: graph; a guarded call records too, for its summaries), and the
        #: whole-SDFG timer's type name.
        self.records = False
        self._timer: Optional[str] = None

    @functools.cached_property
    def writes(self) -> frozenset:
        """The SDFG's write set: the only arguments a call may change,
        so the only ones a served response carries back."""
        return self.sdfg.write_set()

    def _adopt_options(self, options: CompileOptions) -> None:
        """Fix what every call does: the options, the watchdog policy and
        the recording decision (``recording_plan``)."""
        self.options = options
        self.deadline = options.deadline
        self.memory_budget = options.memory_budget
        self.records, self._timer = recording_plan(self.sdfg, options.profile)

    def close(self) -> None:
        """Release owned resources (an isolated library's build
        directory).  Safe to call repeatedly."""
        if self._remove_build is not None:
            self._remove_build()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _make_guard(self):
        """Build the per-call GuardContext, or None when neither the
        sanitizer nor the watchdog is armed."""
        sanitize = self.options.sanitize
        if sanitize is None and self.deadline is None and self.memory_budget is None:
            return None
        from repro.runtime.sanitizer import GuardContext, Sanitizer
        from repro.runtime.watchdog import Watchdog

        san = Sanitizer(sanitize) if sanitize else None
        dog = None
        if self.deadline is not None or self.memory_budget is not None:
            dog = Watchdog(self.deadline, self.memory_budget, self.sdfg.name)
        return GuardContext(san, dog)

    def _call_entry(self, arrays, symbols, recorder, guard):
        """One attempt of the entry function, inside the whole-SDFG timer
        when the artifact has one (the retry policy lives in
        :meth:`_invoke`)."""
        if guard is not None and guard.watchdog is not None:
            guard.watchdog.arm()
            # Entry checkpoint: fully vectorized programs have no loop
            # checkpoints, and an already-expired deadline fails fast.
            guard.watchdog.checkpoint()
        timer = self._timer  # set only on recording artifacts
        if timer is not None:
            recorder.enter("sdfg", self.sdfg.name, timer)
        try:
            return self._entry(arrays, symbols, recorder, guard)
        finally:
            if timer is not None:
                recorder.exit()

    def _invoke(self, arrays, symbols, recorder, guard):
        """Run the entry with crash containment: contained backend
        crashes are retried with backoff, then degrade to the next
        backend in the chain at call time; a watchdog violation is
        recorded as an ``R805`` hop on this artifact and re-raised."""
        from repro.runtime.isolation import BackendCrashError
        from repro.runtime.watchdog import WatchdogViolation

        attempt = 0
        while True:
            try:
                return self._call_entry(arrays, symbols, recorder, guard)
            except WatchdogViolation as err:
                self.degradation.append(_hop(
                    self.backend, None, err, code="R805",
                    reason=err.diagnostic.message.splitlines()[0],
                ))
                raise
            except BackendCrashError as err:
                # The crash was contained by the isolation harness and
                # the caller's arrays are intact: retry, then degrade.
                from repro.runtime.watchdog import CALL_RETRY as policy

                if attempt < policy.retries:
                    time.sleep(policy.delay(attempt))
                    attempt += 1
                    continue
                if not self._degrade_at_call(err, attempt + 1):
                    raise
                attempt = 0

    def _degrade_at_call(self, err, attempts: int) -> bool:
        """Swap in the next backend's artifact after a call-time crash.
        Returns False when the chain is exhausted."""
        current = self.backend
        while True:
            nxt = DEGRADATION_CHAIN.get(current)
            if nxt is None:
                return False
            hop = _hop(current, nxt, err, attempts=attempts)
            bundle = getattr(err, "bundle", None)
            if bundle:
                hop["bundle"] = bundle
            self.degradation.append(hop)
            try:
                fallback = _compile_backend(self.sdfg, nxt, self.options)
            except DEGRADABLE_ERRORS as err2:
                err = err2
                attempts = 1
                current = nxt
                continue
            self.close()  # the abandoned backend's build directory, if any
            for attr in ("_entry", "backend", "source", "lowering",
                         "codegen_warnings"):
                setattr(self, attr, getattr(fallback, attr))
            if self.compile_report is not None:
                self.compile_report.lowering = self.lowering
            return True

    def __call__(self, **kwargs):
        from repro.runtime.arguments import MarshalingPlan, split_arguments

        # Fast path: after the first call, re-marshaling the same argument
        # signature reuses the cached plan and skips re-validation.
        marshaled = None
        plan = self._marshal_plan
        if plan is not None and plan.matches(kwargs):
            marshaled = plan.apply(kwargs)
        if marshaled is None:
            arrays, symbols = split_arguments(self.sdfg, kwargs)
            self._marshal_plan = MarshalingPlan.build(self.sdfg, kwargs, arrays, symbols)
        else:
            arrays, symbols = marshaled
        guard = self._make_guard()
        # A guarded run always records, so sanitizer/watchdog summaries
        # (check counts, overhead) land on ``last_report``.
        recorder = None
        if self.records or guard is not None:
            recorder = InstrumentationRecorder()
        if guard is not None and guard.sanitizer is not None:
            self.last_findings = []
        start = time.perf_counter()
        try:
            result = self._invoke(arrays, symbols, recorder, guard)
        finally:
            if guard is not None:
                guard.finish(recorder)
                if guard.sanitizer is not None:
                    self.last_findings = guard.sanitizer.findings
            if recorder is not None:
                self.last_report = recorder.report(self.sdfg.name, backend=self.backend)
            else:
                self.last_report = None
            self.last_runtime = time.perf_counter() - start
        return result

    def __repr__(self) -> str:
        degraded = (
            f", degraded_from={self.requested_backend!r}"
            if self.backend != self.requested_backend
            else ""
        )
        return f"CompiledSDFG({self.sdfg.name!r}, backend={self.backend!r}{degraded})"


def generate_code(sdfg, backend: str = "cpp") -> str:
    """Generate target code without compiling (steps ❶–❷)."""
    sdfg.validate()
    sdfg.propagate()
    if backend == "python":
        from repro.codegen.python_gen import PythonGenerator

        return PythonGenerator(sdfg).generate()
    if backend == "cpp":
        from repro.codegen.cpp_gen import CppGenerator

        return CppGenerator(sdfg).generate()
    if backend == "cuda":
        from repro.codegen.cuda_gen import CudaGenerator

        return CudaGenerator(sdfg).generate()
    if backend == "fpga":
        from repro.codegen.fpga_gen import FPGAGenerator

        return FPGAGenerator(sdfg).generate()
    raise ValueError(f"unknown backend {backend!r}")


def compile_sdfg(
    sdfg,
    backend: str = "python",
    validate: bool = True,
    fallback: bool = True,
    recorder: Optional[InstrumentationRecorder] = None,
    cache: Any = None,
    sanitize: Any = None,
    deadline: Optional[float] = None,
    memory_budget: Optional[int] = None,
    isolate: bool = True,
    vectorize: bool = True,
) -> CompiledSDFG:
    """Compile an SDFG into a callable.

    On backend failure the next backend in :data:`DEGRADATION_CHAIN` is
    tried (``fallback=False`` disables this and re-raises).  The
    returned artifact records the requested backend and every fallback
    hop taken, and carries phase timings in ``compile_report``.  Pass a
    ``recorder`` to additionally splice the pipeline events into an
    external event bus (the guarded optimizer does this).

    ``cache`` selects the program cache (``"disk"``, ``"memory"``,
    ``"off"``, or a :class:`~repro.codegen.progcache.ProgramCache`);
    ``None`` consults ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` and defaults
    to off.  A warm hit skips validation, propagation, and codegen — the
    content hash guarantees the cached program came from an identical
    (already validated) graph — and appears as a ``progcache[hit]`` phase
    in ``compile_report`` instead of the codegen phases.

    Guarded-execution knobs (see :mod:`repro.runtime.sanitizer` and
    :mod:`repro.runtime.watchdog`):

    * ``sanitize`` — ``True``/``"raise"`` aborts on the first dynamic
      memlet finding, ``"collect"`` records all findings on
      ``compiled.last_findings``; ``None`` consults ``REPRO_SANITIZE``.
      Only the python and interpreter backends support it, so a
      sanitized cpp request degrades to python with a recorded hop.
    * ``deadline`` / ``memory_budget`` — per-call wall-clock and
      transient-memory limits, enforced cooperatively; ``None`` is no
      limit.
    * ``isolate`` — run cpp artifacts on the crash-containing harness
      worker of :mod:`repro.runtime.isolation` (default on; ``False``
      loads the library into this process).

    * ``vectorize`` — allow the python backend's NumPy-vectorized map
      tiers (default on).  Maps run in parallel on ``backend="cpp"``,
      whose generated C++ carries OpenMP pragmas.

    Every knob and ``REPRO_PROFILE`` are resolved once, by
    :func:`~repro.codegen.options.resolve_options`, into the artifact's
    ``options``.
    """
    options = resolve_options(
        backend, validate, fallback, cache, sanitize, deadline, memory_budget,
        isolate, vectorize,
    )
    return compile_with(sdfg, options, recorder)


class Prepared(NamedTuple):
    """A graph propagated and hashed ahead of its compile (see
    :func:`prepare`).  :func:`compile_with` reports that work as its
    own: its phase timings and the symbolic memo's deltas since
    ``memo``."""

    digest: str
    propagate_seconds: float
    hash_seconds: float
    memo: Dict[str, Any]


def prepare(sdfg, validate: bool = True) -> Prepared:
    """Propagate ``sdfg`` in place and hash it, once.

    Propagate is a fixpoint, so a graph's pre- and post-propagation
    forms share the digest, which keys both the serve worker's
    artifacts and the program cache.  A graph that propagate cannot walk
    is validated (when ``validate``), so it fails with its own
    diagnostic."""
    from repro.sdfg import serialize
    from repro.symbolic import memo

    before = memo.snapshot()
    t0 = time.perf_counter()
    try:
        sdfg.propagate()
    except Exception:
        if validate:
            sdfg.validate()
        raise
    t1 = time.perf_counter()
    digest = serialize.content_hash(sdfg)
    return Prepared(digest, t1 - t0, time.perf_counter() - t1, before)


def compile_with(
    sdfg, options: CompileOptions, recorder: Optional[InstrumentationRecorder] = None,
    prepared: Optional[Prepared] = None,
) -> CompiledSDFG:
    """:func:`compile_sdfg` on already-resolved options (the serve worker
    resolves first, to key its artifacts on the record).  ``prepared``
    is :func:`prepare`'s result for ``sdfg`` when the caller needed the
    digest first; with the python program cache on, this prepares the
    graph itself.  Either way the cache sees one hash of the propagated
    form and stores one entry, and a hit skips validation."""
    from repro.codegen.progcache import program_key
    from repro.symbolic import memo as _symmemo

    backend = options.backend
    store = options.cache if backend == "python" else None
    crec = InstrumentationRecorder()
    crec.enter("compile", sdfg.name)
    sym_before = _symmemo.snapshot()
    compiled: Optional[CompiledSDFG] = None
    key: Optional[str] = None
    try:
        if prepared is None and store is not None:
            prepared = prepare(sdfg, options.validate)
        if prepared is not None:
            sym_before = prepared.memo
            crec.event("phase", "propagate", duration=prepared.propagate_seconds)
        if store is not None:
            t0 = time.perf_counter()
            key = program_key(prepared.digest, backend, options.variant)
            cached = store.lookup(key)
            crec.event(
                "phase", "progcache[lookup]",
                duration=prepared.hash_seconds + time.perf_counter() - t0,
            )
            if cached is not None:
                t0 = time.perf_counter()
                compiled = _rebuild_from_cache(sdfg, cached[0], cached[1], store, key)
                crec.event(
                    "phase", "progcache[hit]", duration=time.perf_counter() - t0
                )
            else:
                crec.event("phase", "progcache[miss]")

        if compiled is None:
            t0 = time.perf_counter()
            if options.validate:
                sdfg.validate()
            crec.event("phase", "validate", duration=time.perf_counter() - t0)
            if prepared is None:
                t0 = time.perf_counter()
                sdfg.propagate()
                crec.event("phase", "propagate", duration=time.perf_counter() - t0)

            hops: List[Dict[str, Optional[str]]] = []
            current = backend
            while True:
                t0 = time.perf_counter()
                try:
                    compiled = _compile_backend(sdfg, current, options)
                except DEGRADABLE_ERRORS as err:
                    crec.event(
                        "phase",
                        f"codegen[{current}]",
                        duration=time.perf_counter() - t0,
                    )
                    nxt = DEGRADATION_CHAIN.get(current)
                    if nxt is None or not options.fallback:
                        raise
                    hops.append(_hop(current, nxt, err))
                    current = nxt
                    continue
                crec.event(
                    "phase", f"codegen[{current}]", duration=time.perf_counter() - t0
                )
                compiled.requested_backend = backend
                compiled.degradation = hops
                break

            if key is not None and compiled.backend == "python" and not hops:
                t0 = time.perf_counter()
                _store_in_cache(sdfg, compiled, store, key)
                crec.event(
                    "phase", "progcache[store]", duration=time.perf_counter() - t0
                )

        _emit_symcache_events(crec, sym_before, _symmemo.snapshot())
    finally:
        crec.exit()
    compiled._adopt_options(options)
    compiled.compile_report = crec.report(sdfg.name, backend=f"compile[{backend}]")
    compiled.compile_report.lowering = compiled.lowering
    if recorder is not None:
        for node in crec.root.children.values():
            recorder.absorb(node)
    return compiled


def _emit_symcache_events(crec, before, after) -> None:
    """Emit symbolic-engine cache hit/miss deltas as COUNTER events."""
    from repro.telemetry.sink import active_sink

    sink = active_sink()
    for name in sorted(after):
        h0, m0 = before.get(name, (0, 0))
        h1, m1 = after[name]
        if h1 > h0:
            crec.event("symcache", f"{name}[hit]", itype="COUNTER", iterations=h1 - h0)
            if sink is not None:
                sink.publish("cache", f"symcache:{name}",
                             fields={"event": "hit", "n": h1 - h0})
        if m1 > m0:
            crec.event("symcache", f"{name}[miss]", itype="COUNTER", iterations=m1 - m0)
            if sink is not None:
                sink.publish("cache", f"symcache:{name}",
                             fields={"event": "miss", "n": m1 - m0})


def _rebuild_from_cache(sdfg, entry_rec, main, store, key) -> CompiledSDFG:
    """Rebuild a CompiledSDFG from a cache entry.  Memory-tier hits reuse
    the already-``exec``'d callable; disk hits ``exec`` once and promote."""
    from repro.diagnostics import Diagnostic

    if main is None:
        main = _exec_python_source(entry_rec.source, entry_rec.sdfg_name)
        store.attach_callable(key, main)
    compiled = _python_artifact(
        sdfg, main, entry_rec.source, entry_rec.arg_arrays, entry_rec.symbol_order
    )
    compiled.cache_hit = True
    compiled.cache_key = key
    warnings = []
    for w in entry_rec.warnings:
        try:
            warnings.append(Diagnostic.from_json(w))
        except Exception:
            continue
    compiled.codegen_warnings = warnings
    compiled.lowering = list(entry_rec.lowering)
    return compiled


def _store_in_cache(sdfg, compiled, store, key) -> None:
    """Store a freshly compiled python program under ``key``, the one
    entry its graph has: the key hashes the propagated form."""
    from repro.codegen.progcache import ProgramCacheEntry

    main = getattr(compiled, "_py_main", None)
    orders = getattr(compiled, "_py_orders", None)
    if main is None or orders is None:
        return
    warnings = []
    for w in compiled.codegen_warnings:
        try:
            warnings.append(w.to_json())
        except Exception:
            continue
    entry = ProgramCacheEntry(
        key=key,
        backend="python",
        sdfg_name=sdfg.name,
        source=compiled.source,
        arg_arrays=orders[0],
        symbol_order=orders[1],
        warnings=warnings,
        lowering=compiled.lowering,
    )
    compiled.cache_key = key
    store.store(key, entry, main)


def _compile_backend(sdfg, backend: str, options: CompileOptions) -> CompiledSDFG:
    # `raise-io` here is a degradable failure (OSError is in
    # DEGRADABLE_ERRORS): the compile hops down the backend chain
    # exactly as a real codegen I/O failure would.
    faultpoint("compiler.codegen", backend=backend, sdfg=sdfg.name)
    if backend == "python":
        return _compile_python(sdfg, options)
    if backend == "interpreter":
        return _interpreter_fallback(sdfg)
    if backend == "cpp":
        from repro.codegen.cpp_gen import compile_cpp

        if options.sanitize:
            raise CodegenError(
                "the dynamic memlet sanitizer requires the python or "
                "interpreter backend",
                code="CG000",
                sdfg=sdfg,
            )
        return compile_cpp(sdfg, isolated=options.isolate)
    raise ValueError(f"backend {backend!r} is not executable; use generate_code")


def _exec_python_source(source: str, name: str) -> Callable:
    faultpoint("compiler.exec", sdfg=name)
    namespace: Dict[str, Any] = {}
    code = compile(source, f"<sdfg {name}>", "exec")
    exec(code, namespace)
    return namespace["main"]


def _python_artifact(sdfg, main: Callable, source: str, arg_arrays,
                     syms_order) -> CompiledSDFG:
    """Wrap a module entry."""

    def entry(arrays: Dict[str, Any], symbols: Dict[str, int], instr=None, guard=None):
        args = [arrays[a] for a in arg_arrays]
        args += [symbols[s] for s in syms_order]
        return main(*args, __instr=instr, __guard=guard)

    compiled = CompiledSDFG(sdfg, entry, source, "python")
    # Kept for the program cache: the raw module entry plus argument order.
    compiled._py_main = main
    compiled._py_orders = (arg_arrays, syms_order)
    return compiled


def _compile_python(sdfg, options: CompileOptions) -> CompiledSDFG:
    from repro.codegen.python_gen import PythonGenerator

    gen = PythonGenerator(sdfg, vectorize=options.vectorize,
                          sanitize=bool(options.sanitize))
    source = gen.generate()
    main = _exec_python_source(source, sdfg.name)
    compiled = _python_artifact(sdfg, main, source, *gen.entry_abi)
    compiled.codegen_warnings = list(getattr(gen, "diagnostics", []))
    compiled.lowering = gen.lowering
    return compiled


def _interpreter_fallback(sdfg) -> CompiledSDFG:
    from repro.runtime.interpreter import SDFGInterpreter

    entry = SDFGInterpreter(sdfg, validate=False).run
    return CompiledSDFG(sdfg, entry, "# interpreter fallback (no source)", "interpreter")

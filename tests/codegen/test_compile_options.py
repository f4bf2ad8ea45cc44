"""Compile options are resolved once: the warm call path reads no
environment and walks no graph, the program-cache keys are pinned, and
every boolean ``REPRO_*`` flag follows one spelling rule."""

import os
from collections.abc import MutableMapping

import numpy as np
import pytest

import repro.instrumentation
from repro.codegen import compiler
from repro.codegen.compiler import compile_sdfg
from repro.codegen.options import parse_flag
from repro.codegen.progcache import ProgramCache
from repro.instrumentation import InstrumentationType
from repro.runtime import interpreter
from repro.runtime.interpreter import SDFGInterpreter
from repro.workloads import kernels


class _Forbidden(MutableMapping):
    """Stands in for ``os.environ``: every access is logged and raises."""

    def __init__(self, log):
        self.log = log

    def _deny(self, *args):
        self.log.append(("environ",) + args)
        raise AssertionError(f"environment read on a warm call: {args!r}")

    __getitem__ = __setitem__ = __delitem__ = _deny

    def __iter__(self):
        self._deny("iter")

    def __len__(self):
        self._deny("len")


def _build(case):
    sdfg = kernels.matmul_sdfg()
    if case == "instrumented":
        sdfg.instrument = InstrumentationType.TIMER
    return sdfg


def _runner(backend, sdfg):
    """A callable running ``sdfg`` on ``backend`` and returning its report."""
    if backend == "SDFGInterpreter":
        interp = SDFGInterpreter(sdfg)
        return interp, lambda: interp.last_report
    compiled = compile_sdfg(sdfg, backend=backend)
    return compiled, lambda: compiled.last_report


@pytest.mark.parametrize("backend", ["python", "interpreter", "SDFGInterpreter"])
@pytest.mark.parametrize("case", ["plain", "instrumented", "profile_env"])
def test_warm_call_reads_no_environment_and_walks_no_graph(monkeypatch, backend, case):
    if case == "profile_env":
        monkeypatch.setenv("REPRO_PROFILE", "1")
    run, report = _runner(backend, _build(case))
    run(**kernels.matmul_data(6, seed=1))  # the first call may decide things
    records = report() is not None
    assert records == (case != "plain")

    log = []

    def walk(*args):
        log.append(("has_instrumentation",))
        raise AssertionError("graph walked on a warm call")

    with monkeypatch.context() as m:
        m.setattr(os, "environ", _Forbidden(log))
        # Wherever the walk is reachable from, by module or imported name.
        for module in (repro.instrumentation, compiler, interpreter):
            m.setattr(module, "has_instrumentation", walk, raising=False)
        outs = []
        for seed in (2, 3):
            data = kernels.matmul_data(6, seed=seed)
            run(**data)
            outs.append((data["C"], kernels.matmul_reference(data)))
            assert (report() is not None) == records
    assert log == []
    for got, want in outs:
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_warm_served_request_reads_no_environment(monkeypatch):
    from repro.serve import protocol
    from repro.serve.worker import WorkerRuntime

    rt = WorkerRuntime()
    data = kernels.matmul_data(6)
    job = {"op": "execute", "sdfg": kernels.matmul_sdfg().to_json(),
           "arrays": protocol.encode_arrays(data), "tenant": "t"}
    assert rt.handle(dict(job))["status"] == "ok"
    log = []
    with monkeypatch.context() as m:
        m.setattr(os, "environ", _Forbidden(log))
        response = rt.handle(dict(job))
    assert response["status"] == "ok" and response["warm"], response
    assert log == []


# Recorded with the code before compile options were resolved in one
# place, re-recorded at CODEGEN_VERSION 7 (part of every key), at 8 (the
# generator decides which maps to chunk), at 9 (large scatter maps run
# in strips), at 10 (destination passing), at 11 (scalar code on
# Python numbers) and at 12 (no thread tier; the novec pin is new
# there); the sanitize pin was re-recorded once more when the tenant
# namespace left the variant key (tenants get separate caches
# instead): the keys must not move by a byte.
@pytest.mark.parametrize("kwargs,key", [
    (dict(sanitize=True, vectorize=False),
     "cb6c1f5343317a7e083797f1b9fcc7ea571336301e8a4cf2d0884e1ad45cf819"),
    (dict(vectorize=False),
     "61cfcc1a1dae7678831c25d71ecd4475266bcb6d6892b19695aa0ca3e8f30756"),
], ids=["sanitize-novec", "novec"])
def test_program_cache_key_is_pinned(kwargs, key):
    compiled = compile_sdfg(kernels.matmul_sdfg(), cache=ProgramCache(), **kwargs)
    try:
        assert compiled.cache_key == key
    finally:
        compiled.close()


@pytest.mark.parametrize("raw", ["no", "False", "OFF", " 0 ", ""])
def test_profile_off_spellings_do_not_profile(monkeypatch, raw):
    monkeypatch.setenv("REPRO_PROFILE", raw)
    compiled = compile_sdfg(kernels.matmul_sdfg())
    compiled(**kernels.matmul_data(4))
    assert compiled.last_report is None


@pytest.mark.parametrize("raw", ["yes", "On", "TRUE", "1"])
def test_sanitize_on_spellings_arm_the_sanitizer(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SANITIZE", raw)
    compiled = compile_sdfg(kernels.matmul_sdfg())
    compiled(**kernels.matmul_data(4))
    assert compiled.last_findings == []  # None when the sanitizer is off


@pytest.mark.parametrize("var", ["REPRO_PROFILE", "REPRO_SANITIZE"])
def test_unreadable_compile_flag_names_the_variable(monkeypatch, var):
    monkeypatch.setenv(var, "maybe")
    with pytest.raises(ValueError, match=var):
        compile_sdfg(kernels.matmul_sdfg())


def test_telemetry_flag_uses_the_same_rule(monkeypatch):
    from repro.telemetry.sink import telemetry_enabled

    for raw, on in (("yes", True), ("Off", False), ("no", False), ("", False)):
        monkeypatch.setenv("REPRO_TELEMETRY", raw)
        assert telemetry_enabled() is on
    monkeypatch.setenv("REPRO_TELEMETRY", "maybe")
    with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
        telemetry_enabled()


def test_parse_flag():
    assert parse_flag("X", " Yes\n") is True
    assert parse_flag("X", None) is False
    with pytest.raises(ValueError, match="X='2'"):
        parse_flag("X", "2")


def test_profile_is_read_when_the_artifact_is_built(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    compiled = compile_sdfg(kernels.matmul_sdfg())
    monkeypatch.setenv("REPRO_PROFILE", "1")
    compiled(**kernels.matmul_data(4))
    assert compiled.last_report is None

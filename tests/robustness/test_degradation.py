"""Fault injection for the backend degradation chain
(cpp → python → interpreter): a missing host compiler, a failing
compiler invocation, a broken ctypes load, or a raising generator must
each still yield a runnable artifact, with every fallback recorded."""

import subprocess
import unittest.mock

import numpy as np
import pytest

import repro as rp
from repro.codegen import cpp_gen
from repro.codegen.common import CodegenError
from repro.codegen.compiler import compile_sdfg
from repro.codegen.python_gen import PythonGenerator
from repro.sdfg import SDFG, Memlet, dtypes

N = rp.symbol("N")


def scale_sdfg():
    sdfg = SDFG("scale")
    sdfg.add_array("A", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "s",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2",
        outputs={"b": Memlet.simple("A", "i")},
    )
    return sdfg


def run_and_check(compiled):
    A = np.random.rand(8)
    ref = A * 2
    compiled(A=A, N=8)
    np.testing.assert_allclose(A, ref)


def test_missing_compiler_degrades_cpp_to_python():
    sdfg = scale_sdfg()
    with unittest.mock.patch.object(cpp_gen, "find_host_compiler", lambda: None):
        compiled = compile_sdfg(sdfg, backend="cpp")
    assert compiled.requested_backend == "cpp"
    assert compiled.backend == "python"
    assert [rec["to"] for rec in compiled.degradation] == ["python"]
    assert compiled.degradation[0]["code"] == "CG101"
    run_and_check(compiled)


def test_failing_compiler_invocation_degrades():
    sdfg = scale_sdfg()

    def boom(cmd, **kw):
        raise OSError("gcc: cannot execute binary file")

    with unittest.mock.patch.object(cpp_gen.subprocess, "run", boom):
        compiled = compile_sdfg(sdfg, backend="cpp")
    assert compiled.backend == "python"
    assert compiled.degradation[0]["code"] == "CG101"
    run_and_check(compiled)


def test_compile_error_degrades():
    sdfg = scale_sdfg()
    fake = subprocess.CompletedProcess(args=[], returncode=1, stdout="", stderr="ICE")
    with unittest.mock.patch.object(cpp_gen.subprocess, "run", lambda *a, **k: fake):
        compiled = compile_sdfg(sdfg, backend="cpp")
    assert compiled.backend == "python"
    assert compiled.degradation[0]["code"] == "CG102"
    run_and_check(compiled)


def test_ctypes_load_failure_degrades():
    # In-process loading only happens with crash isolation off (the
    # isolated harness dlopens in the child instead).
    sdfg = scale_sdfg()
    if cpp_gen.find_host_compiler() is None:
        pytest.skip("no host compiler; covered by missing-compiler test")

    def bad_cdll(path):
        raise OSError(f"{path}: invalid ELF header")

    with unittest.mock.patch.object(cpp_gen.ctypes, "CDLL", bad_cdll):
        compiled = compile_sdfg(sdfg, backend="cpp", isolate=False)
    assert compiled.backend == "python"
    assert compiled.degradation[0]["code"] == "CG103"
    run_and_check(compiled)


def test_python_generator_failure_degrades_to_interpreter():
    sdfg = scale_sdfg()

    def raise_codegen(self):
        raise CodegenError("unsupported construct", code="CG000")

    with unittest.mock.patch.object(PythonGenerator, "generate", raise_codegen):
        compiled = compile_sdfg(sdfg, backend="python")
    assert compiled.requested_backend == "python"
    assert compiled.backend == "interpreter"
    assert [rec["to"] for rec in compiled.degradation] == ["interpreter"]
    run_and_check(compiled)


def test_double_degradation_cpp_to_interpreter():
    """Both generators down: cpp → python → interpreter still runs."""
    sdfg = scale_sdfg()

    def raise_codegen(self):
        raise CodegenError("unsupported construct", code="CG000")

    with unittest.mock.patch.object(cpp_gen, "find_host_compiler", lambda: None), \
         unittest.mock.patch.object(PythonGenerator, "generate", raise_codegen):
        compiled = compile_sdfg(sdfg, backend="cpp")
    assert compiled.backend == "interpreter"
    assert [rec["to"] for rec in compiled.degradation] == ["python", "interpreter"]
    run_and_check(compiled)


def test_fallback_false_reraises():
    sdfg = scale_sdfg()
    with unittest.mock.patch.object(cpp_gen, "find_host_compiler", lambda: None):
        with pytest.raises(CodegenError, match="no host C..? compiler"):
            compile_sdfg(sdfg, backend="cpp", fallback=False)


def test_malformed_generated_python_degrades():
    """Generated source the host CPython rejects (SyntaxError) falls
    through to the interpreter rather than raising."""
    sdfg = scale_sdfg()
    with unittest.mock.patch.object(
        PythonGenerator, "generate", lambda self: "def main(:\n"
    ):
        compiled = compile_sdfg(sdfg, backend="python")
    assert compiled.backend == "interpreter"
    assert compiled.degradation[0]["error"] == "SyntaxError"
    run_and_check(compiled)


def test_no_degradation_recorded_on_clean_compile():
    compiled = compile_sdfg(scale_sdfg(), backend="python")
    assert compiled.backend == "python"
    assert compiled.requested_backend == "python"
    assert compiled.degradation == []
    run_and_check(compiled)


def test_invalid_sdfg_is_not_masked_by_fallback():
    """Degradation covers backend faults, not broken SDFGs: validation
    errors must still surface."""
    from repro.sdfg import InvalidSDFGError

    sdfg = SDFG("broken")
    st = sdfg.add_state()
    st.add_access("ghost")
    with pytest.raises(InvalidSDFGError):
        compile_sdfg(sdfg, backend="cpp")


def test_call_time_degradation_keeps_the_artifacts_options(monkeypatch):
    """A contained cpp crash at call time rebuilds the python fallback
    with the artifact's own lowering options (here: no vectorized tier),
    and the fallback's census replaces the cpp artifact's empty one."""
    from repro.codegen.compiler import CompiledSDFG
    from repro.runtime.isolation import BackendCrashError

    monkeypatch.setenv("REPRO_RETRIES", "0")

    def crashing_cpp(sdfg, isolated=False):
        def entry(arrays, symbols, instr=None, guard=None):
            raise BackendCrashError("injected crash", sdfg=sdfg.name)

        return CompiledSDFG(sdfg, entry, "// no source", "cpp")

    monkeypatch.setattr(cpp_gen, "compile_cpp", crashing_cpp)
    compiled = compile_sdfg(scale_sdfg(), backend="cpp", vectorize=False)
    assert compiled.backend == "cpp" and compiled.lowering == []
    run_and_check(compiled)
    assert compiled.backend == "python"
    assert compiled.degradation[-1]["code"] == "E201"

    reference = compile_sdfg(scale_sdfg(), backend="python", vectorize=False)
    assert compiled.source == reference.source
    assert [row["tier"] for row in compiled.lowering] == ["loop"]
    assert compiled.lowering == reference.lowering
    assert compiled.compile_report["lowering"] == compiled.lowering
    assert compiled.codegen_warnings == reference.codegen_warnings

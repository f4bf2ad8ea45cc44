"""Tests for the C++ (compiled via gcc when available), CUDA, and HLS
backends."""

import gc
import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import compile_sdfg, generate_code
from repro.codegen.common import CodegenError
from repro.codegen.cpp_gen import compile_cpp
from repro.codegen.py2cpp import Py2Cpp
from repro.runtime import isolation
from repro.sdfg import (
    SDFG,
    Language,
    Memlet,
    ScheduleType,
    StorageType,
    dtypes,
)
from repro.transformations import FPGATransform, GPUTransform, apply_transformations
from repro.workloads import kernels
from tests.codegen.test_control_flow import compile_cpp_once, needs_cc
from tests.codegen.test_parallel_parity import PROGRAMS, _case, _check, _fresh


def vadd(storage=StorageType.Default, schedule=ScheduleType.Default, name="vadd"):
    sdfg = SDFG(name)
    sdfg.add_array("A", ("N",), dtypes.float64, storage=storage)
    sdfg.add_array("B", ("N",), dtypes.float64, storage=storage)
    sdfg.add_array("C", ("N",), dtypes.float64, storage=storage)
    st = sdfg.add_state("main")
    st.add_mapped_tasklet(
        "add",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i"), "b": Memlet.simple("B", "i")},
        code="c = a + b",
        outputs={"c": Memlet.simple("C", "i")},
        schedule=schedule,
    )
    return sdfg


def multicore(sdfg):
    """``sdfg`` with every map scheduled ``CPU_Multicore``."""
    for state in sdfg.nodes():
        for entry in state.entry_nodes():
            entry.map.schedule = ScheduleType.CPU_Multicore
    return sdfg


def extremum(wcr):
    """``r[0]`` resolved over ``A`` with a Min or Max WCR, in parallel."""
    sdfg = SDFG(f"extremum_{wcr}")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("r", (1,), dtypes.float64)
    sdfg.add_state().add_mapped_tasklet(
        "pick",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="o = a",
        outputs={"o": Memlet(data="r", subset="0", wcr=wcr)},
        schedule=ScheduleType.CPU_Multicore,
    )
    return sdfg


class TestPy2Cpp:
    def test_simple_assignment(self):
        lines = Py2Cpp(declared={"a": "double", "b": "double"}).convert("b = a * 2")
        assert lines == ["b = (a * 2);"]

    def test_local_gets_auto(self):
        lines = Py2Cpp().convert("x = 1\ny = x + 2")
        assert lines[0].startswith("auto x = ")
        assert lines[1].startswith("auto y = ")

    def test_if_statement(self):
        lines = Py2Cpp(declared={"o": "double", "v": "double"}).convert(
            "if v > 0:\n    o = v\nelse:\n    o = -v"
        )
        joined = "\n".join(lines)
        assert "if (((v > 0))) {" in joined and "} else {" in joined

    def test_ternary(self):
        lines = Py2Cpp(declared={"o": "double", "a": "double"}).convert(
            "o = a if a > 0 else 0.0"
        )
        assert "?" in lines[0]

    def test_min_max_math(self):
        lines = Py2Cpp(declared={"o": "double", "a": "double"}).convert(
            "o = min(a, 1.0) + math.sqrt(a)"
        )
        assert "std::min<double>" in lines[0] and "std::sqrt" in lines[0]

    def test_min_max_over_integers_stay_integer(self):
        # An index clamp: a double-typed min cannot subscript an array.
        lines = Py2Cpp(declared={"o": "long long", "v": "double"}).convert(
            "o = max(min(int(v * BINS), BINS - 1), 0)"
        )
        assert lines == [
            "o = std::max<long long>(std::min<long long>((long long)((v * BINS)), "
            "(BINS - 1)), 0);"
        ]
        mixed = Py2Cpp(declared={"o": "double", "v": "double"}).convert("o = min(v, 1)")
        assert "std::min<double>" in mixed[0]

    def test_stores_through_connectors_are_reported(self):
        conv = Py2Cpp(declared={"hh": "long long", "w": "double"})
        conv.convert("hh[int(w[0])] += 1")
        assert conv.stored == {"hh"}

    def test_subscript(self):
        lines = Py2Cpp(declared={"o": "double", "w": "double"}).convert(
            "o = w[0] - 2*w[1] + w[2]"
        )
        assert "w[0]" in lines[0]

    def test_unsupported_rejected(self):
        with pytest.raises(CodegenError):
            Py2Cpp().convert("x = {1: 2}")
        with pytest.raises(CodegenError):
            Py2Cpp().convert("for i in range(3): pass")


class TestCppStructure:
    def test_signature_and_state_machine(self):
        src = generate_code(vadd(), "cpp")
        assert 'extern "C" void vadd(' in src
        assert "double* A" in src and "long long N" in src
        # One state, no transition: straight-line code, no label or jump.
        assert "__state_" not in src and "goto" not in src
        assert src.index("for (long long i = 0; i < N; i += 1) {") < src.index("__exit:;")

    def test_openmp_for_multicore(self):
        src = generate_code(
            vadd(schedule=ScheduleType.CPU_Multicore, name="vaddmc"), "cpp"
        )
        assert "#pragma omp parallel for" in src

    def test_wcr_becomes_atomic_in_parallel(self):
        sdfg = SDFG("dotc")
        sdfg.add_array("x", ("N",), dtypes.float64)
        sdfg.add_array("r", (1,), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "d",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="o = a * a",
            outputs={"o": Memlet(data="r", subset="0", wcr="sum")},
            schedule=ScheduleType.CPU_Multicore,
        )
        src = generate_code(sdfg, "cpp")
        assert "#pragma omp atomic" in src

    def test_parallel_read_modify_writes_are_exclusive(self):
        """``omp atomic`` covers only Sum/Product WCR: a store through a
        view (histogram's ``hh[bin] += 1``) and a Min/Max WCR run one
        thread at a time inside ``omp parallel for``, and only there."""
        src = generate_code(multicore(kernels.histogram_sdfg()), "cpp")
        region = src[src.index("#pragma omp parallel for"):]
        critical = region.index("#pragma omp critical")
        assert critical < region.index("hh[std::min<long long>(")
        assert "#pragma omp critical" not in generate_code(kernels.histogram_sdfg(), "cpp")
        for wcr in ("min", "max"):
            lines = generate_code(extremum(wcr), "cpp").splitlines()
            at = next(i for i, ln in enumerate(lines) if f"std::{wcr}(" in ln)
            assert lines[at - 2].strip() == "#pragma omp critical"

    def test_written_view_is_not_const(self):
        src = generate_code(kernels.histogram_sdfg(), "cpp")
        assert "    long long* hh = &hist[" in src
        assert "std::min<long long>(" in src

    def test_transient_allocation(self):
        sdfg = vadd(name="vaddt")
        sdfg.add_transient("tmp", ("N",), dtypes.float64, find_new_name=False)
        st = sdfg.start_state
        st.add_nedge(st.add_read("A"), st.add_access("tmp"))
        src = generate_code(sdfg, "cpp")
        assert "new double[" in src and "delete[] tmp;" in src


@needs_cc
class TestCppExecution:
    def test_vadd(self):
        comp = compile_cpp(vadd(name="vaddx"))
        A, B, C = np.random.rand(64), np.random.rand(64), np.zeros(64)
        comp(A=A, B=B, C=C)
        assert np.allclose(C, A + B)

    def test_matmul_wcr(self):
        sdfg = SDFG("mmx")
        sdfg.add_array("A", ("M", "K"), dtypes.float64)
        sdfg.add_array("B", ("K", "N"), dtypes.float64)
        sdfg.add_array("C", ("M", "N"), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "mm",
            {"i": "0:M", "j": "0:N", "k": "0:K"},
            inputs={"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j")},
            code="o = a * b",
            outputs={"o": Memlet(data="C", subset="i, j", wcr="sum")},
        )
        sdfg.validate()
        comp = compile_cpp(sdfg)
        A, B = np.random.rand(6, 4), np.random.rand(4, 5)
        C = np.zeros((6, 5))
        comp(A=A, B=B, C=C)
        assert np.allclose(C, A @ B)

    def test_state_loop(self):
        sdfg = SDFG("loopx")
        sdfg.add_array("v", (1,), dtypes.float64)
        sdfg.add_symbol("T")
        body = sdfg.add_state("body")
        t = body.add_tasklet("inc", ["a"], ["b"], "b = a + 1")
        body.add_edge(body.add_read("v"), t, Memlet.simple("v", "0"), None, "a")
        body.add_edge(t, body.add_write("v"), Memlet.simple("v", "0"), "b", None)
        init = sdfg.add_state("init", is_start=True)
        sdfg.add_loop(init, body, None, "k", 0, "k < T", "k + 1")
        comp = compile_cpp(sdfg)
        v = np.zeros(1)
        comp(v=v, T=17)
        assert v[0] == 17

    def test_stencil_pointer_connector(self):
        sdfg = SDFG("stencilx")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_array("B", ("N",), dtypes.float64)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "lap",
            {"i": "1:N-1"},
            inputs={"w": Memlet.simple("A", "i-1:i+2")},
            code="b = w[0] - 2*w[1] + w[2]",
            outputs={"b": Memlet.simple("B", "i")},
        )
        comp = compile_cpp(sdfg)
        A = np.random.rand(40)
        B = np.zeros(40)
        comp(A=A, B=B)
        assert np.allclose(B[1:-1], A[:-2] - 2 * A[1:-1] + A[2:])

    def test_reduce_node(self):
        sdfg = SDFG("redx")
        sdfg.add_array("A", ("M", "N"), dtypes.float64)
        sdfg.add_array("out", ("M",), dtypes.float64)
        st = sdfg.add_state()
        r = st.add_reduce("sum", axes=(1,))
        st.add_edge(st.add_read("A"), r, Memlet.simple("A", "0:M, 0:N"), None, "IN_1")
        st.add_edge(r, st.add_write("out"), Memlet.simple("out", "0:M"), "OUT_1", None)
        comp = compile_cpp(sdfg)
        A = np.random.rand(5, 9)
        out = np.zeros(5)
        comp(A=A, out=out)
        assert np.allclose(out, A.sum(axis=1))

    def test_strided_reduce_node(self):
        # The reduction's loops step as its input subset does.
        sdfg = SDFG("redstride")
        sdfg.add_array("A", ("M", "N"), dtypes.float64)
        sdfg.add_array("out", ("M",), dtypes.float64)
        st = sdfg.add_state()
        r = st.add_reduce("sum", axes=(1,))
        st.add_edge(st.add_read("A"), r, Memlet.simple("A", "0:M, 0:N:3"), None, "IN_1")
        st.add_edge(r, st.add_write("out"), Memlet.simple("out", "0:M"), "OUT_1", None)
        A = np.random.rand(4, 10)
        out = np.zeros(4)
        compile_cpp(sdfg)(A=A, out=out)
        assert np.allclose(out, A[:, ::3].sum(axis=1))


@pytest.fixture
def two_omp_threads(monkeypatch):
    """Isolated calls run on a fresh harness worker with two OpenMP threads."""
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    isolation.close_harness()
    yield
    isolation.close_harness()


@needs_cc
class TestCppOpenMP:
    RUNS = 30

    def test_parallel_histogram_loses_no_count(self, two_omp_threads):
        compiled = compile_sdfg(multicore(kernels.histogram_sdfg()), backend="cpp",
                                cache="off", fallback=False)
        data = kernels.histogram_data(256, 256, bins=4)
        want = kernels.histogram_reference(data["img"], 4)
        for run in range(self.RUNS):
            hist = np.zeros(4, np.int64)
            compiled(img=data["img"], hist=hist, H=256, W=256, BINS=4)
            assert np.array_equal(hist, want), f"run {run} lost counts"
        assert compiled.backend == "cpp"

    @pytest.mark.parametrize("wcr", ["min", "max"])
    def test_parallel_min_max_wcr_is_exact(self, two_omp_threads, wcr):
        compiled = compile_sdfg(extremum(wcr), backend="cpp", cache="off",
                                fallback=False)
        rng = np.random.RandomState(7)
        for run in range(self.RUNS):
            A = rng.rand(1 << 16)
            r = np.array([0.5])
            compiled(A=A, r=r, N=A.size)
            want = max(A.max(), 0.5) if wcr == "max" else min(A.min(), 0.5)
            assert r[0] == want, f"run {run}"
        assert compiled.backend == "cpp"


@needs_cc
class TestBuildDirectories:
    """``compile_cpp`` builds in a temporary directory that no exit path
    leaves behind."""

    @pytest.fixture
    def tmpdir_root(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    @staticmethod
    def builds(root):
        return sorted(p.name for p in root.iterdir() if p.name.startswith("repro_vadd"))

    def test_isolated_artifact_removes_its_directory_on_close(self, tmpdir_root):
        compiled = compile_cpp(vadd(), isolated=True)
        assert len(self.builds(tmpdir_root)) == 1  # the worker loads from it
        A, B, C = np.random.rand(16), np.random.rand(16), np.zeros(16)
        compiled(A=A, B=B, C=C)
        assert np.allclose(C, A + B)
        compiled.close()
        assert self.builds(tmpdir_root) == []
        compiled.close()  # idempotent

    def test_collected_isolated_artifact_removes_its_directory(self, tmpdir_root):
        compiled = compile_cpp(vadd(), isolated=True)
        assert len(self.builds(tmpdir_root)) == 1
        del compiled
        gc.collect()
        assert self.builds(tmpdir_root) == []

    def test_in_process_build_is_removed_once_loaded(self, tmpdir_root):
        compiled = compile_cpp(vadd())
        assert self.builds(tmpdir_root) == []
        A, B, C = np.random.rand(16), np.random.rand(16), np.zeros(16)
        compiled(A=A, B=B, C=C)
        assert np.allclose(C, A + B)

    def test_failed_build_is_removed(self, tmpdir_root):
        sdfg = vadd()
        tasklet = next(n for n in sdfg.start_state.nodes() if hasattr(n, "code"))
        tasklet.language, tasklet.code = Language.CPP, "c = a +* ;"
        with pytest.raises(CodegenError, match="compilation failed"):
            compile_cpp(sdfg)
        assert self.builds(tmpdir_root) == []


@needs_cc
@pytest.mark.parametrize("name", PROGRAMS)
def test_corpus_program_builds_on_cpp(name):
    make_sdfg, inputs, expected = _case(name)
    compiled = compile_cpp_once(make_sdfg())
    assert compiled.backend == "cpp"
    # Every corpus program is structured: no label, no jump.
    assert "goto" not in compiled.source
    got = _fresh(inputs)
    compiled(**got)
    _check(name, got, expected, "numpy reference")


class TestCudaStructure:
    def gpu_vadd(self):
        return vadd(
            storage=StorageType.GPU_Global,
            schedule=ScheduleType.GPU_Device,
            name="vaddgpu",
        )

    def test_kernel_emitted(self):
        src = generate_code(self.gpu_vadd(), "cuda")
        assert "__global__ void" in src
        assert "blockIdx.x * blockDim.x + threadIdx.x" in src
        assert "<<<" in src

    def test_device_allocation(self):
        src = generate_code(self.gpu_vadd(), "cuda")
        assert src.count("cudaMalloc") == 3
        assert "cudaFree" in src

    def test_wcr_atomic(self):
        sdfg = SDFG("dotg")
        sdfg.add_array("x", ("N",), dtypes.float64, storage=StorageType.GPU_Global)
        sdfg.add_array("r", (1,), dtypes.float64, storage=StorageType.GPU_Global)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "d",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="o = a * a",
            outputs={"o": Memlet(data="r", subset="0", wcr="sum")},
            schedule=ScheduleType.GPU_Device,
        )
        src = generate_code(sdfg, "cuda")
        assert "atomicAdd" in src

    def test_copy_volume_from_propagated_memlets(self):
        # The H2D copy must be sized by the propagated footprint: this is
        # the data-movement precision the paper credits for GPU speedups.
        sdfg = SDFG("copyvol")
        sdfg.add_array("A", ("N",), dtypes.float64)  # host
        sdfg.add_array("gA", ("N",), dtypes.float64, storage=StorageType.GPU_Global, transient=True)
        st = sdfg.add_state()
        a = st.add_read("A")
        ga = st.add_access("gA")
        st.add_edge(a, ga, Memlet(data="A", subset="0:N//2", other_subset="0:N//2"), None, None)
        src = generate_code(sdfg, "cuda")
        assert "cudaMemcpyAsync" in src
        assert "(N // 2)" in src.replace("((N) / (2))", "(N // 2)")


class TestFPGAStructure:
    def test_pipeline_pragma(self):
        sdfg = vadd(storage=StorageType.FPGA_Global, name="vaddfp")
        src = generate_code(sdfg, "fpga")
        assert "#pragma HLS PIPELINE II=1" in src
        assert "m_axi" in src

    def test_ddr_bank_spread(self):
        sdfg = vadd(storage=StorageType.FPGA_Global, name="vaddfp2")
        src = generate_code(sdfg, "fpga")
        # A, B, C spread across gmem banks (VCU1525 has 4 DDR4 banks).
        assert "bundle=gmem0" in src and "bundle=gmem1" in src and "bundle=gmem2" in src

    def test_systolic_array_from_pe_indexed_streams(self):
        # Paper Fig. 7: map over PEs communicating via pipes[p] -> pipes[p+1].
        sdfg = SDFG("systolic")
        sdfg.add_array("A", ("N",), dtypes.float64, storage=StorageType.FPGA_Global)
        sdfg.add_stream("pipes", dtypes.float64, shape=("P + 1",), transient=True)
        sdfg.add_symbol("P")
        st = sdfg.add_state()
        me, mx = st.add_map("pes", {"p": "0:P"}, schedule=ScheduleType.FPGA_Device)
        t = st.add_tasklet("pe", ["inp"], ["out"], "out = inp + 1")
        pin = st.add_access("pipes")
        pout = st.add_access("pipes")
        st.add_memlet_path(
            pin, me, t, memlet=Memlet(data="pipes", subset="p", dynamic=True), dst_conn="inp"
        )
        st.add_memlet_path(
            t, mx, pout, memlet=Memlet(data="pipes", subset="p+1", dynamic=True), src_conn="out"
        )
        src = generate_code(sdfg, "fpga")
        assert "systolic array" in src
        assert "#pragma HLS UNROLL" in src
        assert "hls::stream<double> pipes" in src
        # The output connector is a declared local, written after the body.
        body = src[src.index("double inp = pipes[p].read();"):]
        assert [ln.strip() for ln in body.split("\n")[1:4]] == [
            "double out;", "out = (inp + 1);", "pipes[(1 + p)].write(out);",
        ]

    def test_internal_stream_fifo(self):
        sdfg = SDFG("fifo")
        sdfg.add_stream("S", dtypes.float32, buffer_size=32, transient=True)
        sdfg.add_array("A", ("N",), dtypes.float32, storage=StorageType.FPGA_Global)
        st = sdfg.add_state()
        st.add_nedge(st.add_read("A"), st.add_access("S"))
        src = generate_code(sdfg, "fpga")
        assert "#pragma HLS STREAM variable=S depth=32" in src

    def test_max_wcr_reads_modifies_writes(self):
        sdfg = SDFG("fmax")
        sdfg.add_array("x", ("N",), dtypes.float64, storage=StorageType.FPGA_Global)
        sdfg.add_array("r", (1,), dtypes.float64, storage=StorageType.FPGA_Global)
        st = sdfg.add_state()
        st.add_mapped_tasklet(
            "m",
            {"i": "0:N"},
            inputs={"a": Memlet.simple("x", "i")},
            code="o = a",
            outputs={"o": Memlet(data="r", subset="0", wcr="max")},
            schedule=ScheduleType.FPGA_Device,
        )
        src = generate_code(sdfg, "fpga")
        assert "r[(0) * (1)] = std::max(r[(0) * (1)], (double)o);" in src


def _example_jacobi():
    """The jacobi program of ``examples/heterogeneous_targets.py``."""
    path = Path(__file__).resolve().parents[2] / "examples" / "heterogeneous_targets.py"
    spec = importlib.util.spec_from_file_location("heterogeneous_targets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.jacobi


def _block(src, opener):
    """The lines from the one starting with ``opener`` through the brace
    that closes it."""
    lines = src.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.lstrip().startswith(opener))
    indent = lines[start][: len(lines[start]) - len(lines[start].lstrip())]
    return lines[start:lines.index(indent + "}", start) + 1]


@pytest.mark.parametrize("backend, transform, sweep", [
    pytest.param("cuda", GPUTransform, "<<<", id="cuda"),
    pytest.param("fpga", FPGATransform, "#pragma HLS PIPELINE", id="fpga"),
])
def test_dialect_text_keeps_the_time_loop(backend, transform, sweep):
    # jacobi runs its two sweeps (kernel launches, pipelined loop nests) T
    # times: the time loop must enclose both.
    sdfg = SDFG.from_json(_example_jacobi().to_sdfg().to_json())
    apply_transformations(sdfg, transform)
    src = generate_code(sdfg, backend)
    loop = "\n".join(_block(src, "while ((t < T)) {"))
    assert src.count(sweep) == 2 and loop.count(sweep) == 2

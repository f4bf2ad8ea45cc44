"""The compile path checks each graph once (DESIGN §9, "Compile path").

The frontend propagates but does not validate: every consumer validates
before it trusts a graph, so ``to_sdfg()`` + ``compile_sdfg`` validates
once.  Fail-fast validation runs the error checks only; the W501 and
W601–W603 lints run in collect mode, where their readers get them."""

import numpy as np
import pytest

import repro as rp
from repro.codegen import compile_sdfg
from repro.diagnostics import Severity
from repro.frontend.astparser import ProgramParser
from repro.instrumentation.types import InstrumentationType
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes, validation
from repro.sdfg.nodes import MapExit
from repro.sdfg.validation import InvalidSDFGError, validate_sdfg
from repro.workloads import kernels, polybench

N = rp.symbol("N")


def _axpy():
    @rp.program
    def axpy(A: rp.float64[N], B: rp.float64[N]):
        for i in rp.map[0:N]:
            with rp.tasklet:
                a << A[i]
                b >> B[i]
                b = 2 * a

    return axpy


def test_to_sdfg_then_compile_validates_once(monkeypatch):
    calls = []
    real = validation.validate_sdfg

    def counting(sdfg, collect_all=False):
        calls.append(sdfg.name)
        return real(sdfg, collect_all)

    monkeypatch.setattr(validation, "validate_sdfg", counting)
    sdfg = _axpy().to_sdfg()
    compiled = compile_sdfg(sdfg, cache="off")
    assert calls == ["axpy"]
    A, B = np.arange(5.0), np.zeros(5)
    compiled(A=A, B=B, N=5)
    np.testing.assert_array_equal(B, 2 * A)


def test_a_graph_propagate_cannot_walk_fails_to_sdfg_with_its_own_code(monkeypatch):
    """The frontend validates a graph only when propagate raises, so the
    error names the broken graph (V205: the tasklet's output lost its
    map exit), not propagate's KeyError."""
    built = []
    real = ProgramParser.parse_body

    def parse_then_drop_the_map_exit(self, body):
        real(self, body)
        built.append(self.sdfg)
        state = self.sdfg.nodes()[-1]
        state.remove_node(next(n for n in state.nodes() if isinstance(n, MapExit)))

    monkeypatch.setattr(ProgramParser, "parse_body", parse_then_drop_the_map_exit)
    with pytest.raises(InvalidSDFGError) as err:
        _axpy().to_sdfg()
    assert err.value.code == "V205"
    with pytest.raises(KeyError, match="no exit node"):
        built[0].propagate()


def test_simplify_validates_before_the_strict_pass(monkeypatch):
    order = []
    real = validation.validate_sdfg
    monkeypatch.setattr(
        validation, "validate_sdfg",
        lambda sdfg, collect_all=False: order.append("validate") or real(sdfg, collect_all),
    )
    monkeypatch.setattr(
        SDFG, "apply_strict_transformations", lambda self: order.append("strict") or 0
    )
    _axpy().to_sdfg(simplify=True)
    assert order == ["validate", "strict"]


# --------------------------------------------- the parse-time self-check
KERNEL_BUILDERS = [
    kernels.matmul_sdfg, kernels.jacobi2d_sdfg, kernels.histogram_sdfg,
    kernels.query_sdfg, kernels.spmv_sdfg, kernels.gemm_chain_sdfg,
]


@pytest.mark.parametrize("name", polybench.all_kernels())
def test_every_polybench_program_has_no_error(name):
    diags = validate_sdfg(polybench.get(name).make_sdfg(), collect_all=True)
    assert [str(d) for d in diags if d.severity >= Severity.ERROR] == []


@pytest.mark.parametrize("build", KERNEL_BUILDERS, ids=lambda b: b.__name__)
def test_every_kernel_builder_has_no_error(build):
    diags = validate_sdfg(build(), collect_all=True)
    assert [str(d) for d in diags if d.severity >= Severity.ERROR] == []


# ------------------------------------------- lints only when collected
def _racy_sdfg():
    """A 2D map writing ``out[i]``: iterations over j overlap."""
    sdfg = SDFG("racy")
    sdfg.add_array("A", ("N", "N"), dtypes.float64)
    sdfg.add_array("out", ("N",), dtypes.float64)
    sdfg.add_state().add_mapped_tasklet(
        "acc",
        {"i": "0:N", "j": "0:N"},
        inputs={"a": Memlet.simple("A", "i, j")},
        code="o = a",
        outputs={"o": Memlet.simple("out", "i")},
    )
    return sdfg


def _instrumented_empty_state_sdfg():
    sdfg = _racy_sdfg()
    empty = sdfg.add_state("empty")
    sdfg.add_edge(sdfg.start_state, empty, InterstateEdge())
    empty.instrument = InstrumentationType.TIMER
    return sdfg


def test_a_racy_map_warns_only_in_collect_mode():
    sdfg = _racy_sdfg()
    assert [d.code for d in validate_sdfg(sdfg, collect_all=True)] == ["W501"]
    assert validate_sdfg(sdfg) == []


def test_a_racy_nested_sdfg_warns_once():
    outer = SDFG("outer")
    outer.add_array("A", ("N", "N"), dtypes.float64)
    outer.add_array("out", ("N",), dtypes.float64)
    state = outer.add_state()
    nested = state.add_nested_sdfg(_racy_sdfg(), {"A"}, {"out"}, {"N": "N"})
    state.add_edge(state.add_read("A"), nested, Memlet.simple("A", "0:N, 0:N"), None, "A")
    state.add_edge(nested, state.add_write("out"), Memlet.simple("out", "0:N"), "out", None)
    assert [d.code for d in validate_sdfg(outer, collect_all=True)] == ["W501"]
    assert validate_sdfg(outer) == []


def test_instrumentation_lint_runs_only_in_collect_mode():
    sdfg = _instrumented_empty_state_sdfg()
    codes = [d.code for d in validate_sdfg(sdfg, collect_all=True)]
    assert codes == ["W501", "W601"]
    assert validate_sdfg(sdfg) == []

"""Fault injection for the transactional transformation engine:
transformations that corrupt the graph (structurally or semantically)
must be contained — rolled back to a byte-identical snapshot — and the
guarded fixpoint must stay safe on every workload."""

import numpy as np
import pytest

import repro as rp
from repro.sdfg import SDFG, InvalidSDFGError, Memlet, dtypes
from repro.sdfg.nodes import Tasklet
from repro.transformations import (
    GuardedOptimizer,
    MapReduceFusion,
    canonical_snapshot,
)
from repro.transformations.base import Transformation

N = rp.symbol("N")


def copy_sdfg():
    sdfg = SDFG("copy")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state()
    st.add_mapped_tasklet(
        "c",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2",
        outputs={"b": Memlet.simple("B", "i")},
    )
    return sdfg


class _Injected(Transformation):
    """Base for fault-injection transformations: always matches."""

    @classmethod
    def expressions(cls):
        return []

    @classmethod
    def matches(cls, sdfg, strict=False):
        yield cls(sdfg, None, {})


class DanglingAccess(_Injected):
    """Structural corruption: access node to an undefined container."""

    def apply(self):
        self.sdfg.states()[0].add_access("__ghost__")


class RankBreaker(_Injected):
    """Structural corruption: memlet subset rank no longer matches."""

    def apply(self):
        st = self.sdfg.states()[0]
        for e in st.edges():
            if not e.data.is_empty():
                e.data.subset = rp.Memlet(data=e.data.data, subset="0, 0, 0").subset


class ExplodingApply(_Injected):
    """The transformation itself crashes mid-rewrite."""

    def apply(self):
        self.sdfg.states()[0].add_access("__half_done__")
        raise RuntimeError("exploded mid-rewrite")


class SilentSemanticsChange(_Injected):
    """Passes validation but changes results: only differential
    verification can catch it."""

    def apply(self):
        for st in self.sdfg.states():
            for n in st.nodes():
                if isinstance(n, Tasklet):
                    n.code = n.code.replace("* 2", "* 3")


@pytest.mark.parametrize(
    "fault", [DanglingAccess, RankBreaker, ExplodingApply], ids=lambda c: c.__name__
)
def test_structural_corruption_rolls_back_byte_identical(fault):
    sdfg = copy_sdfg()
    before = canonical_snapshot(sdfg)
    guard = GuardedOptimizer(sdfg)
    assert guard.apply(fault) is False
    assert canonical_snapshot(sdfg) == before
    att = guard.report.attempts[-1]
    assert att.status == "rolled_back"
    assert att.reason
    # The restored SDFG is still fully usable.
    A = np.random.rand(7)
    B = np.zeros(7)
    sdfg.compile()(A=A, B=B, N=7)
    np.testing.assert_allclose(B, 2 * A)


def test_semantic_corruption_caught_by_differential_verification():
    sdfg = copy_sdfg()
    before = canonical_snapshot(sdfg)
    # Without verification the corruption would slip through validation...
    unguarded = GuardedOptimizer(copy_sdfg(), verify=False)
    assert unguarded.apply(SilentSemanticsChange) is True
    # ...with differential verification it is rolled back.
    guard = GuardedOptimizer(sdfg, verify=True)
    assert guard.apply(SilentSemanticsChange) is False
    assert canonical_snapshot(sdfg) == before
    att = guard.report.attempts[-1]
    assert att.status == "rolled_back"
    assert att.code == "G103"
    assert "diverged" in att.reason


def test_rollback_restores_transformation_history():
    sdfg = copy_sdfg()
    guard = GuardedOptimizer(sdfg)
    guard.apply(DanglingAccess)
    assert "DanglingAccess" not in sdfg.transformation_history


def test_legitimate_transformation_commits():
    @rp.program
    def mm(A: rp.float64[N, N], B: rp.float64[N, N], C: rp.float64[N, N]):
        C = A @ B

    mm._sdfg = None
    sdfg = mm.to_sdfg()
    guard = GuardedOptimizer(sdfg, verify=True)
    assert guard.apply(MapReduceFusion) is True
    att = guard.report.attempts[-1]
    assert att.status == "applied" and att.verified == "ok"
    assert att.max_abs_error is not None and att.max_abs_error <= 1e-8
    assert sdfg.transformation_history == ["MapReduceFusion"]


def test_report_is_machine_readable():
    sdfg = copy_sdfg()
    guard = GuardedOptimizer(sdfg)
    guard.apply(DanglingAccess)
    guard.apply(MapReduceFusion)  # no match on a plain copy
    js = guard.report.to_json()
    assert js["sdfg"] == "copy"
    statuses = [a["status"] for a in js["attempts"]]
    assert statuses == ["rolled_back", "no_match"]
    import json

    json.dumps(js)  # serializable


def test_fixpoint_retires_corrupting_transformation():
    sdfg = copy_sdfg()
    guard = GuardedOptimizer(sdfg)
    applied = guard.apply_to_fixpoint([DanglingAccess], max_applications=100)
    assert applied == 0
    # Exactly one rollback: the corruptor is retired, not retried forever.
    assert len(guard.report.rolled_back()) == 1


@pytest.mark.parametrize("kernel", ["matmul", "jacobi2d", "histogram", "query", "spmv"])
def test_guarded_strict_fixpoint_on_kernel_suite(kernel):
    from repro.workloads import kernels

    sdfg = getattr(kernels, f"{kernel}_sdfg")()
    guard = GuardedOptimizer(sdfg)
    guard.apply_to_fixpoint()  # strict set
    assert not guard.report.rolled_back(), guard.report.summary()
    sdfg.validate()


@pytest.mark.parametrize("name", ["gemm", "jacobi-2d", "atax"])
def test_guarded_strict_fixpoint_on_polybench(name):
    import repro.workloads.polybench as pb

    sdfg = pb.get(name).make_sdfg()
    guard = GuardedOptimizer(sdfg)
    guard.apply_to_fixpoint()
    assert not guard.report.rolled_back(), guard.report.summary()
    sdfg.validate()


def test_an_unverifiable_application_names_the_baselines_failure():
    """cholesky's baseline takes the square root of a negative pivot on
    random inputs: the application is kept as ``skipped``, and its
    reason carries the baseline's exception."""
    import repro.workloads.polybench as pb

    sdfg = pb.get("cholesky").make_sdfg()
    guard = GuardedOptimizer(sdfg, verify=True)
    assert guard.apply("MapTiling") is True
    att = guard.report.attempts[-1]
    assert att.status == "applied" and att.verified == "skipped"
    assert att.reason == (
        "the baseline fails on the verification inputs: "
        "ValueError: math domain error"
    )

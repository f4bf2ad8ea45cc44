"""Events from the compilation pipeline and the guarded optimizer:
phase timings, degradation diagnostics, and W6xx placement lint."""

from repro.codegen import cpp_gen
from repro.codegen.compiler import compile_sdfg
from repro.instrumentation import InstrumentationRecorder, InstrumentationType
from repro.sdfg import SDFG, InterstateEdge
from repro.sdfg.validation import validate_sdfg
from repro.transformations.guard import GuardedOptimizer
from repro.workloads import kernels


class TestCompileReport:
    def test_phase_timings_recorded(self):
        compiled = compile_sdfg(kernels.matmul_sdfg(), backend="python")
        rep = compiled.compile_report
        assert rep is not None and not rep.is_empty()
        flat = rep.flat()
        root = f"compile:{compiled.sdfg.name}"
        assert f"{root}/phase:validate" in flat
        assert f"{root}/phase:propagate" in flat
        assert f"{root}/phase:codegen[python]" in flat
        assert all(
            n.duration is not None and n.duration >= 0
            for p, n in flat.items()
            if "/phase:" in p
        )

    def test_external_recorder_absorbs_pipeline(self):
        rec = InstrumentationRecorder()
        compile_sdfg(kernels.matmul_sdfg(), backend="python", recorder=rec)
        assert rec.is_balanced()
        kinds = {node.kind for node in rec.root.children.values()}
        assert "compile" in kinds


class TestDegradationDiagnostics:
    def test_hops_carry_code_and_message(self, monkeypatch):
        # A failing host toolchain forces the cpp -> python hop; the hop
        # must carry the triggering diagnostic code and exception text.
        def broken_toolchain(cmd, **kw):
            raise OSError("cc: cannot execute binary file\nexec format error")

        monkeypatch.setattr(cpp_gen.subprocess, "run", broken_toolchain)
        compiled = compile_sdfg(kernels.query_sdfg(), backend="cpp")
        assert compiled.backend == "python"
        assert [hop["code"] for hop in compiled.degradation] == ["CG101"]
        for hop in compiled.degradation:
            assert hop["from"] and hop["to"]
            assert hop["error"]
            assert hop["code"], hop
            assert hop["message"], hop
            assert hop["reason"] == hop["message"].splitlines()[0]


class TestGuardTimings:
    def test_attempts_record_phase_timings(self):
        sdfg = kernels.matmul_sdfg()
        guard = GuardedOptimizer(sdfg, verify=True)
        guard.apply_to_fixpoint(["MapReduceFusion"], max_applications=5)
        assert guard.report.attempts
        for attempt in guard.report.attempts:
            assert "snapshot" in attempt.timings
            assert "apply" in attempt.timings
            assert all(v >= 0 for v in attempt.timings.values())
            assert attempt.to_json()["timings"] == attempt.timings
        applied = guard.report.applied()
        assert applied, guard.report.summary()
        assert "validate" in applied[0].timings
        assert "verify" in applied[0].timings


class TestPlacementLint:
    def _lint_sdfg(self):
        sdfg = SDFG("lint")
        s0 = sdfg.add_state("main", is_start=True)
        s1 = sdfg.add_state("empty")
        sdfg.add_edge(s0, s1, InterstateEdge())
        return sdfg, s0, s1

    def test_w601_instrumented_empty_state(self):
        sdfg, _, s1 = self._lint_sdfg()
        s1.instrument = InstrumentationType.TIMER
        codes = {d.code for d in validate_sdfg(sdfg, collect_all=True)}
        assert "W601" in codes

    def test_w602_instrumented_disconnected_node(self):
        sdfg, s0, _ = self._lint_sdfg()
        t = s0.add_tasklet("t", {}, {}, "pass")
        t.instrument = InstrumentationType.COUNTER
        codes = {d.code for d in validate_sdfg(sdfg, collect_all=True)}
        assert "W602" in codes

    def test_w603_instrumented_unreachable_state(self):
        sdfg, _, _ = self._lint_sdfg()
        orphan = sdfg.add_state("orphan")
        orphan.instrument = InstrumentationType.TIMER
        codes = {d.code for d in validate_sdfg(sdfg, collect_all=True)}
        assert "W603" in codes

    def test_clean_instrumented_sdfg_has_no_w6xx(self):
        from repro.instrumentation import instrument_map_scopes

        sdfg = kernels.matmul_sdfg()
        sdfg.instrument = InstrumentationType.TIMER
        instrument_map_scopes(sdfg)
        codes = {d.code for d in validate_sdfg(sdfg, collect_all=True)}
        assert not codes & {"W601", "W602", "W603"}, codes

    def test_warnings_never_raise_in_fail_fast_mode(self):
        sdfg, _, s1 = self._lint_sdfg()
        s1.instrument = InstrumentationType.TIMER
        sdfg.validate()  # W601 present, but warnings don't raise

    def test_codes_registered(self):
        from repro.diagnostics import CODES

        for code in ("W601", "W602", "W603"):
            assert code in CODES

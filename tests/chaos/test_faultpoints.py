"""Faults injected at real product fault points exercise the genuine
hardening paths: quarantine-on-read, best-effort stores, the backend
degradation chain, and watchdog deadlines."""

import os

import numpy as np
import pytest

from repro.chaos import ChaosFault, FaultPlan, install_plan, uninstall_engine
from repro.codegen.compiler import compile_sdfg
from repro.codegen.progcache import ProgramCache, ProgramCacheEntry
from repro.sdfg import SDFG, Memlet, dtypes


def scale_sdfg(name="chaos_scale"):
    sdfg = SDFG(name)
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


def entry(key="k1"):
    return ProgramCacheEntry(
        key=key, backend="python", sdfg_name="s",
        source="def run():\n    pass\n", arg_arrays=["A"], symbol_order=["N"],
    )


# ------------------------------------------------------- program cache
def test_torn_progcache_write_is_quarantined_on_the_next_read(tmp_path):
    cache_dir = str(tmp_path / "cache")
    install_plan(FaultPlan.parse("progcache.disk_write:corrupt@hit=1,seed=3"))
    ProgramCache(cache_dir=cache_dir).store("k1", entry())
    uninstall_engine()

    path = os.path.join(cache_dir, "k1.json")
    assert os.path.exists(path), "the torn write still landed a file"

    fresh = ProgramCache(cache_dir=cache_dir)  # cold memory tier
    assert fresh.lookup("k1") is None
    assert fresh.stats()["corrupt"] == 1 and fresh.stats()["misses"] == 1
    assert not os.path.exists(path), "the torn entry was removed"


def test_failed_progcache_store_is_swallowed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    install_plan(FaultPlan.parse("progcache.disk_write:raise-io@hit=1"))
    cache = ProgramCache(cache_dir=cache_dir)
    cache.store("k1", entry())  # must not raise
    uninstall_engine()
    assert cache.lookup("k1") is not None, "the memory tier still serves it"
    assert not os.path.exists(os.path.join(cache_dir, "k1.json"))
    assert not any(".tmp." in n for n in os.listdir(cache_dir)), \
        "no staging file was leaked"


def test_progcache_read_error_counts_as_a_miss(tmp_path):
    cache_dir = str(tmp_path / "cache")
    ProgramCache(cache_dir=cache_dir).store("k1", entry())
    install_plan(FaultPlan.parse("progcache.disk_read:raise-io@hit=1"))
    fresh = ProgramCache(cache_dir=cache_dir)
    assert fresh.lookup("k1") is None
    assert fresh.stats()["misses"] == 1


# -------------------------------------------------------- tuning cache
def test_tuning_cache_store_tolerates_disk_full(tmp_path):
    from repro.tuning.cache import TuningCache

    install_plan(FaultPlan.parse("tuningcache.disk_write:enospc@p=1"))
    cache = TuningCache(str(tmp_path / "tuning"))
    cache.put("key1", {"schedule": "best"})  # must not raise
    uninstall_engine()
    assert not any(
        ".tmp." in name
        for _, _, names in os.walk(str(tmp_path / "tuning"))
        for name in names
    )


# ----------------------------------------------------------- codegen
def test_codegen_fault_rides_the_degradation_chain():
    """``raise-io`` at compiler.codegen is an OSError — a degradable
    error — so the python backend degrades to the interpreter and the
    program still runs correctly."""
    install_plan(FaultPlan.parse("compiler.codegen:raise-io@hit=1"))
    compiled = compile_sdfg(scale_sdfg(), backend="python")
    uninstall_engine()
    assert compiled.requested_backend == "python"
    assert compiled.backend == "interpreter"
    assert [rec["to"] for rec in compiled.degradation] == ["interpreter"]
    a = np.random.rand(8)
    ref = a * 2
    compiled(A=a, N=8)
    np.testing.assert_allclose(a, ref)


# ----------------------------------------------------------- watchdog
def test_checkpoint_delay_trips_a_genuine_deadline():
    from repro.runtime.watchdog import WatchdogViolation

    install_plan(FaultPlan.parse("watchdog.checkpoint:delay@p=1,ms=400"))
    compiled = compile_sdfg(scale_sdfg("chaos_slow"), backend="python",
                            deadline=0.2)
    a = np.random.rand(64)
    with pytest.raises(WatchdogViolation) as exc:
        compiled(A=a, N=64)
    assert exc.value.code == "R805"


# ---------------------------------------------------------- arguments
def test_marshal_fault_surfaces_before_execution():
    install_plan(FaultPlan.parse("arguments.marshal:raise@hit=1"))
    compiled = compile_sdfg(scale_sdfg("chaos_args"), backend="python")
    with pytest.raises(ChaosFault):
        compiled(A=np.random.rand(8), N=8)

"""Persistent compiled-program cache: keying, warm compiles, disk tier,
quarantine, and the cache-selection knobs."""

import json
import os

import numpy as np
import pytest

from repro.codegen import compile_sdfg
from repro.codegen import progcache
from repro.codegen.progcache import (
    ProgramCache,
    ProgramCacheEntry,
    program_key,
    resolve_cache,
)
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.serialize import content_hash, sdfg_from_json, sdfg_to_json
from repro.workloads import kernels


def phases(compiled):
    root = f"compile:{compiled.sdfg.name}"
    prefix = f"{root}/phase:"
    return sorted(
        p[len(prefix) :]
        for p in compiled.compile_report.flat()
        if p.startswith(prefix)
    )


class TestKeying:
    def test_mutations_change_key(self):
        base = kernels.matmul_sdfg()
        k0 = program_key(content_hash(base), "python")

        renamed = kernels.matmul_sdfg()
        renamed.name = "other"
        assert program_key(content_hash(renamed), "python") != k0

        from repro.symbolic import Subset

        ranged = kernels.matmul_sdfg()
        for state in ranged.nodes():
            for node in state.nodes():
                if hasattr(node, "map") and node.map.range.dims == 3:
                    node.map.range = Subset.from_string("0:M, 0:N, 1:K")
        assert program_key(content_hash(ranged), "python") != k0

        edited = kernels.matmul_sdfg()
        for state in edited.nodes():
            for node in state.nodes():
                if hasattr(node, "code"):
                    node.code = node.code + " * 2"
        assert program_key(content_hash(edited), "python") != k0

    def test_backend_and_version_in_key(self):
        h = content_hash(kernels.matmul_sdfg())
        assert program_key(h, "python") != program_key(h, "cpp")

    def test_serialize_roundtrip_preserves_key(self):
        sdfg = kernels.matmul_sdfg()
        clone = sdfg_from_json(sdfg_to_json(sdfg))
        assert content_hash(clone) == content_hash(sdfg)
        assert program_key(content_hash(clone), "python") == program_key(
            content_hash(sdfg), "python"
        )


class TestWarmCompile:
    def test_second_compile_skips_codegen(self):
        cache = ProgramCache()
        cold = compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        assert not cold.cache_hit
        assert "codegen[python]" in phases(cold)

        warm = compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        assert warm.cache_hit
        ph = phases(warm)
        assert "progcache[hit]" in ph
        assert not any(p.startswith("codegen") for p in ph)
        assert not any(p.startswith("validate") for p in ph)

        data = kernels.matmul_data(24)
        ref = kernels.matmul_reference(data)
        warm(**data)
        np.testing.assert_allclose(data["C"], ref, rtol=1e-12)
        assert cache.stats()["hits"] >= 1

    def test_hand_built_graph_is_stored_once_and_hits_again(self):
        """A hand-built graph, whose outer memlets propagation rewrites,
        gets one entry keyed on its propagated form: the same object
        compiled again hits, and so does a fresh unpropagated copy."""

        def make():
            sdfg = SDFG("hand_built")
            sdfg.add_array("A", ("N",), dtypes.float64)
            sdfg.add_state().add_mapped_tasklet(
                "s", {"i": "0:N"}, inputs={"a": Memlet.simple("A", "i")},
                code="b = a * 2", outputs={"b": Memlet.simple("A", "i")},
            )
            return sdfg

        sdfg = make()
        before = content_hash(sdfg)
        cache = ProgramCache()
        assert not compile_sdfg(sdfg, cache=cache).cache_hit
        assert content_hash(sdfg) != before, "propagation rewrote the graph"
        assert compile_sdfg(sdfg, cache=cache).cache_hit
        assert compile_sdfg(make(), cache=cache).cache_hit
        assert cache.stats()["stores"] == 1

    def test_different_sdfgs_do_not_collide(self):
        cache = ProgramCache()
        compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        other = compile_sdfg(kernels.histogram_sdfg(), cache=cache)
        assert not other.cache_hit


class TestDiskTier:
    def test_cross_process_style_hit(self, tmp_path):
        d = str(tmp_path / "pc")
        compile_sdfg(kernels.matmul_sdfg(), cache=ProgramCache(cache_dir=d))
        # Fresh cache object over the same directory = a new process.
        fresh = ProgramCache(cache_dir=d)
        warm = compile_sdfg(kernels.matmul_sdfg(), cache=fresh)
        assert warm.cache_hit
        data = kernels.matmul_data(16)
        warm(**data)
        np.testing.assert_allclose(
            data["C"], kernels.matmul_reference(data), rtol=1e-12
        )

    def test_corrupt_entry_quarantined_as_miss(self, tmp_path):
        d = str(tmp_path / "pc")
        cache = ProgramCache(cache_dir=d)
        compile_sdfg(kernels.matmul_sdfg(), cache=cache)
        (entry_file,) = [f for f in os.listdir(d) if f.endswith(".json")]
        path = os.path.join(d, entry_file)
        with open(path, "w") as f:
            f.write("{not json")
        fresh = ProgramCache(cache_dir=d)
        key = entry_file[: -len(".json")]
        assert fresh.lookup(key) is None
        assert fresh.stats()["corrupt"] == 1 and fresh.stats()["misses"] == 1
        assert not os.path.exists(path), "corrupt entry must be deleted"

    def test_schema_mismatch_quarantined(self, tmp_path):
        d = str(tmp_path / "pc")
        os.makedirs(d)
        key = "0" * 64
        with open(os.path.join(d, f"{key}.json"), "w") as f:
            json.dump({"schema": 999, "key": key}, f)
        cache = ProgramCache(cache_dir=d)
        assert cache.lookup(key) is None
        assert cache.stats()["corrupt"] == 1

    def test_disk_lru_eviction(self, tmp_path):
        d = str(tmp_path / "pc")
        cache = ProgramCache(cache_dir=d, max_entries=2)
        for i in range(4):
            key = f"{i:064d}"
            entry = ProgramCacheEntry(
                key=key,
                backend="python",
                sdfg_name=f"s{i}",
                source="def main(): pass",
                arg_arrays=[],
                symbol_order=[],
            )
            os.utime(d)  # keep mtimes distinct enough on coarse filesystems
            cache.store(key, entry)
        files = [f for f in os.listdir(d) if f.endswith(".json")]
        assert len(files) == 2
        assert cache.stats()["evictions"] >= 2


class TestMemoryLRU:
    def test_memory_eviction(self):
        cache = ProgramCache(max_entries=2)
        for i in range(3):
            entry = ProgramCacheEntry(
                key=str(i), backend="python", sdfg_name="s",
                source="", arg_arrays=[], symbol_order=[],
            )
            cache.store(str(i), entry)
        assert cache.stats()["memory_entries"] == 2
        assert cache.lookup("0") is None  # oldest evicted
        assert cache.lookup("2") is not None


class TestResolveCache:
    def test_modes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None  # off by default
        assert resolve_cache("off") is None
        assert resolve_cache("memory") is progcache.shared_cache()
        inst = ProgramCache()
        assert resolve_cache(inst) is inst
        with pytest.raises(ValueError):
            resolve_cache("bogus")

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cache = resolve_cache(None)
        assert isinstance(cache, ProgramCache)
        assert cache.cache_dir == os.path.realpath(str(tmp_path / "env"))
        monkeypatch.setenv("REPRO_CACHE", "memory")
        assert resolve_cache(None) is progcache.shared_cache()
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert resolve_cache(None) is None


class TestWarningsSurvive:
    def test_codegen_warnings_rehydrated_on_hit(self):
        sdfg = SDFG("customred_cache")
        sdfg.add_array("A", ("M", "N"), dtypes.float64)
        sdfg.add_array("out", ("M",), dtypes.float64)
        st = sdfg.add_state()
        r = st.add_reduce("lambda a, b: a + 2 * b", axes=(1,))
        st.add_edge(st.add_read("A"), r, Memlet.simple("A", "0:M, 0:N"), None, "IN_1")
        st.add_edge(r, st.add_write("out"), Memlet.simple("out", "0:M"), "OUT_1", None)

        cache = ProgramCache()
        cold = compile_sdfg(sdfg_from_json(sdfg_to_json(sdfg)), cache=cache)
        assert any(w.code == "W701" for w in cold.codegen_warnings)
        warm = compile_sdfg(sdfg_from_json(sdfg_to_json(sdfg)), cache=cache)
        assert warm.cache_hit
        assert any(w.code == "W701" for w in warm.codegen_warnings)

"""The persistent content-addressed tuning cache: keying, LRU eviction,
corrupt-entry tolerance, and instrumented hit/miss counters."""

import os

from repro.telemetry.sink import TelemetrySink, install_sink
from repro.transformations import apply_match
from repro.tuning import TuningCache
from repro.workloads import kernels


def _entry(history):
    return {"history": history, "score": 1.0, "baseline_score": 2.0}


class TestKeying:
    def test_key_covers_graph_config_and_cost(self, tmp_path):
        cache = TuningCache(str(tmp_path))
        sdfg = kernels.matmul_sdfg()
        base = cache.key(sdfg, "cfg", "cost")
        assert cache.key(sdfg, "cfg", "cost") == base  # deterministic
        assert cache.key(sdfg, "cfg2", "cost") != base
        assert cache.key(sdfg, "cfg", "cost2") != base
        other = kernels.matmul_sdfg()
        apply_match(other, "MapReduceFusion")
        assert cache.key(other, "cfg", "cost") != base

    def test_key_ignores_transformation_history(self, tmp_path):
        cache = TuningCache(str(tmp_path))
        a, b = kernels.matmul_sdfg(), kernels.matmul_sdfg()
        b.transformation_history.append("Phantom")
        assert cache.key(a, "c", "p") == cache.key(b, "c", "p")


class TestStore:
    def test_round_trip_and_counters(self, tmp_path):
        cache = TuningCache(str(tmp_path))
        assert cache.get("0" * 64) is None
        cache.put("0" * 64, _entry([{"transformation": "MapFusion", "match": 0}]))
        entry = cache.get("0" * 64)
        assert entry["history"] == [{"transformation": "MapFusion", "match": 0}]
        assert entry["score"] == 1.0
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0}

    def test_persists_across_instances(self, tmp_path):
        TuningCache(str(tmp_path)).put("a" * 64, _entry([]))
        fresh = TuningCache(str(tmp_path))
        assert fresh.get("a" * 64) is not None

    def test_lru_eviction(self, tmp_path):
        cache = TuningCache(str(tmp_path), max_entries=2)
        for i, key in enumerate(("a" * 64, "b" * 64)):
            cache.put(key, _entry([]))
            # Distinct, ordered mtimes (same-second writes otherwise tie).
            os.utime(cache.disk.path(key), (100 + i, 100 + i))
        cache.put("c" * 64, _entry([]))
        assert cache.stats()["evictions"] == 1
        assert cache.get("a" * 64) is None  # stalest entry evicted
        assert cache.get("b" * 64) is not None
        assert cache.get("c" * 64) is not None

    def test_get_refreshes_recency(self, tmp_path):
        cache = TuningCache(str(tmp_path), max_entries=2)
        for i, key in enumerate(("a" * 64, "b" * 64)):
            cache.put(key, _entry([]))
            os.utime(cache.disk.path(key), (100 + i, 100 + i))
        assert cache.get("a" * 64) is not None  # touch: now the newest
        cache.put("c" * 64, _entry([]))
        assert cache.get("a" * 64) is not None
        assert cache.get("b" * 64) is None


class TestCorruptEntries:
    def test_garbage_file_is_a_tolerated_miss(self, tmp_path):
        cache = TuningCache(str(tmp_path))
        key = "d" * 64
        with open(cache.disk.path(key), "w") as f:
            f.write("{not json")
        assert cache.get(key) is None
        assert not os.path.exists(cache.disk.path(key))  # quarantined
        assert cache.stats()["misses"] == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = TuningCache(str(tmp_path))
        key = "e" * 64
        cache.put(key, _entry([]))
        with open(cache.disk.path(key), "w") as f:
            f.write('{"schema": 999, "key": "%s", "history": []}' % key)
        assert cache.get(key) is None
        assert not os.path.exists(cache.disk.path(key))


class TestInstrumentation:
    def test_hit_miss_store_events_on_sink_and_stats(self, tmp_path):
        sink = TelemetrySink()
        previous = install_sink(sink)
        try:
            cache = TuningCache(str(tmp_path))
            cache.get("f" * 64)
            cache.put("f" * 64, _entry([]))
            cache.get("f" * 64)
        finally:
            install_sink(previous)
        events, _, _ = sink.drain(0)
        assert [(e.kind, e.label, e.fields) for e in events] == [
            ("cache", "tuning", {"event": what, "n": 1})
            for what in ("miss", "store", "hit")
        ]
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0}

"""Windowed-aggregation edge cases (ISSUE 7 satellite): empty windows,
clock-skewed events, overflow drop accounting, single-event percentiles,
plus the fold taxonomy (caches, tenants, breakers, hot spots)."""

from repro.telemetry.aggregate import (
    WindowedAggregator,
    merge_cache_counters,
    merge_tenant_counters,
    percentile,
)
from repro.telemetry.sink import TelemetrySink


def make_aggregator(capacity=64, window_seconds=10.0, max_windows=3):
    sink = TelemetrySink(capacity=capacity)
    return sink, WindowedAggregator(
        sink, window_seconds=window_seconds, max_windows=max_windows
    )


# ------------------------------------------------------------- percentiles
def test_percentile_of_nothing_is_none():
    assert percentile([], 50) is None


def test_single_sample_is_every_percentile_of_itself():
    for q in (0, 50, 95, 99, 100):
        assert percentile([0.25], q) == 0.25


def test_percentile_linear_interpolation():
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0


# ------------------------------------------------------------ empty windows
def test_snapshot_with_no_events_is_empty_but_well_formed():
    _, agg = make_aggregator()
    snap = agg.snapshot()
    assert snap["windows"] == []
    assert snap["kernels"] == {}
    assert snap["totals"] == {
        "events": 0, "dropped": 0, "skewed": 0, "windows": 0,
    }
    assert snap["breaker_states"] == {}


def test_single_event_snapshot_percentiles():
    sink, agg = make_aggregator()
    sink.publish("kernel", "gemm", 0.125, ts=100.0, fields={"warm": True})
    snap = agg.snapshot()
    stats = snap["kernels"]["gemm"]
    assert stats["count"] == 1
    assert stats["p50"] == stats["p95"] == stats["p99"] == 0.125
    assert stats["mean"] == 0.125 and stats["max"] == 0.125
    assert stats["warm"] == 1 and stats["cold"] == 0


# ---------------------------------------------------------------- rotation
def test_windows_rotate_by_event_timestamp_and_evict():
    sink, agg = make_aggregator(window_seconds=10.0, max_windows=3)
    for window_idx in range(5):  # windows 0..4, retention 3 → keep 2,3,4
        sink.publish("kernel", "k", 0.01, ts=window_idx * 10.0 + 1.0)
    snap = agg.snapshot()
    assert len(snap["windows"]) == 3
    starts = [w["start"] for w in snap["windows"]]
    assert starts == [40.0, 30.0, 20.0]  # newest first
    # Merged kernels only see retained windows.
    assert snap["kernels"]["k"]["count"] == 3


def test_clock_skewed_events_fold_into_oldest_window():
    sink, agg = make_aggregator(window_seconds=10.0, max_windows=2)
    sink.publish("kernel", "fresh", 0.01, ts=100.0)
    sink.publish("kernel", "fresh", 0.01, ts=110.0)
    agg.collect()
    # An event from far before the retention horizon (late worker
    # propagation, clock skew) must not crash rotation or vanish.
    sink.publish("kernel", "late", 0.02, ts=5.0)
    snap = agg.snapshot()
    assert snap["totals"]["skewed"] == 1
    oldest = snap["windows"][-1]
    assert oldest["skewed"] == 1
    assert "late" in oldest["kernels"]
    # It did NOT open a new window in the past.
    assert all(w["start"] >= 100.0 for w in snap["windows"])


def test_ring_overflow_is_charged_to_totals_and_newest_window():
    sink, agg = make_aggregator(capacity=8, window_seconds=1e6)
    for i in range(30):
        sink.publish("kernel", "k", 0.001, ts=50.0)
    snap = agg.snapshot()
    assert snap["totals"]["dropped"] == 22
    assert snap["totals"]["events"] == 8
    assert snap["windows"][0]["dropped"] == 22
    assert snap["kernels"]["k"]["count"] == 8


def test_worker_drop_events_accumulate_into_totals():
    sink, agg = make_aggregator()
    # The supervisor republishes a worker's overflow as a "drop" event.
    sink.publish("drop", "w1", 17.0, ts=10.0)
    snap = agg.snapshot()
    assert snap["totals"]["dropped"] == 17


# ---------------------------------------------------------------- taxonomy
def test_cache_tenant_breaker_and_hotspot_folds():
    sink, agg = make_aggregator(window_seconds=100.0)
    ts = 10.0
    sink.publish("cache", "progcache", ts=ts, fields={"event": "hit", "n": 3})
    sink.publish("cache", "progcache", ts=ts, fields={"event": "miss"})
    sink.publish("cache", "progcache", ts=ts, fields={"event": "store"})
    sink.publish("request", "execute", ts=ts,
                 fields={"tenant": "alice", "status": "ok"})
    sink.publish("request", "execute", ts=ts,
                 fields={"tenant": "alice", "status": "rejected"})
    sink.publish("request", "execute", ts=ts,
                 fields={"tenant": "bob", "status": "error"})
    sink.publish("breaker", "alice", ts=ts,
                 fields={"old": "closed", "new": "open"})
    sink.publish("breaker", "alice", ts=ts + 1,
                 fields={"old": "open", "new": "half-open"})
    sink.publish("map", "state0/mm", 0.5, ts=ts,
                 fields={"volume_bytes": 4096})
    sink.publish("map", "state0/other", 0.1, ts=ts)

    snap = agg.snapshot()
    window = snap["windows"][0]

    caches = window["caches"]["progcache"]
    assert caches["hit"] == 3 and caches["miss"] == 1 and caches["store"] == 1
    assert caches["hit_rate"] == 0.75

    tenants = window["tenants"]
    assert tenants["alice"] == {
        "requests": 2, "ok": 1, "rejected": 1, "errors": 0,
    }
    assert tenants["bob"]["errors"] == 1

    assert [t[1:] for t in window["breaker_transitions"]] == [
        ["alice", "closed", "open"], ["alice", "open", "half-open"],
    ]
    assert snap["breaker_states"] == {"alice": "half-open"}

    by_time = window["hotspots"]["by_time"]
    assert by_time[0]["element"] == "map:state0/mm"
    assert by_time[0]["seconds"] == 0.5
    by_volume = window["hotspots"]["by_volume"]
    assert by_volume == [{"element": "map:state0/mm", "bytes": 4096}]


def test_cross_window_merges():
    sink, agg = make_aggregator(window_seconds=10.0, max_windows=5)
    for window_idx in (0, 1):
        ts = window_idx * 10.0 + 1.0
        sink.publish("request", "execute", ts=ts,
                     fields={"tenant": "alice", "status": "ok"})
        sink.publish("cache", "tuning", ts=ts, fields={"event": "hit"})
        sink.publish("cache", "tuning", ts=ts, fields={"event": "miss"})
    snap = agg.snapshot()
    assert merge_tenant_counters(snap)["alice"]["requests"] == 2
    merged = merge_cache_counters(snap)["tuning"]
    assert merged["hit"] == 2 and merged["miss"] == 2
    assert merged["hit_rate"] == 0.5

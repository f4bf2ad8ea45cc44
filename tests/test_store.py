"""The on-disk store shared by the program cache, the tuning cache, crash
bundles and fsck: pinned keys and entry bytes, and atomic publication
under same-process concurrency."""

import hashlib
import json
import os
import sys
import threading

import repro.tuning.cache as tuning_cache
from repro.codegen.progcache import ProgramCache, ProgramCacheEntry, program_key
from repro.store import Store
from repro.tuning.cache import TuningCache

# Digests and entry-file hashes: equal values mean caches written by older
# builds stay warm with no schema bump.  The program pins were re-recorded
# at CODEGEN_VERSION 6 (every two-operand contraction is one ``@``), which
# is part of every program key and entry, so programs generated by
# version-5 builds are deliberately cold; re-recorded again at version 7
# (one thread tier), 8 (the generator decides which maps to chunk), 9
# (large scatter maps run in strips), 10 (destination passing), 11
# (scalar code on Python numbers) and 12 (no thread tier).
# The tuning key pin predates the store; the tuning entry pin was
# re-recorded at tuning CACHE_SCHEMA_VERSION 2 and again at 3 (each
# time the entry's "schema" field is the only byte that moved).
PROGRAM_KEY = "79c09a1337dbef380cdd540c67b8b1adacac8631c8c44c9672352bc4757e5f72"
PROGRAM_KEY_VARIANT = "914426a211585a2e9ce4071e7d762317ed4870e83ba60077abe04885f2d5ffd1"
TUNING_KEY = "a6e0cfb9b97890493e3b38fe58d9ca424f63b75cd61a759ab119bb44c9250aae"
PROGRAM_ENTRY_SHA = "86596094af18b11645bd272a7292d3e5939c0b8348030f5d4363c2e9e38d04c1"
TUNING_ENTRY_SHA = "de928ee5724a979ccc569a285e639894f8eba7998f42d719fa5c9aabbeb822bc"


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _program_entry(key):
    return ProgramCacheEntry(
        key=key, backend="python", sdfg_name="pinned",
        source="def pinned(A, N):\n    A[:N] *= 2\n",
        arg_arrays=["A"], symbol_order=["N"],
        warnings=[{"code": "W701", "message": "m"}],
        lowering=[{"map": "m0", "tier": "slice"}],
    )


def test_keys_are_pinned(tmp_path, monkeypatch):
    assert program_key("0123456789abcdef", "python") == PROGRAM_KEY
    assert program_key("0123456789abcdef", "cpp", "sanitize") == PROGRAM_KEY_VARIANT
    monkeypatch.setattr(tuning_cache, "content_hash", lambda sdfg: "fedcba9876543210")
    assert TuningCache(str(tmp_path)).key(None, "cfg", "cost") == TUNING_KEY


def test_entry_files_are_pinned(tmp_path):
    program_dir = str(tmp_path / "programs")
    ProgramCache(program_dir).store(PROGRAM_KEY, _program_entry(PROGRAM_KEY))
    path = os.path.join(program_dir, f"{PROGRAM_KEY}.json")
    assert _sha(path) == PROGRAM_ENTRY_SHA

    tuning = TuningCache(str(tmp_path / "tuning"))
    key = "a" * 64
    tuning.put(key, {
        "sdfg": "pinned",
        "history": [{"transformation": "MapTiling", "match": 0,
                     "options": {"tile_sizes": [32]}}],
        "score": 0.5,
        "baseline_score": 1.0,
    })
    assert _sha(tuning.disk.path(key)) == TUNING_ENTRY_SHA

    # ... and the pinned bytes read back as hits from a cold instance.
    hit = ProgramCache(program_dir).lookup(PROGRAM_KEY)
    assert hit is not None and hit[0].sdfg_name == "pinned"
    assert TuningCache(str(tmp_path / "tuning")).get(key)["score"] == 0.5


def test_puts_scan_the_directory_only_past_the_cap(tmp_path, monkeypatch):
    """A put lists the directory only when its known entry count passes
    the cap, and an evicting scan leaves ``max_entries // 16`` headroom."""
    scans = [0]
    entries = Store._entries

    def counting(self):
        scans[0] += 1
        return entries(self)

    monkeypatch.setattr(Store, "_entries", counting)
    root = tmp_path / "store"
    store = Store(str(root), "t", 1, read_point="t.read", write_point="t.write",
                  max_entries=256)
    keys = [f"{i:064x}" for i in range(856)]
    for key in keys[:200]:
        store.put(key, {})
    assert scans[0] == 1, "200 new keys under the cap: only the first put scans"
    for key in keys[200:256]:
        store.put(key, {})
    assert scans[0] == 1

    for key in keys[256:]:  # 600 new keys at the cap
        store.put(key, {})
    assert 1 <= scans[0] - 1 <= 600 // 16 + 1
    on_disk = len([n for n in os.listdir(root) if n.endswith(".json")])
    assert 256 - 256 // 16 <= on_disk <= 256
    assert store.counts["evict"] == 856 - on_disk

    before = scans[0]
    for key in keys[-100:]:  # overwrites of resident keys
        store.put(key, {"again": True})
    assert scans[0] == before, "an overwrite never scans"


def test_threads_sharing_a_store_lose_no_entry_count(tmp_path):
    """Threads publishing new keys and overwriting old ones through one
    store never leave its entry count short of the directory's (a put
    racing the first scans may be counted twice, which only brings the
    next scan forward)."""
    root = tmp_path / "store"
    store = Store(str(root), "t", 1, read_point="t.read", write_point="t.write",
                  max_entries=4096)
    barrier = threading.Barrier(8)

    def write(n):
        barrier.wait()
        for i in range(60):
            store.put(f"{n:032x}{i % 40:032x}", {"i": i})

    threads = [threading.Thread(target=write, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    on_disk = len([n for n in os.listdir(root) if n.endswith(".json")])
    assert on_disk == 8 * 40
    assert on_disk <= store._entry_count <= on_disk + 8 * 8


def test_a_put_racing_a_scan_is_not_lost(tmp_path, monkeypatch):
    """A key published after a scan listed the directory, but before the
    scan set its count, must still be counted."""
    store = Store(str(tmp_path / "store"), "t", 1, read_point="t.read",
                  write_point="t.write", max_entries=8)
    store.put("a" * 64, {})  # the first put scans: count 1
    listed, published = threading.Event(), threading.Event()
    entries = Store._entries

    def listing_then_pause(self):
        out = entries(self)
        listed.set()
        published.wait(timeout=0.3)  # a put may land here unless it waits
        return out

    monkeypatch.setattr(Store, "_entries", listing_then_pause)
    scan = threading.Thread(target=store.evict)
    scan.start()
    assert listed.wait(timeout=30)

    def put():
        store.put("b" * 64, {})
        published.set()

    writer = threading.Thread(target=put)
    writer.start()
    for t in (scan, writer):
        t.join(timeout=30)
    assert not scan.is_alive() and not writer.is_alive()
    assert store._entry_count == 2


def test_same_process_writers_never_publish_torn_entries(tmp_path):
    """Threads of one process storing one key (the per-directory cache
    registry shares instances, and serve threads share directories) must
    each stage privately: a concurrent reader sees only whole entries."""
    cache_dir = str(tmp_path / "cache")
    caches = [ProgramCache(cache_dir), ProgramCache(cache_dir)]
    key = program_key("torn", "python")
    path = os.path.join(cache_dir, f"{key}.json")
    # Large enough that a truncating writer is caught mid-file.
    source = "def entry():\n" + "    pass\n" * 4000
    writers_done = threading.Event()
    barrier = threading.Barrier(9)
    torn, reads = [], [0]

    def write(cache, n):
        barrier.wait()
        for i in range(100):
            cache.store(key, ProgramCacheEntry(
                key=key, backend="python", sdfg_name=f"w{n}_{i}", source=source,
                arg_arrays=["A"], symbol_order=["N"]))

    def read():
        barrier.wait()
        while not writers_done.is_set():
            try:
                with open(path) as f:
                    raw = f.read()
            except FileNotFoundError:
                continue
            reads[0] += 1
            try:
                json.loads(raw)
            except ValueError:
                torn.append(len(raw))

    writers = [threading.Thread(target=write, args=(caches[n % 2], n)) for n in range(8)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers + [reader]:
            t.start()
        for t in writers:
            t.join(timeout=120)
        writers_done.set()
        reader.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + [reader])
    assert reads[0] > 0, "the reader never observed the entry"
    assert not torn, f"{len(torn)} of {reads[0]} reads saw a torn entry"
    assert not [n for n in os.listdir(cache_dir) if ".tmp." in n]
    assert sum(c.stats()["stores"] for c in caches) == 800, "no lost counter update"
    fresh = ProgramCache(cache_dir)
    assert fresh.lookup(key) is not None and fresh.stats()["corrupt"] == 0

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
from repro.tuning.cache import TuningCache

# Digests and entry-file hashes recorded before the caches moved onto
# repro.store: equal values mean caches written by older builds stay warm
# with no CODEGEN_VERSION or schema bump.
PROGRAM_KEY = "e1b09a34b819b8ef1bbe0d97a4ced62b745c5b7610c90a3326496b9b65d73193"
PROGRAM_KEY_VARIANT = "5dc36a45d3b3c519ebdafa773e712de5be97d151620ed282d124e3733926fb35"
TUNING_KEY = "a6e0cfb9b97890493e3b38fe58d9ca424f63b75cd61a759ab119bb44c9250aae"
PROGRAM_ENTRY_SHA = "6f77400c651bf05e2cb410904d426397e02450a024b64dab1553fed825e78b51"
TUNING_ENTRY_SHA = "471abd604466f76b1cf682b9379a65768e9e5c1768102b8f4ef6eed5d5fd38f3"


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

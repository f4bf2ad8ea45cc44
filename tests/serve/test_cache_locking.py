"""Cross-process safety of the disk cache tiers and the file lock.

Two real processes hammer one cache directory (stores force constant
LRU eviction, lookups race the evictions); the invariants are "no
process crashes" and "the directory converges to a consistent state".
"""

import json
import os
import subprocess
import sys

import pytest

from repro.filelock import FileLock, LockTimeout
from repro.store import Store

#: The repo's src/ directory, independent of pytest's cwd.
SRC = os.path.realpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def run_procs(scripts, tmp_path, timeout=180):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    procs = [
        subprocess.Popen([sys.executable, "-c", script], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         cwd=str(tmp_path))
        for script in scripts
    ]
    outputs = []
    for p in procs:
        out, _ = p.communicate(timeout=timeout)
        outputs.append((p.returncode, out.decode(errors="replace")))
    return outputs


# -------------------------------------------------------------- FileLock
def test_filelock_mutual_exclusion_across_processes(tmp_path):
    """Two processes do read-modify-write cycles on one counter file
    under the lock; a lost update proves a mutual-exclusion hole."""
    counter = tmp_path / "counter.txt"
    counter.write_text("0")
    script = f"""
import sys
sys.path.insert(0, {SRC!r})
from repro.filelock import FileLock
lock = FileLock({str(counter.with_suffix(".lock"))!r}, timeout=60.0)
for _ in range(150):
    with lock:
        with open({str(counter)!r}) as f:
            value = int(f.read())
        with open({str(counter)!r}, "w") as f:
            f.write(str(value + 1))
print("done")
"""
    results = run_procs([script, script], tmp_path)
    for code, out in results:
        assert code == 0, out
    assert int(counter.read_text()) == 300, "lost update: lock is not exclusive"


def test_filelock_timeout_and_context_manager(tmp_path):
    path = str(tmp_path / "x.lock")
    outer = FileLock(path, timeout=0.2)
    assert outer.acquire()
    inner = FileLock(path, timeout=0.2)
    assert inner.acquire(best_effort=True) is False, "best-effort returns False"
    with pytest.raises(LockTimeout):
        with FileLock(path, timeout=0.2):
            pass
    outer.release()
    with FileLock(path, timeout=1.0):
        pass  # freed lock is acquirable again


def test_cache_lock_helper(tmp_path):
    """A store's multi-file operations hold ``<root>/.lock``."""
    store = Store(str(tmp_path), "t", 1, read_point="t.read", write_point="t.write")
    path = os.path.join(str(tmp_path), ".lock")
    with store.locked():
        assert os.path.exists(path)
        assert FileLock(path, timeout=0.1).acquire(best_effort=True) is False
    probe = FileLock(path, timeout=0.1)
    assert probe.acquire(best_effort=True), "released on exit"
    probe.release()


# ----------------------------------------------------- ProgramCache tier
PROGCACHE_HAMMER = """
import json, os, sys
sys.path.insert(0, {src!r})
from repro.codegen.progcache import ProgramCache, ProgramCacheEntry, program_key
cache = ProgramCache(cache_dir={cache_dir!r}, max_entries=8)
for i in range({rounds}):
    key = program_key("sdfg%03d" % (i % 24), "python")
    entry = ProgramCacheEntry(
        key=key, backend="python", sdfg_name="s%d" % i,
        source="def entry(): pass", arg_arrays=["A"], symbol_order=["N"],
    )
    cache.store(key, entry, None)
    got = cache.lookup(program_key("sdfg%03d" % ((i * 7) % 24), "python"))
    if got is not None:
        assert got[0].source == "def entry(): pass"
print(json.dumps(cache.stats()))
"""


def test_two_processes_hammer_one_program_cache(tmp_path):
    cache_dir = str(tmp_path / "progcache")
    script = PROGCACHE_HAMMER.format(
        src=SRC, cache_dir=cache_dir, rounds=120
    )
    results = run_procs([script, script], tmp_path)
    for code, out in results:
        assert code == 0, out
        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["stores"] == 120

    # Eviction under contention must converge near the per-process
    # budget — and never lose the directory to a race.
    files = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    assert 1 <= len(files) <= 16
    for name in files:  # every surviving entry parses cleanly
        with open(os.path.join(cache_dir, name)) as f:
            assert json.load(f)["schema"] == 1
    leftovers = [f for f in os.listdir(cache_dir) if ".tmp." in f]
    assert not leftovers, f"atomic writes leaked temp files: {leftovers}"


# ------------------------------------------------------ TuningCache tier
TUNECACHE_HAMMER = """
import json, os, sys
sys.path.insert(0, {src!r})
from repro.tuning.cache import TuningCache
cache = TuningCache({cache_dir!r}, max_entries=8)
for i in range({rounds}):
    key = "k%03d" % (i % 24)
    cache.put(key, {{"history": [["MapTiling", {{}}]], "runtime": 0.001 * i}})
    got = cache.get("k%03d" % ((i * 5) % 24))
    if got is not None:
        assert "history" in got
print(json.dumps(cache.stats()))
"""


def test_two_processes_hammer_one_tuning_cache(tmp_path):
    cache_dir = str(tmp_path / "tunecache")
    script = TUNECACHE_HAMMER.format(
        src=SRC, cache_dir=cache_dir, rounds=120
    )
    results = run_procs([script, script], tmp_path)
    for code, out in results:
        assert code == 0, out
    files = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    assert 1 <= len(files) <= 16
    for name in files:
        with open(os.path.join(cache_dir, name)) as f:
            json.load(f)


def test_namespaced_caches_do_not_share_files(tmp_path):
    from repro.codegen.progcache import (
        ProgramCacheEntry,
        namespaced_cache,
        program_key,
        safe_namespace,
    )

    root = str(tmp_path / "tenants")
    alice = namespaced_cache(root, "alice", max_entries=4)
    bob = namespaced_cache(root, "bob", max_entries=4)
    assert alice is not bob
    assert namespaced_cache(root, "alice") is alice, "instances are shared"

    key = program_key("same_sdfg", "python")
    alice.store(key, ProgramCacheEntry(
        key=key, backend="python", sdfg_name="s", source="def entry(): pass",
        arg_arrays=[], symbol_order=[]), None)
    assert bob.lookup(key) is None, "tenants must not see each other's entries"
    assert os.path.exists(
        os.path.join(root, safe_namespace("alice"), f"{key}.json"))
    assert not os.path.exists(
        os.path.join(root, safe_namespace("bob"), f"{key}.json"))

    # Hostile namespace strings cannot escape the root.
    for hostile in ("..", ".", "....", "../evil", "a/b", "/etc/passwd", ""):
        safe = safe_namespace(hostile)
        assert "/" not in safe and safe.strip("."), (hostile, safe)
    evil = namespaced_cache(root, "..")
    assert os.path.realpath(evil.cache_dir).startswith(os.path.realpath(root))

    # The mapping is injective: names that sanitize identically must
    # still land in distinct namespaces (distinct dirs).
    assert safe_namespace("a/b") != safe_namespace("a_b")
    assert safe_namespace("a.b") != safe_namespace("a_b")
    assert namespaced_cache(root, "a/b") is not namespaced_cache(root, "a_b")
    # ... while repeat calls for the same raw name stay stable.
    assert safe_namespace("a/b") == safe_namespace("a/b")

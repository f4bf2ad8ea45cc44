"""Crash-bundle naming under concurrency.

The pre-service harness named bundles with ``tempfile.mkdtemp`` inside
one process; a *pool* of crash-isolated workers (and a supervisor
writing bundles on their behalf) needs names that cannot collide across
threads or processes: ``<stem>_<pid>_<seq>``."""

import os
import re
import subprocess
import sys
import threading

from repro.serve.pool import WorkerDeath, write_crash_bundle
from repro.store import bundle_dir

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def test_bundle_dir_name_encodes_pid_and_sequence(tmp_path):
    first = bundle_dir(str(tmp_path), "scale")
    second = bundle_dir(str(tmp_path), "scale")
    pattern = re.compile(rf"scale_{os.getpid()}_(\d{{6}})$")
    m1, m2 = pattern.search(first), pattern.search(second)
    assert m1 and m2, (first, second)
    assert int(m2.group(1)) > int(m1.group(1)), "sequence is monotonic"
    assert os.path.isdir(first) and os.path.isdir(second)


def test_simultaneous_crashing_workers_get_distinct_bundles(tmp_path):
    """The regression case: many threads (supervisor writing for several
    dying workers at once) racing the same stem must never collide."""
    dirs = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def crashing_worker():
        barrier.wait()  # maximize simultaneity
        for _ in range(10):
            path = bundle_dir(str(tmp_path), "scale")
            with lock:
                dirs.append(path)

    threads = [threading.Thread(target=crashing_worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(dirs) == 80
    assert len(set(dirs)) == 80, "two simultaneous crashes shared a bundle"
    for path in dirs:
        assert os.path.isdir(path)


def test_two_processes_writing_bundles_never_collide(tmp_path):
    """Distinct pids in the name make cross-process collisions
    structurally impossible — even with identical stems and sequences."""
    script = f"""
import sys
sys.path.insert(0, {SRC!r})
from repro.store import bundle_dir
for _ in range(25):
    print(bundle_dir({str(tmp_path)!r}, "scale"))
"""
    procs = [
        subprocess.Popen([sys.executable, "-c", script],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        for _ in range(2)
    ]
    paths = []
    for p in procs:
        out, _ = p.communicate(timeout=120)
        assert p.returncode == 0, out.decode(errors="replace")
        paths.extend(out.decode().split())
    assert len(paths) == 50
    assert len(set(paths)) == 50


def test_stale_bundle_name_from_previous_run_is_skipped(tmp_path):
    """A leftover directory with the next name (counter restarted after
    a crash of the *supervisor*) is skipped, not reused."""
    probe = bundle_dir(str(tmp_path), "scale")
    seq = int(probe.rsplit("_", 1)[1])
    squatter = os.path.join(str(tmp_path), f"scale_{os.getpid()}_{seq + 1:06d}")
    os.makedirs(squatter)
    marker = os.path.join(squatter, "marker")
    open(marker, "w").close()
    nxt = bundle_dir(str(tmp_path), "scale")
    assert nxt != squatter
    assert os.path.exists(marker), "existing bundle left untouched"


def test_write_crash_bundle_concurrent_same_sdfg(tmp_path, monkeypatch):
    """End-to-end through write_crash_bundle: same SDFG name crashing in
    several threads at once produces one intact bundle each."""
    from repro.sdfg import SDFG, dtypes

    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))

    def make_sdfg():
        sdfg = SDFG("same_name")
        sdfg.add_array("A", ("N",), dtypes.float64)
        sdfg.add_state()
        return sdfg

    bundles = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def crash():
        barrier.wait()
        for _ in range(3):
            b = write_crash_bundle(
                {"program": "same_name", "sdfg": make_sdfg().to_json(),
                 "symbols": {"N": 4}, "arrays": {}},
                WorkerDeath("boom", stderr_tail="boom"),
            )
            with lock:
                bundles.append(b)

    threads = [threading.Thread(target=crash) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(bundles) == 12 and None not in bundles
    assert len(set(bundles)) == 12
    for b in bundles:
        assert os.path.exists(os.path.join(b, "sdfg.json"))
        assert os.path.exists(os.path.join(b, "manifest.json"))

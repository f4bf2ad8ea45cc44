"""Process environment of a benchmark run.

Import this module, and call :func:`prepare`, before NumPy or ``repro``
is imported: the BLAS thread counts are read when NumPy loads, and the
toolchain reads its ``REPRO_*`` knobs from the environment, so a value
left over from the caller's shell would silently change what is
measured.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

#: The checkout root (the parent of ``bench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

_PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def prepare() -> str:
    """Pin the environment and return a fresh scratch directory.

    Every path the toolchain writes to (cache roots, crash bundles, the
    daemon's socket, worker stderr files) lands under the returned
    directory; the caller removes it with :func:`cleanup` in a
    ``finally``.  The working directory becomes the checkout root so the
    daemon's Unix socket can be addressed by a short relative path (the
    kernel caps socket paths at 108 bytes and checkouts can be deep).
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: no toolchain source under {SRC}; nothing to measure")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if os.environ.get("PYTHONHASHSEED") != _PINNED["PYTHONHASHSEED"]:
        # String hashing is seeded at interpreter start, so the only way
        # to pin it for this process is to start it again.
        os.environ.update(_PINNED)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    os.environ.update(_PINNED)
    # Serve workers and tuning pools are fresh interpreters: they find
    # the package, and the pinned settings above, through the environment.
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.relpath(tempfile.mkdtemp(prefix="run.", dir=OUT), ROOT)
    os.environ["TMPDIR"] = os.path.join(ROOT, scratch)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    os.environ["REPRO_CRASH_DIR"] = os.path.join(scratch, "crashes")
    return scratch


def cleanup(scratch: str) -> None:
    shutil.rmtree(scratch, ignore_errors=True)

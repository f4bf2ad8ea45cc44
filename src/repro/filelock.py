"""Cross-process file locking for the on-disk store.

Entries of a :class:`~repro.store.Store` (the program and tuning cache
disk tiers) are written atomically (``os.replace``), which is enough
for single-writer use.  The worker pool of :mod:`repro.serve` breaks
that assumption: many worker processes share one cache directory, and
concurrent *LRU eviction* and *corrupt-entry deletion* race — two
processes can both decide to evict the same set of files, or a reader
can delete an entry a writer is mid-refresh on.  :class:`FileLock`
serializes those multi-file critical sections.

Implementation: ``fcntl.flock`` on a dedicated ``.lock`` file when the
platform has it (Linux/macOS — always true for this repo's CI), with an
``O_CREAT|O_EXCL`` spin-lock fallback elsewhere.  The fallback breaks
stale locks older than ``stale_after`` seconds so a killed process never
wedges the cache directory — exactly the crash model the worker pool
operates under.
"""

from __future__ import annotations

import errno
import os
import time
from typing import Optional

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class LockTimeout(OSError):
    """The lock could not be acquired within ``timeout`` seconds."""


class FileLock:
    """An advisory, cross-process, non-reentrant file lock.

    Usage::

        with FileLock(os.path.join(cache_dir, ".lock")):
            ...  # multi-file critical section (eviction, quarantine)

    Locking is best-effort by design: a cache must *never* fail a
    compile because of lock trouble, so callers that want that behavior
    use :meth:`acquire` with ``best_effort=True`` (the default through
    the context manager is strict).
    """

    def __init__(self, path: str, timeout: float = 10.0, poll: float = 0.005,
                 stale_after: float = 60.0):
        self.path = path
        self.timeout = timeout
        self.poll = poll
        self.stale_after = stale_after
        self._fd: Optional[int] = None
        self._owns_file = False

    @property
    def held(self) -> bool:
        return self._fd is not None

    # ----------------------------------------------------------- acquire
    def acquire(self, timeout: Optional[float] = None, best_effort: bool = False) -> bool:
        """Acquire the lock; returns True on success.

        With ``best_effort=True`` failures (timeout, unwritable
        directory) return False instead of raising, letting cache code
        degrade to today's lock-free behavior.
        """
        if self._fd is not None:
            raise RuntimeError(f"FileLock({self.path!r}) is not reentrant")
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        try:
            if fcntl is not None:
                return self._acquire_flock(deadline)
            return self._acquire_spin(deadline)
        except LockTimeout:
            if best_effort:
                return False
            raise
        except OSError:
            if best_effort:
                return False
            raise

    def _acquire_flock(self, deadline: float) -> bool:
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return True
            except OSError as err:
                if err.errno not in (errno.EAGAIN, errno.EACCES):
                    os.close(fd)
                    raise
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise LockTimeout(
                        f"timed out waiting for file lock {self.path!r}"
                    )
                time.sleep(self.poll)

    def _acquire_spin(self, deadline: float) -> bool:  # pragma: no cover
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
                os.write(fd, str(os.getpid()).encode())
                self._fd = fd
                self._owns_file = True
                return True
            except FileExistsError:
                # Break locks abandoned by a crashed holder.
                try:
                    if time.time() - os.path.getmtime(self.path) > self.stale_after:
                        os.unlink(self.path)
                        continue
                except OSError:
                    pass
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"timed out waiting for file lock {self.path!r}"
                    )
                time.sleep(self.poll)

    # ----------------------------------------------------------- release
    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            try:
                os.close(fd)
            except OSError:
                pass
            if self._owns_file:
                self._owns_file = False
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    # ----------------------------------------------------- context manager
    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

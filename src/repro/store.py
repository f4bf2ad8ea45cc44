"""The one on-disk store behind every artifact the pipeline persists.

Generated programs (:mod:`repro.codegen.progcache`), tuning winners
(:mod:`repro.tuning.cache`) and crash repro bundles
(:mod:`repro.runtime.isolation`, :mod:`repro.serve.pool`) are written,
recognised as sound, aged out and swept (:mod:`repro.serve.fsck`) here
and nowhere else; DESIGN.md §16 "On-disk store" describes the format.
Fault-point names are passed in by the callers, so each one stays
registered with the module that owns the artifact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.chaos import ChaosFault, faultpoint
from repro.filelock import FileLock
from repro.telemetry.sink import active_sink

#: fsck moves debris here, one per swept directory; sweeps skip it.
QUARANTINE = ".quarantine"

#: Per-process sequence numbering staging files and bundle directories.
_SEQ = itertools.count()
_SEQ_LOCK = threading.Lock()


def _next_seq() -> int:
    with _SEQ_LOCK:
        return next(_SEQ)


def content_key(*parts: str) -> str:
    """SHA-256 content address over the NUL-joined ``parts``."""
    return hashlib.sha256(b"\x00".join(p.encode() for p in parts)).hexdigest()


def _remove(path: str) -> bool:
    try:
        os.remove(path)
        return True
    except OSError:
        return False


def _sound(obj: Any, key: str, schema: Optional[int] = None) -> bool:
    """A sound entry is a JSON object naming its own ``key`` and, when
    ``schema`` is given, carrying that ``schema``."""
    return (
        isinstance(obj, dict)
        and obj.get("key") == key
        and (schema is None or obj.get("schema") == schema)
    )


class Store:
    """One directory of content-addressed JSON entries with an mtime LRU.

    ``decode`` is the owner's check on a sound entry: it returns what a
    hit hands back and raises ``ValueError`` for a malformed entry.
    ``on_count`` sees every counter bump after it is counted.  With
    ``root=None`` nothing touches the disk — reads miss, writes are
    dropped — but the counters still run.
    """

    def __init__(
        self,
        root: Optional[str],
        label: str,
        schema: int,
        read_point: str,
        write_point: str,
        max_entries: int = 256,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
        on_count: Optional[Callable[[str], None]] = None,
    ):
        self.root = root
        self.label = label
        self.schema = schema
        self.read_point = read_point
        self.write_point = write_point
        self.max_entries = max(1, max_entries)
        self.decode = decode
        self.on_count = on_count
        self.counts: Counter = Counter()
        self._count_lock = threading.Lock()
        if root:
            os.makedirs(root, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def count(self, event: str) -> None:
        """Bump one counter and mirror it as a ``cache:<label>`` event."""
        with self._count_lock:
            self.counts[event] += 1
        if self.on_count is not None:
            self.on_count(event)
        sink = active_sink()
        if sink is not None:
            sink.publish("cache", self.label, fields={"event": event, "n": 1})

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold ``<root>/.lock`` across a multi-file operation against
        other processes sharing the directory.  Best-effort: a lock not
        taken within 5 s degrades to lock-free instead of failing the
        caller (single-file writes are atomic without it)."""
        lock = FileLock(os.path.join(self.root, ".lock"), timeout=5.0)
        held = lock.acquire(best_effort=True)
        try:
            yield
        finally:
            if held:
                lock.release()

    # ------------------------------------------------------------ entries
    def get(self, key: str) -> Any:
        """The decoded entry on a hit, None on a miss.  An unreadable,
        unsound or malformed file is deleted and counted as a miss."""
        if self.root is None:
            self.count("miss")
            return None
        path = self.path(key)
        try:
            with open(path) as f:
                raw = f.read()
            obj = json.loads(faultpoint(self.read_point, payload=raw))
            if not _sound(obj, key, self.schema):
                raise ValueError(f"unsound {self.label} entry")
            value = obj if self.decode is None else self.decode(obj)
        except FileNotFoundError:
            self.count("miss")
            return None
        except (OSError, ValueError):
            self.count("corrupt")
            self.count("miss")
            with self.locked():
                _remove(path)
            return None
        self.count("hit")
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return value

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Publish ``record`` (plus ``key`` and ``schema``) atomically,
        then evict LRU overflow.  A failed write (disk full, torn
        directory) publishes nothing, leaves no staging file and returns
        False: an entry is only ever a shortcut."""
        if self.root is None:
            return False
        path = self.path(key)
        # Unique per write: two threads storing one key must never share
        # (and truncate) a staging file.
        tmp = f"{path}.tmp.{os.getpid()}.{_next_seq()}"
        try:
            data = json.dumps(dict(record, schema=self.schema, key=key),
                              indent=1, sort_keys=True, default=str)
            # A `corrupt` rule here lands a genuinely torn entry on disk
            # (deleted by the next read or quarantined by fsck).
            data = faultpoint(self.write_point, payload=data)
            with open(tmp, "w") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError:
            _remove(tmp)
            return False
        self.evict()
        return True

    def _entries(self) -> List[Tuple[float, str]]:
        """``(mtime, path)`` per entry; staging files and the lock do not
        end in ``.json``."""
        out = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            if name.endswith(".json"):
                path = os.path.join(self.root, name)
                try:
                    out.append((os.path.getmtime(path), path))
                except OSError:
                    continue
        return out

    def evict(self) -> None:
        with self.locked():
            entries = sorted(self._entries())  # oldest mtime first
            for _, path in entries[: max(0, len(entries) - self.max_entries)]:
                if _remove(path):
                    self.count("evict")

    def invalidate_where(self, pred: Callable[[Dict[str, Any]], bool]) -> int:
        """Delete every readable entry ``pred`` selects; returns how many."""
        removed = 0
        with self.locked():
            for _, path in self._entries():
                try:
                    with open(path) as f:
                        obj = json.load(f)
                except (OSError, ValueError):
                    continue
                if isinstance(obj, dict) and pred(obj) and _remove(path):
                    removed += 1
                    self.count("invalidate")
        return removed


# ------------------------------------------------------------- bundles
def bundle_dir(root: str, stem: str) -> str:
    """Create and return a fresh ``<stem>_<pid>_<seq>`` directory.

    Distinct pids and a per-process sequence make names collision-free
    across threads and processes, and, unlike ``mkdtemp``, the name says
    which process crashed in what order.  A name left by an earlier run
    of the same pid is skipped, never reused."""
    stem = "".join(c if c.isalnum() or c in "-_." else "_" for c in stem)
    while True:
        path = os.path.join(root, f"{stem}_{os.getpid()}_{_next_seq():06d}")
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            continue


def _rotate_bundles(root: str, keep: int) -> None:
    """Delete this process's oldest bundles beyond ``keep``.  Scoped to
    the calling pid, so a process never deletes a sibling's fresh
    bundle; fsck enforces the global cap."""
    tag = f"_{os.getpid()}_"
    mine = []
    try:
        names = os.listdir(root)
    except OSError:
        return
    for name in names:
        path = os.path.join(root, name)
        if tag not in name or not os.path.isdir(path):
            continue
        try:
            mine.append((int(name.rsplit("_", 1)[1]), path))
        except ValueError:
            continue
    mine.sort()
    doomed = mine[: max(0, len(mine) - keep)]
    for _, path in doomed:
        shutil.rmtree(path, ignore_errors=True)
    sink = active_sink()
    if doomed and sink is not None:
        sink.publish("crash", "rotated", fields={"n": len(doomed), "keep": keep})


def write_bundle(root: str, stem: str, manifest: Dict[str, Any],
                 files: Dict[str, Any], keep: int, point: str,
                 **ctx: Any) -> Optional[str]:
    """Persist one crash repro bundle and rotate this process's overflow.

    ``files`` maps names to text (written as is) or JSON values;
    ``manifest.json`` goes last, so its presence marks a complete bundle.
    Returns the bundle path, or None when it could not be written — a
    lost bundle must never mask the crash it describes."""
    try:
        os.makedirs(root, exist_ok=True)
        faultpoint(point, **ctx)
        bundle = bundle_dir(root, stem)
        for name, body in [*files.items(), ("manifest.json", manifest)]:
            with open(os.path.join(bundle, name), "w") as f:
                if isinstance(body, str):
                    f.write(body)
                else:
                    json.dump(body, f, indent=2, sort_keys=True)
        _rotate_bundles(root, keep)
        return bundle
    except (OSError, ChaosFault):
        return None


# ---------------------------------------------------------------- fsck
def _quarantine(path: str, qdir: str) -> bool:
    """Move ``path`` into ``qdir`` under a collision-free name."""
    try:
        os.makedirs(qdir, exist_ok=True)
        base = os.path.basename(path.rstrip(os.sep))
        target = os.path.join(qdir, base)
        n = 0
        while os.path.exists(target):
            n += 1
            target = os.path.join(qdir, f"{base}.{n}")
        os.replace(path, target)
        return True
    except OSError:
        return False


def sweep_entries(root: Optional[str]) -> Dict[str, int]:
    """Quarantine unsound entries and remove orphaned staging files in
    every directory under ``root``.  Soundness is the read path's minus
    the schema check: a sweep does not know which cache owns a
    directory, and a stale-schema entry is not debris."""
    report = {"scanned": 0, "quarantined": 0, "tmp_removed": 0}
    if not root or not os.path.isdir(root):
        return report
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != QUARANTINE]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if ".tmp." in name:
                report["tmp_removed"] += _remove(path)
                continue
            if not name.endswith(".json"):
                continue
            report["scanned"] += 1
            try:
                with open(path) as f:
                    sound = _sound(json.load(f), name[: -len(".json")])
            except (OSError, ValueError):
                sound = False
            if not sound and _quarantine(path, os.path.join(dirpath, QUARANTINE)):
                report["quarantined"] += 1
    return report


def sweep_bundles(root: str, keep: int) -> Dict[str, int]:
    """Quarantine bundles missing ``manifest.json`` (the writer died
    mid-bundle); delete the oldest beyond ``keep`` across all pids."""
    report = {"scanned": 0, "quarantined": 0, "rotated": 0}
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return report
    bundles = []
    for name in names:
        path = os.path.join(root, name)
        if name == QUARANTINE or not os.path.isdir(path):
            continue
        report["scanned"] += 1
        if not os.path.isfile(os.path.join(path, "manifest.json")):
            if _quarantine(path, os.path.join(root, QUARANTINE)):
                report["quarantined"] += 1
            continue
        try:
            bundles.append((os.path.getmtime(path), path))
        except OSError:
            bundles.append((0.0, path))
    bundles.sort()
    for _, path in bundles[: max(0, len(bundles) - keep)]:
        shutil.rmtree(path, ignore_errors=True)
        report["rotated"] += 1
    return report

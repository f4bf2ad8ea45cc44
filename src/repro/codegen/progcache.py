"""Persistent compiled-program cache (execution fast path).

``compile_sdfg`` re-generates and re-``exec``s the backend module on
every call even when the SDFG is byte-identical to one compiled a moment
(or a process) ago.  This module stores generated programs keyed by
content:

    key = SHA-256( content_hash(sdfg) ‖ backend ‖ codegen version )

so a warm compile skips validation, propagation, codegen, and — on an
in-process hit — even ``exec``.  The cache is two-tier:

* an in-memory LRU (``OrderedDict``) holding the entry *and* the already
  ``exec``'d entry callable, and
* an optional on-disk tier, one JSON file per entry in a
  :class:`repro.store.Store` (atomic writes, mtime-LRU eviction, corrupt
  entries deleted and counted as misses; DESIGN.md §16).

Selection is explicit: the cache is *off* by default so existing
pipelines (and the fault-injection harness, which relies on backends
actually running) are unaffected.  Enable with ``compile_sdfg(...,
cache="memory"|"disk")``, a :class:`ProgramCache` instance, or the
``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` environment knobs.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.store import Store, content_key

#: Bump whenever generated-code semantics change; part of every key, so
#: old entries become unreachable (and age out by LRU) rather than stale.
#: v2: entry functions grew the ``__guard`` parameter (sanitizer/watchdog).
#: v4: strided-view, ragged and predicated map lowerings; bulk stream copies.
#: v5: structured ``while``/``if`` interstate control flow; slice-tier
#: reductions broadcast only values that do not span the domain.
#: v6: every two-operand contraction is one ``@``, marked or not; sums and
#: products into integer containers of non-integer values take the loop.
#: v7: one thread tier: chunk functions return only their WCR partials, and
#: the parallel variant key names the worker count alone.
#: v8: only NumPy-tier maps get chunk functions, behind the work floor.
#: v9: large top-level scatter maps run in strips of their first
#: parameter; a loop-invariant scatter value is not broadcast.
#: v10: destination passing: contractions into a fresh fill, ufunc stores
#: into slice-tier views, contiguous ragged rows read through slices; C
#: dialects floor ``//`` and ``%`` and divide integers as Python does.
#: v11: scalar code on Python numbers: point accesses in loops through
#: memoryviews, transient float64 Scalars as locals, symbol-only
#: ``if``/``else`` as Python conditionals, ``hi - lo`` trip counts.
#: v12: no thread tier: entry functions lost their worker-pool parameter.
CODEGEN_VERSION = 12

#: Entry file layout version; mismatched files are deleted as misses.
CACHE_SCHEMA_VERSION = 1


def program_key(sdfg_hash: str, backend: str, variant: str = "") -> str:
    """Content address of one generated program.

    ``variant`` separates differently-instrumented programs of the same
    graph (e.g. ``"sanitize"`` for guarded codegen) so a sanitized build
    never shadows — or is shadowed by — the plain one.
    """
    parts = (sdfg_hash, backend, str(CODEGEN_VERSION))
    return content_key(*parts, variant) if variant else content_key(*parts)


class ProgramCacheEntry:
    """One cached generated program plus the metadata needed to rebuild a
    :class:`~repro.codegen.compiler.CompiledSDFG` without re-running the
    pipeline."""

    __slots__ = (
        "key",
        "backend",
        "sdfg_name",
        "source",
        "arg_arrays",
        "symbol_order",
        "codegen_version",
        "warnings",
        "lowering",
    )

    def __init__(
        self,
        key: str,
        backend: str,
        sdfg_name: str,
        source: str,
        arg_arrays: List[str],
        symbol_order: List[str],
        codegen_version: int = CODEGEN_VERSION,
        warnings: Optional[List[Dict[str, Any]]] = None,
        lowering: Optional[List[Dict[str, Any]]] = None,
    ):
        self.key = key
        self.backend = backend
        self.sdfg_name = sdfg_name
        self.source = source
        self.arg_arrays = list(arg_arrays)
        self.symbol_order = list(symbol_order)
        self.codegen_version = codegen_version
        self.warnings = list(warnings or [])
        #: The generator's tier census (``compile_report["lowering"]``).
        self.lowering = list(lowering or [])

    def to_json(self) -> Dict[str, Any]:
        """The entry record; the store adds ``schema``."""
        return {
            "key": self.key,
            "backend": self.backend,
            "sdfg_name": self.sdfg_name,
            "source": self.source,
            "arg_arrays": self.arg_arrays,
            "symbol_order": self.symbol_order,
            "codegen_version": self.codegen_version,
            "warnings": self.warnings,
            "lowering": self.lowering,
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "ProgramCacheEntry":
        """Rebuild an entry from a sound store record (``key`` and
        ``schema`` are the store's checks)."""
        if (
            obj.get("codegen_version") != CODEGEN_VERSION
            or not isinstance(obj.get("source"), str)
            or not isinstance(obj.get("arg_arrays"), list)
            or not isinstance(obj.get("symbol_order"), list)
        ):
            raise ValueError("malformed program cache entry")
        return ProgramCacheEntry(
            key=obj["key"],
            backend=obj.get("backend", "python"),
            sdfg_name=obj.get("sdfg_name", "sdfg"),
            source=obj["source"],
            arg_arrays=obj["arg_arrays"],
            symbol_order=obj["symbol_order"],
            codegen_version=obj["codegen_version"],
            warnings=obj.get("warnings") or [],
            lowering=obj.get("lowering") or [],
        )


class ProgramCache:
    """Memory LRU of ``exec``'d programs over an on-disk
    :class:`~repro.store.Store` (memory only when ``cache_dir`` is None)."""

    def __init__(self, cache_dir: Optional[str] = None, max_entries: int = 256):
        self.cache_dir = cache_dir
        self.max_entries = max(1, max_entries)
        #: key -> (entry, exec'd entry callable or None)
        self._memory: "OrderedDict[str, Tuple[ProgramCacheEntry, Optional[Callable]]]" = (
            OrderedDict()
        )
        self.disk = Store(
            cache_dir, "progcache", CACHE_SCHEMA_VERSION,
            read_point="progcache.disk_read",
            write_point="progcache.disk_write",
            max_entries=self.max_entries,
            decode=ProgramCacheEntry.from_json,
        )

    def lookup(self, key: str) -> Optional[Tuple[ProgramCacheEntry, Optional[Callable]]]:
        """Return ``(entry, callable_or_None)`` on a hit, None on a miss.

        Memory hits carry the already-``exec``'d callable; disk hits are
        promoted into the memory tier with ``callable=None`` (the caller
        ``exec``s once and attaches it via :meth:`attach_callable`).
        Corrupt disk entries are deleted and counted as misses.
        """
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.disk.count("hit")
            return cached
        entry = self.disk.get(key)
        if entry is None:
            return None
        self._remember(key, entry, None)
        return self._memory[key]

    def attach_callable(self, key: str, fn: Callable) -> None:
        """Attach the ``exec``'d entry callable to a memory-tier entry so
        subsequent in-process hits skip ``exec`` entirely."""
        cached = self._memory.get(key)
        if cached is not None and cached[1] is None:
            self._memory[key] = (cached[0], fn)

    def store(self, key: str, entry: ProgramCacheEntry, fn: Optional[Callable] = None) -> None:
        """Store an entry in both tiers; the disk write is best-effort."""
        self._remember(key, entry, fn)
        self.disk.count("store")
        self.disk.put(key, entry.to_json())

    def _remember(self, key: str, entry: ProgramCacheEntry, fn: Optional[Callable]) -> None:
        self._memory[key] = (entry, fn)
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.disk.count("evict")

    def stats(self) -> Dict[str, int]:
        counts = self.disk.counts
        return {
            "hits": counts["hit"],
            "misses": counts["miss"],
            "stores": counts["store"],
            "evictions": counts["evict"],
            "corrupt": counts["corrupt"],
            "memory_entries": len(self._memory),
        }


#: Process-wide shared in-memory cache (``cache="memory"`` and the tuner).
_SHARED: Optional[ProgramCache] = None

#: Disk caches by resolved directory, so repeated ``cache="disk"`` calls
#: share a memory tier (and thus exec'd callables) per directory.
_DISK: Dict[str, ProgramCache] = {}


def shared_cache() -> ProgramCache:
    global _SHARED
    if _SHARED is None:
        _SHARED = ProgramCache()
    return _SHARED


def _disk_cache(cache_dir: str) -> ProgramCache:
    key = os.path.realpath(cache_dir)
    cache = _DISK.get(key)
    if cache is None:
        cache = _DISK[key] = ProgramCache(cache_dir=key)
    return cache


def safe_namespace(namespace: str) -> str:
    """Filesystem-safe form of a tenant namespace.

    Dots are allowed mid-name, but a namespace that is *only* dots
    (``"."``, ``".."``) would traverse out of the cache root.

    The mapping must be **injective**: sanitizing alone would collapse
    distinct tenants onto one directory (``'a/b'`` and ``'a_b'`` both
    sanitize to ``'a_b'``), silently merging their caches.  A short hash of the *raw* name is therefore always
    appended — tenant names are caller-chosen, so even a deliberately
    crafted name cannot collide with another tenant's namespace."""
    digest = hashlib.sha256(namespace.encode("utf-8")).hexdigest()[:8]
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in namespace)
    safe = safe[:64]
    if not safe.strip("."):
        safe = "default"
    return f"{safe}-{digest}"


def namespaced_cache(root_dir: str, namespace: str,
                     max_entries: int = 256) -> ProgramCache:
    """Per-tenant disk cache under ``root_dir/<namespace>``.

    Tenants sharing a service must not share cache *files*: one
    tenant's LRU churn (or a poisoned entry) must never evict or shadow
    another tenant's warm programs.  Each namespace gets its own
    subdirectory with its own LRU budget and lock; instances are
    registered in the per-directory table so repeat calls share the
    memory tier.
    """
    path = os.path.join(root_dir, safe_namespace(namespace))
    key = os.path.realpath(path)
    cache = _DISK.get(key)
    if cache is None:
        cache = _DISK[key] = ProgramCache(cache_dir=key, max_entries=max_entries)
    return cache


def resolve_cache(cache: Any) -> Optional[ProgramCache]:
    """Resolve the ``cache=`` knob of ``compile_sdfg``.

    Accepts ``None`` (consult ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``; off
    when neither is set), ``"off"``, ``"memory"``, ``"disk"``, or a
    :class:`ProgramCache` instance; resolved by
    :func:`repro.codegen.options.resolve_options`.
    """
    from repro.codegen.options import resolve_options

    return resolve_options(cache=cache, sanitize=False).cache

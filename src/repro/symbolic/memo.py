"""Shared memoization substrate for the symbolic engine (hot-path PR).

Expressions, ranges and subsets are immutable and hashable, so results
of pure functions over them — canonical ``Add``/``Mul`` construction,
parsing, substitution, canonical simplification, sign decisions, subset
parsing and images, memlet-volume propagation — can be cached on
structural identity.  Each
named cache is a plain dict with wholesale clearing when it grows past
:data:`MAX_ENTRIES` (the working set of a compile rebuilds immediately,
and clearing wholesale avoids LRU bookkeeping on the hot path).

Hit/miss counters are **monotonic for the lifetime of the process**:
:func:`clear` drops cached values but, by default, keeps the counters, so
instrumentation consumers can rely on them never decreasing.  The
compilation pipeline snapshots them around each compile and emits the
deltas as ``symcache`` instrumentation events.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Tuple

#: Per-cache entry cap; a full cache is cleared wholesale rather than
#: LRU-evicted (cheap, and the working set rebuilds immediately).
MAX_ENTRIES = 1 << 16

_CACHES: Dict[str, Dict[Any, Any]] = {}
_HITS: Dict[str, int] = {}
_MISSES: Dict[str, int] = {}


def _table(name: str) -> Dict[Any, Any]:
    cache = _CACHES.get(name)
    if cache is None:
        cache = _CACHES[name] = {}
        _HITS.setdefault(name, 0)
        _MISSES.setdefault(name, 0)
    return cache


def memoized(name: str, key: Any, compute: Callable[[], Any]) -> Any:
    """Return the cached value for ``key`` in cache ``name``, computing
    (and storing) it on a miss.  Unhashable keys bypass the cache and
    count as misses."""
    cache = _table(name)
    try:
        value = cache[key]
    except KeyError:
        _MISSES[name] += 1
        value = compute()
        if len(cache) >= MAX_ENTRIES:
            cache.clear()
        cache[key] = value
        return value
    except TypeError:  # unhashable key component — bypass, don't fail
        _MISSES[name] += 1
        return compute()
    _HITS[name] += 1
    return value


def cached(
    name: str, limit: int = MAX_ENTRIES
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator form of :func:`memoized` for a pure function of
    hashable positional arguments, keyed on the argument tuple.  The
    hot-path constructors use it: no closure is built per call.  A table
    of large values clears at a lower ``limit`` of entries."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        cache = _table(name)

        @functools.wraps(fn)
        def wrapper(*args: Any) -> Any:
            try:
                value = cache[args]
            except KeyError:
                _MISSES[name] += 1
                value = fn(*args)
                if len(cache) >= limit:
                    cache.clear()
                cache[args] = value
                return value
            except TypeError:  # unhashable argument — bypass, don't fail
                _MISSES[name] += 1
                return fn(*args)
            _HITS[name] += 1
            return value

        return wrapper

    return decorate


def stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/entry counts per named cache (counters are monotonic)."""
    names = set(_HITS) | set(_MISSES) | set(_CACHES)
    return {
        n: {
            "hits": _HITS.get(n, 0),
            "misses": _MISSES.get(n, 0),
            "entries": len(_CACHES.get(n, ())),
        }
        for n in sorted(names)
    }


def snapshot() -> Dict[str, Tuple[int, int]]:
    """Cheap ``{name: (hits, misses)}`` snapshot for delta reporting."""
    return {n: (_HITS.get(n, 0), _MISSES.get(n, 0)) for n in set(_HITS) | set(_MISSES)}


def clear(reset_counters: bool = False) -> None:
    """Drop all cached values.  Counters survive unless explicitly reset
    so that instrumentation sees them as monotonic."""
    for cache in _CACHES.values():
        cache.clear()
    if reset_counters:
        for counters in (_HITS, _MISSES):
            for name in counters:
                counters[name] = 0

"""Persistent content-addressed tuning cache.

A tuning run is expensive (every candidate is compiled and measured, or
simulated); its *result* — the winning transformation history — is a few
hundred bytes.  The cache stores that result on disk keyed by content:

    key = SHA-256( canonical SDFG hash ‖ tuner config key ‖ cost key )

so a hit is only possible when the input graph, the search parameters,
and the cost provider setup are all identical.  On a hit the search is
skipped entirely and the history is replayed through
:func:`repro.transformations.optimizer.replay`.

Entries live in a :class:`repro.store.Store` (one JSON file per entry,
atomic writes, mtime-LRU eviction, corrupt files deleted and counted as
misses; DESIGN.md §16).  Hit/miss/store/evict counters are kept on the
store (:meth:`TuningCache.stats`, the tuning report's ``cache``
section) and each bump streams to the active telemetry sink as a
``cache``/``tuning`` event.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sdfg.serialize import content_hash
from repro.store import Store, content_key

#: Bump when the entry layout changes, or when a stored history may no
#: longer replay to what was scored; mismatched entries are deleted on
#: read.  2: LocalStorage refuses tile-shaped buffers, so its match
#: indices moved and a stored winner may not run.  3: the analytic model
#: counts every iteration of a tiled nest, so a stored analytic winner
#: may have been chosen because the model undercounted its work.
CACHE_SCHEMA_VERSION = 3


def _decode(entry: Dict[str, Any]) -> Dict[str, Any]:
    if not isinstance(entry.get("history"), list):
        raise ValueError("malformed tuning cache entry")
    return entry


class TuningCache:
    """On-disk LRU cache of winning transformation histories."""

    def __init__(self, cache_dir: str, max_entries: int = 256):
        self.cache_dir = cache_dir
        self.disk = Store(
            cache_dir, "tuning", CACHE_SCHEMA_VERSION,
            read_point="tuningcache.disk_read",
            write_point="tuningcache.disk_write",
            max_entries=max_entries,
            decode=_decode,
        )

    def key(self, sdfg, config_key: str, cost_key: str) -> str:
        """Content address of one tuning problem."""
        return content_key(content_hash(sdfg), config_key, cost_key)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up an entry; None on miss.  Corrupt or stale-schema files
        are deleted and counted as misses, never raised."""
        return self.disk.get(key)

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Store an entry.  A failed store (disk full, torn directory)
        loses only the shortcut — the tuning result is already in hand."""
        if self.disk.put(key, entry):
            self.disk.count("store")

    def invalidate(self, sdfg_name: str) -> int:
        """Delete every entry recorded for ``sdfg_name``.

        The drift-retune path (``python -m repro.tune --if-drifted``)
        uses this: a kernel whose measured timings drifted past its
        baseline (W901) must not short-circuit into its stale cached
        history on the next tune.  Cutout entries belong to their
        parent kernel — ``<sdfg_name>_cut_<state>`` names are
        invalidated along with the whole-program entry, so a drifted
        kernel tuned with ``strategy="cutout"`` cannot keep stale
        per-cutout winners either.  Returns how many entries were
        removed.
        """
        cutout_prefix = f"{sdfg_name}_cut_"

        def recorded_for(entry: Dict[str, Any]) -> bool:
            name = str(entry.get("sdfg", ""))
            return name == sdfg_name or name.startswith(cutout_prefix)

        return self.disk.invalidate_where(recorded_for)

    def stats(self) -> Dict[str, int]:
        counts = self.disk.counts
        return {
            "hits": counts["hit"],
            "misses": counts["miss"],
            "evictions": counts["evict"],
        }

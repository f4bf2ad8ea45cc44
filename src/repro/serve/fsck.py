"""Startup integrity sweep (``python -m repro.serve --fsck``).

A crash — real or injected — can leave three kinds of debris behind:

* **torn cache entries**: a disk cache file that is not valid JSON or
  whose recorded key does not match its filename (a corruption injected
  by the chaos layer, or a file written outside the store).  These are
  *quarantined* (moved into a ``.quarantine/`` sibling) rather than
  deleted, so a real incident keeps its evidence;
* **orphaned staging files**: ``*.tmp.*`` files whose writer died before
  the atomic rename.  Removed;
* **stale crash bundles**: bundle directories missing their
  ``manifest.json`` (the writer died mid-bundle — quarantined), plus
  any overflow beyond the global retention cap (rotated away, oldest
  first).

The definitions are the store's (:mod:`repro.store`, DESIGN.md §16).
The daemon runs the sweep in :meth:`SDFGServer.start` before accepting
traffic; the CLI flag runs it standalone and exits 0 when the trees
were already clean, 3 when repairs were made.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.runtime.isolation import DEFAULT_CRASH_KEEP, crash_dir
from repro.store import sweep_bundles, sweep_entries


def fsck_sweep(
    cache_root: Optional[str] = None,
    crash_root: Optional[str] = None,
    keep_bundles: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the full sweep; returns a report with ``clean`` = True when
    nothing needed fixing."""
    keep = DEFAULT_CRASH_KEEP if keep_bundles is None else max(1, int(keep_bundles))
    cache = sweep_entries(cache_root)
    crash = sweep_bundles(crash_root or crash_dir(), keep)
    repairs = (
        cache["quarantined"] + cache["tmp_removed"]
        + crash["quarantined"] + crash["rotated"]
    )
    return {
        "cache": cache,
        "crash": crash,
        "repairs": repairs,
        "clean": repairs == 0,
    }

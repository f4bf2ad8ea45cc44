"""Validate ``BENCHMARK.json`` against the benchmark contract.

``run.py`` calls :func:`load` before anything else and
:func:`check_printed` on what it is about to print, so a manifest that
drifted from the code fails the run instead of the review.  Run this
file directly to check the manifest alone::

    python3 bench/check_manifest.py
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.env import ROOT  # noqa: E402 - needs the path above

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class ManifestError(ValueError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ManifestError(message)


def _metrics(rows: Any, label: str, keys: set, limit: int) -> List[str]:
    _require(isinstance(rows, list) and 1 <= len(rows) <= limit,
             f"{label}: need 1 to {limit} metrics")
    for m in rows:
        _require(isinstance(m, dict) and set(m) == keys,
                 f"{label}: every metric has exactly the keys {sorted(keys)}: {m}")
        _require(bool(_NAME.match(m["name"])), f"{label}: bad name {m['name']!r}")
        _require(bool(_UNIT.match(m["unit"])), f"{label}: bad unit {m['unit']!r}")
        _require(m["better"] in ("lower", "higher"),
                 f"{label}: {m['name']}: better is 'lower' or 'higher'")
        if "bound" in keys:
            _require(isinstance(m["bound"], (int, float))
                     and not isinstance(m["bound"], bool)
                     and 0 <= m["bound"] <= 0.25,
                     f"{label}: {m['name']}: bound must be in [0, 0.25]")
    return [m["name"] for m in rows]


def validate(manifest: Any, raw_size: int = 0) -> None:
    _require(raw_size <= 64 * 1024, "manifest is larger than 64 KiB")
    _require(isinstance(manifest, dict) and set(manifest) == _KEYS,
             f"manifest has exactly the keys {sorted(_KEYS)}")

    paths = manifest["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: need 1 to 16")
    for p in paths:
        _require(isinstance(p, str) and bool(_PATH.match(p))
                 and not p.startswith("/") and ".." not in p.split("/"),
                 f"paths: bad path {p!r}")
        _require(os.path.isdir(os.path.join(ROOT, p)), f"paths: {p!r} is not a directory")

    command = manifest["command"]
    _require(isinstance(command, list) and 1 <= len(command) <= 32
             and all(isinstance(c, str) and len(c) <= 200 for c in command),
             "command: a list of at most 32 strings of at most 200 characters")
    for c in command[1:]:
        _require(not c.startswith("/") and ".." not in c.split("/"),
                 f"command: {c!r} leaves the checkout")
        if os.path.exists(os.path.join(ROOT, c)):
            _require(any(c == p or c.startswith(p.rstrip("/") + "/") for p in paths),
                     f"command: {c!r} names a file outside paths")

    secs = manifest["run_seconds"]
    _require(isinstance(secs, int) and not isinstance(secs, bool) and 1 <= secs <= 60,
             "run_seconds: a whole number from 1 to 60")

    workloads = manifest["workloads"]
    _require(isinstance(workloads, list) and 2 <= len(workloads) <= 8,
             "workloads: need 2 to 8")
    names = []
    for w in workloads:
        _require(isinstance(w, dict) and set(w) == {"name", "why"},
                 f"workloads: exactly the keys name and why: {w}")
        _require(bool(_NAME.match(w["name"])), f"workloads: bad name {w['name']!r}")
        _require(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200
                 and "\n" not in w["why"], f"workloads: {w['name']}: why is one line of at most 200 characters")
        names.append(w["name"])

    e2e = _metrics(manifest["end_to_end"], "end_to_end",
                   {"name", "unit", "better", "bound"}, 16)
    layer = _metrics(manifest["per_layer"], "per_layer", {"name", "unit", "better"}, 128)
    names += e2e + layer
    dupes = sorted({n for n in names if names.count(n) > 1})
    _require(not dupes, f"names used more than once: {dupes}")

    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
             "end_to_end: one metric must be setup_s, unit s, better lower")


def load() -> Dict[str, Any]:
    """The validated manifest; exits with code 2 when it is invalid."""
    try:
        with open(MANIFEST, "rb") as f:
            raw = f.read()
        manifest = json.loads(raw)
        validate(manifest, len(raw))
    except (OSError, ValueError) as err:
        print(f"BENCHMARK.json: {err}", file=sys.stderr)
        sys.exit(2)
    return manifest


def check_printed(manifest: Dict[str, Any], workload: str, trace: bool,
                  metrics: Dict[str, Dict[str, Any]]) -> None:
    """Assert the metric names and units about to be printed are exactly
    the manifest's for this mode, and that the workload is declared."""
    _require(workload in [w["name"] for w in manifest["workloads"]],
             f"workload {workload!r} is not in the manifest")
    declared = {
        m["name"]: m["unit"]
        for m in manifest["per_layer" if trace else "end_to_end"]
    }
    printed = {name: m["unit"] for name, m in metrics.items()}
    missing = sorted(set(declared) - set(printed))
    extra = sorted(set(printed) - set(declared))
    wrong = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
    _require(not (missing or extra or wrong),
             f"printed metrics differ from the manifest: missing {missing}, "
             f"undeclared {extra}, unit mismatch {wrong}")


if __name__ == "__main__":
    m = load()
    print(f"BENCHMARK.json ok: {len(m['workloads'])} workloads, "
          f"{len(m['end_to_end'])} end-to-end and {len(m['per_layer'])} per-layer metrics")

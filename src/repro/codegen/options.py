"""Compile options: every ``compile_sdfg`` knob resolved once.

:func:`resolve_options` is the only reader of the four compile-time
variables (``REPRO_CACHE``, ``REPRO_CACHE_DIR``, ``REPRO_SANITIZE``,
``REPRO_PROFILE``); the artifact keeps its frozen record (DESIGN §9,
"Call path").  The deadline and memory budget are arguments only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

_ON = ("1", "true", "on", "yes")
_OFF = ("", "0", "false", "off", "no")


def parse_flag(name: str, raw: Optional[str]) -> bool:
    """The one spelling rule of every boolean ``REPRO_*`` flag:
    case-insensitive and stripped, ``1``/``true``/``on``/``yes`` mean on,
    unset/``0``/``false``/``off``/``no`` mean off, and anything else is a
    ``ValueError`` naming the variable."""
    text = (raw or "").strip().lower()
    if text in _ON:
        return True
    if text in _OFF:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; use 1/true/on/yes or 0/false/off/no"
    )


@dataclass(frozen=True)
class CompileOptions:
    """The resolved knobs one artifact is built with (see
    :func:`~repro.codegen.compiler.compile_sdfg` for their meaning)."""

    backend: str = "python"
    validate: bool = True
    fallback: bool = True
    cache: Any = None  # a ProgramCache, or None when caching is off
    sanitize: Optional[str] = None  # None, "raise" or "collect"
    deadline: Optional[float] = None
    memory_budget: Optional[int] = None
    isolate: bool = True
    vectorize: bool = True
    profile: bool = False  # REPRO_PROFILE: time every top-level call

    @property
    def variant(self) -> str:
        """The program-cache variant key (empty for the defaults)."""
        parts = []
        if self.sanitize:
            parts.append("sanitize")
        if not self.vectorize:
            parts.append("novec")
        return ":".join(parts)


def resolve_options(backend="python", validate=True, fallback=True, cache=None,
                    sanitize=None, deadline=None, memory_budget=None, isolate=True,
                    vectorize=True) -> CompileOptions:
    """Resolve ``compile_sdfg``'s keyword arguments (same names and
    defaults) and their environment fallbacks into one record."""
    from repro.codegen import progcache

    env = os.environ
    if cache is None:
        cache = env.get("REPRO_CACHE", "").strip().lower() or (
            "disk" if env.get("REPRO_CACHE_DIR") else "off"
        )
    if cache == "off":
        cache = None
    elif cache == "memory":
        cache = progcache.shared_cache()
    elif cache == "disk":
        cache = progcache._disk_cache(env.get("REPRO_CACHE_DIR") or os.path.join(
            os.path.expanduser("~"), ".cache", "repro", "progcache"))
    elif not isinstance(cache, progcache.ProgramCache):
        raise ValueError(
            f"unknown program cache mode {cache!r}; expected 'disk', 'memory', "
            "'off', or a ProgramCache instance"
        )

    if sanitize is None:
        raw = env.get("REPRO_SANITIZE", "")
        mode = raw.strip().lower()
        sanitize = mode if mode in ("raise", "collect") else parse_flag("REPRO_SANITIZE", raw)
    if sanitize is True:
        sanitize = "raise"
    elif sanitize is False:
        sanitize = None
    if sanitize not in (None, "raise", "collect"):
        raise ValueError(f"unknown sanitize mode {sanitize!r}")

    profile = parse_flag("REPRO_PROFILE", env.get("REPRO_PROFILE"))
    return CompileOptions(backend, validate, fallback, cache, sanitize, deadline,
                          memory_budget, isolate, vectorize, profile)

"""The chunk decision of the parallel tier (DESIGN §14) and of strips (§9).

A map whose serial lowering took a NumPy tier has had every memlet
analysed point by point: per dimension a constant or ``c*p + d``
(:func:`repro.codegen.python_gen._analyze_subset`).  The tier records
those facts as accesses (``memlet``, ``terms``, and ``merge``, the
operator a write accumulates with, None for a plain store).
:func:`chunk_plan` reads them and nothing else: there is no second
analysis of the map.  The same proof decides strips (DESIGN §9): a
top-level scatter map strips along its first parameter when
:func:`chunk_plan` accepts that parameter.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sdfg.data import Stream
from repro.sdfg.dtypes import ReductionType
from repro.symbolic import Integer
from repro.symbolic.sets import decide_nonnegative


class Unchunkable(Exception):
    """The map stays serial; the message says why (it becomes a W703)."""


def chunk_plan(sdfg, m, reads, writes) -> Tuple[str, Dict[str, ReductionType]]:
    """The parameter to chunk map ``m`` over and the outputs each chunk
    accumulates into a private copy (container -> operator), decided from
    the accesses its NumPy tier analysed.  Raises :class:`Unchunkable`
    naming what keeps the map serial: a stream output (push order is not
    chunkable), a read of a privatized output (it would read the copy),
    a container both stored to and accumulated into, or no parameter
    that passes :func:`_chunk_conflict`.  Parameters are tried in map
    order; the first that passes wins."""
    merge: Dict[str, ReductionType] = {}
    stores = []
    for w in writes:
        data = w.memlet.data
        if isinstance(sdfg.arrays[data], Stream):
            raise Unchunkable(f"stream push to {data!r} (ordering is not chunkable)")
        if w.merge is None:
            stores.append(w)
        elif merge.setdefault(data, w.merge) != w.merge:
            raise Unchunkable(f"conflicting WCR operators on {data!r}")
    mixed = set(merge) & {w.memlet.data for w in stores}
    if mixed:
        raise Unchunkable(f"container(s) {sorted(mixed)} mix WCR and plain writes")
    for r in reads:
        if r.memlet.data in merge:
            raise Unchunkable(
                f"map reads {r.memlet.data!r}, which it accumulates into "
                "through a per-chunk private copy"
            )
    reasons = []
    for p, rng in zip(m.params, m.range.ranges):
        why = _chunk_conflict(p, rng, stores, reads)
        if why is None:
            return p, merge
        reasons.append(why)
    raise Unchunkable("; ".join(reasons))


def _chunk_conflict(p, rng, stores, reads) -> Optional[str]:
    """Why chunking parameter ``p`` (range ``rng``) may let two chunks
    touch one element of a plain output, or None when it cannot.  Every
    store must be ``c*p + d`` with positive integer ``c`` in some
    dimension, so distinct iterations store to distinct points; every
    other access of a stored container must take the same term in that
    dimension (it stays inside its own iteration's points) or be provably
    apart in a dimension free of map parameters."""
    step = rng.step
    if rng.tile != Integer(1) or not (isinstance(step, Integer) and step.value > 0):
        return f"parameter {p!r} has a symbolic, tiled or non-positive step"
    for w in stores:
        where = f"{w.memlet.data}[{w.memlet.subset}]"
        k = next((k for k, t in enumerate(w.terms) if t[:2] == ("param", p)), None)
        if k is None:
            return f"write {where} repeats across iterations of {p!r}"
        c = w.terms[k][2]
        if not (isinstance(c, Integer) and c.value > 0):
            return f"write {where} strides {p!r} by {c}, not a positive integer"
        for verb, group in (("reads", reads), ("writes", stores)):
            for other in group:
                if (
                    other is not w and other.memlet.data == w.memlet.data
                    and not _chunk_local(other.terms, w.terms, k)
                ):
                    return (
                        f"map {verb} {w.memlet.data!r}[{other.memlet.subset}], "
                        f"which other chunks may write through [{w.memlet.subset}]"
                    )
    return None


def _chunk_local(terms, store, k) -> bool:
    """Whether an access with ``terms`` stays clear of the points other
    chunks store through ``store``: it takes the same term in the chunked
    dimension ``k``, or two constant terms elsewhere are provably apart."""
    if terms is None:
        return False
    if terms[k] == store[k]:
        return True
    for a, b in zip(terms, store):
        if a[0] == b[0] == "const":
            gap = a[1] - b[1]
            if decide_nonnegative(gap * gap - 1) is True:
                return True
    return False

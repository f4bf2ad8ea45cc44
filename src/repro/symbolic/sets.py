"""Symbolic integer range sets: the substrate under memlet subsets.

A :class:`Range` is a strided, half-open interval ``start:end:step`` with
an optional ``tile`` width (the paper's ``start:end:stride:tilesize``,
normalized to half-open bounds).  A :class:`Subset` is one Range per array
dimension.  Subsets support the operations the IR needs:

* ``num_elements`` — symbolic data-movement volume (drives memlets),
* ``covers`` / ``intersects`` — containment tests for validation and
  transformation applicability,
* ``offset`` / ``compose`` — reindexing when memlets traverse scopes,
* ``image`` — the image of a subset under a map parameter sweeping its
  range, used by memlet propagation (paper §4.3 step ❶).

Containment of *symbolic* bounds is undecidable in general; ``covers``
uses exact affine reasoning where possible and a deterministic
multi-point probing fallback (symbols assumed positive, as in DaCe),
returning ``False`` when unsure — conservative for every caller.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.symbolic import memo
from repro.symbolic.expr import (
    Add,
    CeilDiv,
    Expr,
    Integer,
    Max,
    Min,
    Mul,
    Real,
    Symbol,
    sympify,
)

ExprLike = Union[int, str, Expr]

#: Deterministic probe values used when affine reasoning cannot decide a
#: sign question.  Distinct primes avoid accidental coincidences such as
#: ``N == M`` or ``N == 2*M`` holding at the probe point.
_PROBE_VALUES = (101, 257, 1021, 4099, 65537)


def linear_coefficient(e: Expr, sym: Symbol) -> Optional[Expr]:
    """Return ``c`` if ``e`` is linear in ``sym`` (``e = c*sym + d``), else None.

    A canonical sum whose terms are each free of ``sym``, ``sym`` itself
    or ``k*sym`` for an Integer ``k`` is read off its terms.  Anything
    else takes the substitution rule of :func:`_coefficient_by_subs`,
    and so does a top-level Real term, where that rule answers
    ``Real(0.0)`` and not ``Integer(0)``: both rules give the same value
    of the same type on every expression.
    """
    k = 0
    for term in e.args if type(e) is Add else (e,):
        if term == sym:
            k += 1
        elif (
            type(term) is Mul and len(term.args) == 2 and term.args[1] == sym
            and type(term.args[0]) is Integer
        ):
            k += term.args[0].value
        elif type(term) is Real or sym in term.free_symbols:
            return _coefficient_by_subs(e, sym)
    return Integer(k)


def _coefficient_by_subs(e: Expr, sym: Symbol) -> Optional[Expr]:
    """:func:`linear_coefficient` by substitution, for any expression.

    Equal differences at 0, 1, 2 are necessary but not sufficient (the
    cubic ``p*(p-1)*(p-2)`` has them), so ``c`` must also be free of
    ``sym`` and the canonical ``e - c*sym`` must be.  None is the sound
    answer: callers fall back to a Min/Max envelope.
    """
    c = e.subs({sym: 1}) - e.subs({sym: 0})
    if c != e.subs({sym: 2}) - e.subs({sym: 1}) or sym in c.free_symbols:
        return None
    if sym in (e - c * sym).free_symbols:
        return None
    return c


@memo.cached("nonneg")
def decide_nonnegative(e: Expr) -> Optional[bool]:
    """Best-effort decision of ``e >= 0`` under the all-symbols-positive model.

    Returns True/False when confident, None when genuinely undecidable.
    A pure function of ``e``, memoized on it.
    """
    if isinstance(e, Integer):
        return e.value >= 0
    if not e.free_symbols:
        try:
            return e.evaluate({}) >= 0
        except Exception:
            return None
    syms = sorted(e.free_symbols, key=lambda s: s.name)
    n = len(syms)
    results = []
    # Vary both magnitude and relative ordering of symbols across probes so
    # that order-dependent signs (N - M) are detected as undecidable.
    patterns = (
        lambda idx: idx,  # ascending
        lambda idx: n - 1 - idx,  # descending
        lambda idx: (idx * 2 + 1) % (n + 1),  # shuffled
    )
    for base in _PROBE_VALUES:
        for pattern in patterns:
            bindings = {s.name: base + 13 * pattern(idx) for idx, s in enumerate(syms)}
            try:
                results.append(e.evaluate(bindings) >= 0)
            except Exception:
                return None
    if all(results):
        return True
    if not any(results):
        return False
    return None


class Range:
    """Half-open strided interval ``start:end:step`` with tile width.

    ``tile > 1`` means each index denotes a block of ``tile`` consecutive
    elements (used by :class:`~repro.transformations`' Vectorization).

    Immutable like :class:`Expr` (so memoized parses and images may share
    one instance between graphs); the rendered string, the hash,
    ``size``, ``num_elements`` and ``free_symbols`` are cached on the
    instance.
    """

    __slots__ = ("start", "end", "step", "tile", "_str", "_size", "_num", "_free", "_hash")

    def __init__(
        self,
        start: ExprLike,
        end: ExprLike,
        step: ExprLike = 1,
        tile: ExprLike = 1,
    ):
        step = sympify(step)
        if step == Integer(0):
            raise ValueError("range step must be nonzero")
        object.__setattr__(self, "start", sympify(start))
        object.__setattr__(self, "end", sympify(end))
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "tile", sympify(tile))
        object.__setattr__(self, "_str", None)

    def __setattr__(self, *a):
        raise AttributeError("Range is immutable")

    def __copy__(self) -> "Range":
        return self

    def __deepcopy__(self, _memo) -> "Range":
        return self

    @staticmethod
    def point(index: ExprLike) -> "Range":
        """Single-element range ``[index, index+1)``."""
        idx = sympify(index)
        return Range(idx, idx + 1)

    def is_point(self) -> bool:
        return bool((self.end - self.start) == Integer(1)) and self.tile == Integer(1)

    def size(self) -> Expr:
        """Number of iterated indices: ``ceil((end - start) / step)``."""
        n = getattr(self, "_size", None)
        if n is None:
            n = CeilDiv.make(self.end - self.start, self.step)
            object.__setattr__(self, "_size", n)
        return n

    def num_elements(self) -> Expr:
        n = getattr(self, "_num", None)
        if n is None:
            n = Mul.make(self.size(), self.tile)
            object.__setattr__(self, "_num", n)
        return n

    def subs(self, mapping: Mapping) -> "Range":
        return Range(
            self.start.subs(mapping),
            self.end.subs(mapping),
            self.step.subs(mapping),
            self.tile.subs(mapping),
        )

    @property
    def free_symbols(self) -> frozenset:
        fs = getattr(self, "_free", None)
        if fs is None:
            fs = (
                self.start.free_symbols
                | self.end.free_symbols
                | self.step.free_symbols
                | self.tile.free_symbols
            )
            object.__setattr__(self, "_free", fs)
        return fs

    def evaluate(self, bindings: Mapping[str, int] | None = None) -> range:
        """Concrete Python range under symbol bindings."""
        return range(
            int(self.start.evaluate(bindings)),
            int(self.end.evaluate(bindings)),
            int(self.step.evaluate(bindings)),
        )

    def min_element(self) -> Expr:
        return self.start

    def max_element(self) -> Expr:
        """Largest index touched (inclusive), accounting for stride and tile."""
        n = self.size()
        last = self.start + (n - 1) * self.step
        return last + self.tile - 1

    def covers(self, other: "Range") -> bool:
        """True if every element of ``other`` lies inside this range's span.

        Span-based (ignores stride holes), which is the conservative
        direction for data-dependency analysis: a superset span never
        under-reports movement.
        """
        lo_ok = decide_nonnegative(other.min_element() - self.min_element())
        hi_ok = decide_nonnegative(self.max_element() - other.max_element())
        return bool(lo_ok) and bool(hi_ok)

    def union_bb(self, other: "Range") -> "Range":
        """Bounding-box union (stride collapses to 1 unless equal)."""
        start = Min.make(self.start, other.start)
        end = Max.make(self.end, other.end)
        step = self.step if self.step == other.step else Integer(1)
        tile = self.tile if self.tile == other.tile else Integer(1)
        # A bounding box with a stride would claim holes it cannot prove.
        if not (self.start == other.start and self.end == other.end):
            step = Integer(1)
        return Range(start, end, step, tile)

    def offset_by(self, delta: ExprLike) -> "Range":
        d = sympify(delta)
        return Range(self.start + d, self.end + d, self.step, self.tile)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Range):
            return NotImplemented
        return (
            self.start == other.start
            and self.end == other.end
            and self.step == other.step
            and self.tile == other.tile
        )

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.start, self.end, self.step, self.tile))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        s = self._str
        if s is None:
            s = self._to_str()
            object.__setattr__(self, "_str", s)
        return s

    def _to_str(self) -> str:
        if self.is_point():
            return str(self.start)
        s = f"{self.start}:{self.end}"
        if self.step != Integer(1) or self.tile != Integer(1):
            s += f":{self.step}"
        if self.tile != Integer(1):
            s += f":{self.tile}"
        return s

    def __repr__(self) -> str:
        return f"Range({self})"


class Subset:
    """A multi-dimensional subset: one :class:`Range` per dimension.

    Immutable like :class:`Range`; copies are the object itself, and
    the rendered string, the hash, ``size``, ``num_elements`` and
    ``free_symbols`` are cached on the instance.
    """

    __slots__ = ("ranges", "_size", "_num", "_free", "_hash", "_str")

    def __init__(self, ranges: Iterable[Range]):
        object.__setattr__(self, "ranges", tuple(ranges))

    def __setattr__(self, *a):
        raise AttributeError("Subset is immutable")

    def __copy__(self) -> "Subset":
        return self

    def __deepcopy__(self, _memo) -> "Subset":
        return self

    # -- constructors --------------------------------------------------------
    @staticmethod
    @memo.cached("subset")
    def from_string(text: str) -> "Subset":
        """Parse ``"0:N, k, 2*i:2*i+2"`` into a subset (memoized on ``text``)."""
        dims = _split_toplevel_commas(text)
        ranges = []
        for dim in dims:
            parts = _split_toplevel_colons(dim)
            if len(parts) == 1:
                ranges.append(Range.point(sympify(parts[0])))
            elif len(parts) == 2:
                ranges.append(Range(sympify(parts[0]), sympify(parts[1])))
            elif len(parts) == 3:
                ranges.append(
                    Range(sympify(parts[0]), sympify(parts[1]), sympify(parts[2]))
                )
            elif len(parts) == 4:
                ranges.append(
                    Range(
                        sympify(parts[0]),
                        sympify(parts[1]),
                        sympify(parts[2]),
                        sympify(parts[3]),
                    )
                )
            else:
                raise ValueError(f"malformed range {dim!r}")
        return Subset(ranges)

    @staticmethod
    def from_array(shape: Sequence[ExprLike]) -> "Subset":
        """The full subset ``[0:d0, 0:d1, ...]`` of an array shape."""
        return Subset([Range(0, sympify(d)) for d in shape])

    @staticmethod
    def from_indices(indices: Sequence[ExprLike]) -> "Subset":
        return Subset([Range.point(i) for i in indices])

    # -- basic queries --------------------------------------------------------
    @property
    def dims(self) -> int:
        return len(self.ranges)

    def is_point(self) -> bool:
        return all(r.is_point() for r in self.ranges)

    def num_elements(self) -> Expr:
        out = getattr(self, "_num", None)
        if out is None:
            out = Integer(1)
            for r in self.ranges:
                out = Mul.make(out, r.num_elements())
            object.__setattr__(self, "_num", out)
        return out

    def size(self) -> List[Expr]:
        sizes = getattr(self, "_size", None)
        if sizes is None:
            sizes = tuple(r.num_elements() for r in self.ranges)
            object.__setattr__(self, "_size", sizes)
        return list(sizes)

    def min_element(self) -> List[Expr]:
        return [r.min_element() for r in self.ranges]

    def max_element(self) -> List[Expr]:
        return [r.max_element() for r in self.ranges]

    @property
    def free_symbols(self) -> frozenset:
        out = getattr(self, "_free", None)
        if out is None:
            out = frozenset()
            for r in self.ranges:
                out |= r.free_symbols
            object.__setattr__(self, "_free", out)
        return out

    # -- transformations -------------------------------------------------------
    def subs(self, mapping: Mapping) -> "Subset":
        return Subset(r.subs(mapping) for r in self.ranges)

    def offset(self, origin: "Subset", negative: bool = True) -> "Subset":
        """Translate by another subset's minimum (re-indexing to ``origin``).

        ``negative=True`` subtracts (make relative); False adds back.
        """
        if origin.dims != self.dims:
            raise ValueError("dimensionality mismatch in offset")
        out = []
        for r, o in zip(self.ranges, origin.ranges):
            d = o.min_element()
            out.append(r.offset_by(-d if negative else d))
        return Subset(out)

    def compose(self, inner: "Subset") -> "Subset":
        """Resolve ``inner`` (relative coordinates) within this subset."""
        if inner.dims != self.dims:
            raise ValueError("dimensionality mismatch in compose")
        out = []
        for o, i in zip(self.ranges, inner.ranges):
            start = o.start + i.start * o.step
            end = o.start + i.end * o.step
            step = o.step * i.step
            out.append(Range(start, end, step, i.tile))
        return Subset(out)

    def covers(self, other: "Subset") -> bool:
        if other.dims != self.dims:
            return False
        return all(a.covers(b) for a, b in zip(self.ranges, other.ranges))

    def intersects(self, other: "Subset") -> Optional[bool]:
        """Bounding-box overlap test; None when symbolically undecidable."""
        if other.dims != self.dims:
            return False
        overall: Optional[bool] = True
        for a, b in zip(self.ranges, other.ranges):
            # Disjoint iff a.max < b.min or b.max < a.min.
            left = decide_nonnegative(b.min_element() - a.max_element() - 1)
            right = decide_nonnegative(a.min_element() - b.max_element() - 1)
            if left is True or right is True:
                return False
            if left is None or right is None:
                overall = None
        return overall

    def union_bb(self, other: "Subset") -> "Subset":
        if other.dims != self.dims:
            raise ValueError("dimensionality mismatch in union")
        return Subset(a.union_bb(b) for a, b in zip(self.ranges, other.ranges))

    def image(self, params: Mapping[str, Range]) -> "Subset":
        """Image of the subset as each parameter sweeps its range.

        For each dimension expression linear in a parameter the exact
        bounds are the expression evaluated at the parameter's first/last
        value (monotone in each variable); nonlinear dimensions fall back
        to Min/Max envelopes over the parameter endpoints.

        Subsets and ranges are immutable, so results are memoized on
        (subset, parameter ranges) identity.
        """
        try:
            key = (self, tuple(sorted(params.items())))
        except TypeError:
            return self._image(params)
        return memo.memoized("image", key, lambda: self._image(params))

    def _image(self, params: Mapping[str, Range]) -> "Subset":
        out = []
        for r in self.ranges:
            lo, hi_incl = r.min_element(), r.max_element()
            step: Expr = r.step
            for pname, prange in params.items():
                sym = Symbol(pname)
                if sym not in (lo.free_symbols | hi_incl.free_symbols):
                    continue
                first = prange.start
                n = prange.size()
                last = prange.start + (n - 1) * prange.step
                lo, hi_incl = _sweep(lo, hi_incl, sym, first, last)
                step = Integer(1)  # union over iterations collapses strides
            out.append(Range(lo, hi_incl + 1, step, r.tile))
        return Subset(out)

    # -- concrete evaluation ----------------------------------------------------
    def evaluate(self, bindings: Mapping[str, int] | None = None) -> Tuple[slice, ...]:
        """Concrete tuple of slices for NumPy indexing."""
        out = []
        for r in self.ranges:
            start = int(r.start.evaluate(bindings))
            end = int(r.end.evaluate(bindings))
            step = int(r.step.evaluate(bindings))
            out.append(slice(start, end, step))
        return tuple(out)

    def evaluate_indices(self, bindings: Mapping[str, int] | None = None) -> Tuple[int, ...]:
        """Concrete element index (requires a point subset)."""
        out = []
        for r in self.ranges:
            if int(r.end.evaluate(bindings)) - int(r.start.evaluate(bindings)) != 1:
                raise ValueError(f"subset {self} is not a point")
            out.append(int(r.start.evaluate(bindings)))
        return tuple(out)

    # -- dunder ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Range]:
        return iter(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)

    def __getitem__(self, i: int) -> Range:
        return self.ranges[i]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Subset):
            return NotImplemented
        return self.ranges == other.ranges

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.ranges)
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        s = getattr(self, "_str", None)
        if s is None:
            s = ", ".join(str(r) for r in self.ranges)
            object.__setattr__(self, "_str", s)
        return s

    def __repr__(self) -> str:
        return f"Subset[{self}]"


def Indices(indices: Sequence[ExprLike]) -> Subset:
    """Convenience constructor for exact-point subsets."""
    return Subset.from_indices(indices)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _sweep(lo: Expr, hi: Expr, sym: Symbol, first: Expr, last: Expr) -> Tuple[Expr, Expr]:
    """The least ``lo`` and the greatest ``hi`` as ``sym`` sweeps from
    ``first`` to ``last``.  A point has ``lo == hi``: its coefficient and
    the coefficient's sign are worked out once for both ends."""
    up_lo = _increasing(lo, sym)
    up_hi = up_lo if hi == lo else _increasing(hi, sym)
    if up_lo is None:
        lo = Min.make(lo.subs({sym: first}), lo.subs({sym: last}))
    else:
        lo = lo.subs({sym: first if up_lo else last})
    if up_hi is None:
        hi = Max.make(hi.subs({sym: first}), hi.subs({sym: last}))
    else:
        hi = hi.subs({sym: last if up_hi else first})
    return lo, hi


def _increasing(e: Expr, sym: Symbol) -> Optional[bool]:
    """Whether ``e`` is linear in ``sym`` with a coefficient known to be
    nonnegative (True) or negative (False); None when either is unknown."""
    c = linear_coefficient(e, sym)
    return None if c is None else decide_nonnegative(c)


def _split_toplevel(text: str, sep: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _split_toplevel_commas(text: str) -> List[str]:
    return _split_toplevel(text, ",")


def _split_toplevel_colons(text: str) -> List[str]:
    return _split_toplevel(text, ":")

"""Immutable symbolic expression tree with canonicalizing constructors.

Expressions are built through operator overloading (``N * 2 + 1``) or the
factory classmethods (``Add.make``, ``Mul.make``, ...).  Construction
performs light canonicalization — constant folding, flattening,
like-term collection, and a deterministic structural ordering — which is
enough for the IR's needs (deciding equality of subset bounds, computing
data-movement volumes, and evaluating under concrete symbol bindings).

The engine deliberately distinguishes *integer* semantics: ``/`` on
expressions is exact division when it divides evenly and stays a
:class:`FloorDiv` otherwise, matching how array index arithmetic behaves
in generated code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Mapping, Sequence, Tuple, Union

from repro.symbolic import memo

Numeric = Union[int, float, Fraction]

#: Order classes for deterministic sorting of commutative arguments.
_CLASS_ORDER = {
    "Integer": 0,
    "Real": 1,
    "Symbol": 2,
    "Pow": 3,
    "Mul": 4,
    "Add": 5,
    "FloorDiv": 6,
    "CeilDiv": 7,
    "Mod": 8,
    "Min": 9,
    "Max": 10,
    "Abs": 11,
}


def _sort_key(e: "Expr") -> Tuple[int, str]:
    return (_CLASS_ORDER.get(type(e).__name__, 99), str(e))


class Expr:
    """Base class of all symbolic expressions.

    Instances are immutable and hashable; equality is structural.

    Immutability is what makes the hot-path caches sound: the hash, the
    rendered string, and the free-symbol set are each computed once and
    stored on the instance, and :meth:`subs` results are memoized on
    structural identity in :mod:`repro.symbolic.memo`.
    """

    __slots__ = ("_hash", "_str", "_free")

    # -- construction helpers ------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return Add.make(self, sympify(other))

    def __radd__(self, other: Any) -> "Expr":
        return Add.make(sympify(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Add.make(self, Mul.make(Integer(-1), sympify(other)))

    def __rsub__(self, other: Any) -> "Expr":
        return Add.make(sympify(other), Mul.make(Integer(-1), self))

    def __mul__(self, other: Any) -> "Expr":
        return Mul.make(self, sympify(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Mul.make(sympify(other), self)

    def __neg__(self) -> "Expr":
        return Mul.make(Integer(-1), self)

    def __pos__(self) -> "Expr":
        return self

    def __pow__(self, other: Any) -> "Expr":
        return Pow.make(self, sympify(other))

    def __truediv__(self, other: Any) -> "Expr":
        return _divide(self, sympify(other))

    def __rtruediv__(self, other: Any) -> "Expr":
        return _divide(sympify(other), self)

    def __floordiv__(self, other: Any) -> "Expr":
        return FloorDiv.make(self, sympify(other))

    def __rfloordiv__(self, other: Any) -> "Expr":
        return FloorDiv.make(sympify(other), self)

    def __mod__(self, other: Any) -> "Expr":
        return Mod.make(self, sympify(other))

    def __rmod__(self, other: Any) -> "Expr":
        return Mod.make(sympify(other), self)

    # Rich comparisons build boolean expression nodes; use ``structurally_equal``
    # (or ``==`` which we keep structural) for graph bookkeeping.
    def eq(self, other: Any) -> "BoolExpr":
        return Eq.make(self, sympify(other))

    def ne(self, other: Any) -> "BoolExpr":
        return Ne.make(self, sympify(other))

    def __lt__(self, other: Any) -> "BoolExpr":
        return Lt.make(self, sympify(other))

    def __le__(self, other: Any) -> "BoolExpr":
        return Le.make(self, sympify(other))

    def __gt__(self, other: Any) -> "BoolExpr":
        return Gt.make(self, sympify(other))

    def __ge__(self, other: Any) -> "BoolExpr":
        return Ge.make(self, sympify(other))

    # -- structural equality / hashing --------------------------------------
    def _key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other: Any) -> bool:
        if self is other:
            return True
        if isinstance(other, (int, float)):
            other = sympify(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__,) + self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        raise TypeError(
            f"truth value of symbolic expression {self!s} is ambiguous; "
            "use .evaluate() with concrete bindings"
        )

    # -- core protocol -------------------------------------------------------
    @property
    def free_symbols(self) -> frozenset:
        """Set of :class:`Symbol` objects occurring in the expression
        (computed once per instance, then cached)."""
        fs = getattr(self, "_free", None)
        if fs is None:
            fs = self._free_symbols()
            object.__setattr__(self, "_free", fs)
        return fs

    def _free_symbols(self) -> frozenset:
        raise NotImplementedError

    def subs(self, mapping: Mapping[Any, Any]) -> "Expr":
        """Substitute symbols (by object or name) with expressions/values.

        Results are memoized on (expression, normalized mapping) identity;
        closed expressions short-circuit to ``self``.
        """
        if not mapping or not self.free_symbols:
            return self
        try:
            key = (self, _mapping_key(mapping))
        except (TypeError, ValueError):  # unhashable/odd mapping — bypass
            return self._subs(mapping)
        return memo.memoized("subs", key, lambda: self._subs(mapping))

    def _subs(self, mapping: Mapping[Any, Any]) -> "Expr":
        raise NotImplementedError

    def __str__(self) -> str:
        s = getattr(self, "_str", None)
        if s is None:
            s = self._to_str()
            object.__setattr__(self, "_str", s)
        return s

    def _to_str(self) -> str:
        raise NotImplementedError

    # Expressions are immutable: copies are the object itself.  (This also
    # keeps interned Symbols/Integers unique under copy.deepcopy.)
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, _memo) -> "Expr":
        return self

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        """Evaluate to a concrete number; raises ``KeyError`` on free symbols."""
        raise NotImplementedError

    def is_constant(self) -> bool:
        return not self.free_symbols

    def as_int(self) -> int:
        """Evaluate a constant expression to a Python int."""
        v = self.evaluate({})
        iv = int(v)
        if iv != v:
            raise ValueError(f"{self} does not evaluate to an integer (got {v})")
        return iv

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self!s}>"


#: Small-integer interning window (covers the constants the IR churns on).
_SMALL_INT_MIN, _SMALL_INT_MAX = -64, 1024


class Integer(Expr):
    """Integer literal.  Small values are interned."""

    __slots__ = ("value",)
    _interned: Dict[int, "Integer"] = {}

    # Built in ``__new__`` alone: with no ``__init__``, an interned
    # instance is returned as it is, not initialized again.
    def __new__(cls, value: int = 0):
        if cls is Integer and isinstance(value, int):
            cached = Integer._interned.get(value)
            if cached is not None:
                return cached
        self = object.__new__(cls)
        v = int(value)
        object.__setattr__(self, "value", v)
        if cls is Integer and _SMALL_INT_MIN <= v <= _SMALL_INT_MAX:
            Integer._interned.setdefault(v, self)
        return self

    def _key(self) -> Tuple:
        return (self.value,)

    def _free_symbols(self) -> frozenset:
        return frozenset()

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return self

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return self.value

    def _to_str(self) -> str:
        return str(self.value)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Integer is immutable")


class Real(Expr):
    """Floating-point literal (rare in the IR; used by WCR identities).

    ``-0.0`` is stored as ``0.0``: the two compare and hash equal, so
    normalizing them keeps every memo keyed on structural equality from
    returning a differently-rendered result for an "equal" argument.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value) + 0.0)

    def _key(self) -> Tuple:
        return (self.value,)

    def _free_symbols(self) -> frozenset:
        return frozenset()

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return self

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return self.value

    def _to_str(self) -> str:
        return repr(self.value)

    def __setattr__(self, *a):
        raise AttributeError("Real is immutable")


class Symbol(Expr):
    """A named scalar unknown (array size, map parameter, loop variable).

    Symbols are interned by name: ``Symbol("N") is Symbol("N")``.
    """

    __slots__ = ("name",)
    _interned: Dict[str, "Symbol"] = {}

    # Built in ``__new__`` alone, like :class:`Integer`.
    def __new__(cls, name: str = ""):
        if cls is Symbol and isinstance(name, str):
            cached = Symbol._interned.get(name)
            if cached is not None:
                return cached
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise ValueError(f"invalid symbol name: {name!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        if cls is Symbol:
            if len(Symbol._interned) > 4096:  # unbounded-name backstop
                Symbol._interned.clear()
            Symbol._interned.setdefault(name, self)
        return self

    def _key(self) -> Tuple:
        return (self.name,)

    def _free_symbols(self) -> frozenset:
        return frozenset((self,))

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        for key, val in mapping.items():
            kname = key.name if isinstance(key, Symbol) else key
            if kname == self.name:
                return sympify(val)
        return self

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        if bindings is None or self.name not in bindings:
            raise KeyError(f"unbound symbol {self.name!r}")
        return bindings[self.name]

    def _to_str(self) -> str:
        return self.name

    def __setattr__(self, *a):
        raise AttributeError("Symbol is immutable")


def symbols(names: str) -> Tuple[Symbol, ...]:
    """Create several symbols at once: ``M, N, K = symbols('M N K')``."""
    return tuple(Symbol(n) for n in names.replace(",", " ").split())


class _NAry(Expr):
    """Shared machinery for commutative n-ary operators (Add/Mul/Min/Max)."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", tuple(args))

    def _key(self) -> Tuple:
        return self.args

    def _free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Add(_NAry):
    """Canonical sum: constants folded, like terms collected, args sorted."""

    __slots__ = ()

    @staticmethod
    @memo.cached("add")
    def make(*args: Expr) -> Expr:
        # Memoized on the argument tuple: structurally equal arguments are
        # the same value (Real stores -0.0 as 0.0), and Reals fold through
        # Fraction anyway; a NaN Real makes Fraction raise, so never caches.
        terms: Dict[Expr, Fraction] = {}
        const = Fraction(0)
        has_float = False
        stack = list(args)
        while stack:
            a = stack.pop()
            if isinstance(a, Add):
                stack.extend(a.args)
            elif isinstance(a, Integer):
                const += a.value
            elif isinstance(a, Real):
                const += Fraction(a.value).limit_denominator(10**12)
                has_float = True
            else:
                coeff, rest = _split_coeff(a)
                terms[rest] = terms.get(rest, Fraction(0)) + coeff
        out = []
        for rest in sorted(terms, key=_sort_key):
            c = terms[rest]
            if c == 0:
                continue
            out.append(_coeff_times(c, rest))
        if const != 0 or not out:
            out.insert(0, _const_expr(const, has_float))
        if len(out) == 1:
            return out[0]
        return Add(tuple(out))

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Add.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return sum(a.evaluate(bindings) for a in self.args)

    def _to_str(self) -> str:
        parts = []
        for i, a in enumerate(self.args):
            s = str(a)
            if i > 0 and not s.startswith("-"):
                parts.append("+")
            parts.append(s)
        return " ".join(parts).replace("+ -", "- ")


class Mul(_NAry):
    """Canonical product: constants folded, powers of equal bases merged."""

    __slots__ = ()

    @staticmethod
    @memo.cached("mul")
    def make(*args: Expr) -> Expr:
        # Memoized like Add.make; Reals fold through Fraction here too.
        coeff = Fraction(1)
        has_float = False
        powers: Dict[Expr, Expr] = {}
        stack = list(args)
        while stack:
            a = stack.pop()
            if isinstance(a, Mul):
                stack.extend(a.args)
            elif isinstance(a, Integer):
                coeff *= a.value
            elif isinstance(a, Real):
                coeff *= Fraction(a.value).limit_denominator(10**12)
                has_float = True
            else:
                base, exp = (a.base, a.exp) if isinstance(a, Pow) else (a, Integer(1))
                if base in powers:
                    powers[base] = Add.make(powers[base], exp)
                else:
                    powers[base] = exp
        if coeff == 0:
            return Integer(0)
        out = []
        for base in sorted(powers, key=_sort_key):
            p = Pow.make(base, powers[base])
            if p != Integer(1):
                out.append(p)
        if not out:
            return _const_expr(coeff, has_float)
        # Distribute a constant coefficient over a sum so that terms built
        # via subtraction (c1 + x) - (c2 + x) cancel structurally.
        if len(out) == 1 and isinstance(out[0], Add):
            c = _const_expr(coeff, has_float)
            return Add.make(*(Mul.make(c, t) for t in out[0].args))
        if coeff != 1:
            out.insert(0, _const_expr(coeff, has_float))
        if len(out) == 1:
            return out[0]
        return Mul(tuple(out))

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Mul.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        r: Numeric = 1
        for a in self.args:
            r *= a.evaluate(bindings)
        return r

    def _to_str(self) -> str:
        def paren(a: Expr) -> str:
            s = str(a)
            # Parenthesize any infix operand of lower precedence.
            return f"({s})" if isinstance(a, (Add, FloorDiv, Mod)) else s

        # Render a leading -1 coefficient as a sign.
        args = self.args
        if isinstance(args[0], Integer) and args[0].value == -1 and len(args) > 1:
            return "-" + "*".join(paren(a) for a in args[1:])
        return "*".join(paren(a) for a in args)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)

    @staticmethod
    def make(base: Expr, exp: Expr) -> Expr:
        if exp == Integer(0):
            return Integer(1)
        if exp == Integer(1):
            return base
        if base == Integer(1):
            return Integer(1)
        if isinstance(base, Integer) and isinstance(exp, Integer) and exp.value >= 0:
            return Integer(base.value**exp.value)
        return Pow(base, exp)

    def _key(self) -> Tuple:
        return (self.base, self.exp)

    def _free_symbols(self) -> frozenset:
        return self.base.free_symbols | self.exp.free_symbols

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Pow.make(self.base.subs(mapping), self.exp.subs(mapping))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return self.base.evaluate(bindings) ** self.exp.evaluate(bindings)

    def _to_str(self) -> str:
        def paren(e: Expr) -> str:
            s = str(e)
            if isinstance(e, Symbol) or (isinstance(e, Integer) and e.value >= 0):
                return s
            if isinstance(e, (Min, Max, Abs, CeilDiv)):
                return s  # already function-call syntax
            return f"({s})"

        return f"{paren(self.base)}**{paren(self.exp)}"

    def __setattr__(self, *a):
        raise AttributeError("Pow is immutable")


class _BinOp(Expr):
    """Shared machinery for non-commutative binary integer operators."""

    __slots__ = ("a", "b")
    _symbol = "?"
    _pyfunc: Callable[[Numeric, Numeric], Numeric] = staticmethod(lambda a, b: a)

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _key(self) -> Tuple:
        return (self.a, self.b)

    def _free_symbols(self) -> frozenset:
        return self.a.free_symbols | self.b.free_symbols

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return type(self).make(self.a.subs(mapping), self.b.subs(mapping))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return type(self)._pyfunc(self.a.evaluate(bindings), self.b.evaluate(bindings))

    def _to_str(self) -> str:
        return f"{type(self)._render(self.a, self.b)}"

    @classmethod
    def _render(cls, a: Expr, b: Expr) -> str:
        def paren(x: Expr) -> str:
            s = str(x)
            return f"({s})" if not isinstance(x, (Integer, Symbol, Pow)) else s

        return f"{paren(a)} {cls._symbol} {paren(b)}"

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FloorDiv(_BinOp):
    """``a // b`` with Python floor semantics."""

    __slots__ = ()
    _symbol = "//"
    _pyfunc = staticmethod(lambda a, b: a // b)

    @staticmethod
    def make(a: Expr, b: Expr) -> Expr:
        if b == Integer(1):
            return a
        if isinstance(a, Integer) and isinstance(b, Integer) and b.value != 0:
            return Integer(a.value // b.value)
        if a == Integer(0):
            return Integer(0)
        # (c*x) // c == x for positive integer constant c dividing all coefficients
        if isinstance(b, Integer) and b.value > 0:
            q = _try_exact_div(a, b.value)
            if q is not None:
                return q
        if a == b:
            return Integer(1)
        return FloorDiv(a, b)


class CeilDiv(_BinOp):
    """``ceil(a / b)``; used pervasively for range sizes and tiling."""

    __slots__ = ()
    _symbol = "/^"
    _pyfunc = staticmethod(lambda a, b: -((-a) // b))

    @staticmethod
    def make(a: Expr, b: Expr) -> Expr:
        if b == Integer(1):
            return a
        if isinstance(a, Integer) and isinstance(b, Integer) and b.value != 0:
            return Integer(-((-a.value) // b.value))
        if a == Integer(0):
            return Integer(0)
        if isinstance(b, Integer) and b.value > 0:
            q = _try_exact_div(a, b.value)
            if q is not None:
                return q
        if a == b:
            return Integer(1)
        return CeilDiv(a, b)

    def _to_str(self) -> str:
        return f"ceil({self.a}, {self.b})"


class Mod(_BinOp):
    __slots__ = ()
    _symbol = "%"
    _pyfunc = staticmethod(lambda a, b: a % b)

    @staticmethod
    def make(a: Expr, b: Expr) -> Expr:
        if b == Integer(1):
            return Integer(0)
        if isinstance(a, Integer) and isinstance(b, Integer) and b.value != 0:
            return Integer(a.value % b.value)
        if a == b:
            return Integer(0)
        if isinstance(b, Integer) and b.value > 0 and _try_exact_div(a, b.value) is not None:
            return Integer(0)
        return Mod(a, b)


class Min(_NAry):
    __slots__ = ()

    @staticmethod
    def make(*args: Expr) -> Expr:
        flat: list = []
        consts: list = []
        for a in args:
            if isinstance(a, Min):
                flat.extend(a.args)
            elif isinstance(a, (Integer, Real)):
                consts.append(a)
            else:
                flat.append(a)
        if consts:
            flat.append(_const_expr(Fraction(min(c.value for c in consts)).limit_denominator(10**12),
                                    any(isinstance(c, Real) for c in consts)))
        uniq = sorted(set(flat), key=_sort_key)
        if len(uniq) == 1:
            return uniq[0]
        return Min(tuple(uniq))

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Min.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return min(a.evaluate(bindings) for a in self.args)

    def _to_str(self) -> str:
        return "min(" + ", ".join(str(a) for a in self.args) + ")"


class Max(_NAry):
    __slots__ = ()

    @staticmethod
    def make(*args: Expr) -> Expr:
        flat: list = []
        consts: list = []
        for a in args:
            if isinstance(a, Max):
                flat.extend(a.args)
            elif isinstance(a, (Integer, Real)):
                consts.append(a)
            else:
                flat.append(a)
        if consts:
            flat.append(_const_expr(Fraction(max(c.value for c in consts)).limit_denominator(10**12),
                                    any(isinstance(c, Real) for c in consts)))
        uniq = sorted(set(flat), key=_sort_key)
        if len(uniq) == 1:
            return uniq[0]
        return Max(tuple(uniq))

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Max.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return max(a.evaluate(bindings) for a in self.args)

    def _to_str(self) -> str:
        return "max(" + ", ".join(str(a) for a in self.args) + ")"


class Abs(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    @staticmethod
    def make(arg: Expr) -> Expr:
        if isinstance(arg, Integer):
            return Integer(abs(arg.value))
        if isinstance(arg, Real):
            return Real(abs(arg.value))
        return Abs(arg)

    def _key(self) -> Tuple:
        return (self.arg,)

    def _free_symbols(self) -> frozenset:
        return self.arg.free_symbols

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Abs.make(self.arg.subs(mapping))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> Numeric:
        return abs(self.arg.evaluate(bindings))

    def _to_str(self) -> str:
        return f"abs({self.arg})"

    def __setattr__(self, *a):
        raise AttributeError("Abs is immutable")


# ---------------------------------------------------------------------------
# Boolean expressions (interstate edge conditions, consume quiescence)
# ---------------------------------------------------------------------------


class BoolExpr(Expr):
    """Base of boolean-valued expressions."""

    __slots__ = ()

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> bool:  # type: ignore[override]
        raise NotImplementedError


class BoolConst(BoolExpr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def _key(self) -> Tuple:
        return (self.value,)

    def _free_symbols(self) -> frozenset:
        return frozenset()

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return self

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> bool:
        return self.value

    def _to_str(self) -> str:
        return "True" if self.value else "False"

    def __setattr__(self, *a):
        raise AttributeError("BoolConst is immutable")


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class _Relational(BoolExpr):
    __slots__ = ("a", "b")
    _symbol = "?"
    _pyfunc: Callable[[Numeric, Numeric], bool] = staticmethod(lambda a, b: False)

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def make(cls, a: Expr, b: Expr) -> BoolExpr:
        diff = Add.make(a, Mul.make(Integer(-1), b))
        if isinstance(diff, (Integer, Real)):
            return BoolConst(cls._pyfunc(diff.value, 0))
        return cls(a, b)

    def _key(self) -> Tuple:
        return (self.a, self.b)

    def _free_symbols(self) -> frozenset:
        return self.a.free_symbols | self.b.free_symbols

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return type(self).make(self.a.subs(mapping), self.b.subs(mapping))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> bool:
        return type(self)._pyfunc(self.a.evaluate(bindings), self.b.evaluate(bindings))

    def _to_str(self) -> str:
        return f"{self.a} {type(self)._symbol} {self.b}"

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Eq(_Relational):
    __slots__ = ()
    _symbol = "=="
    _pyfunc = staticmethod(lambda a, b: a == b)


class Ne(_Relational):
    __slots__ = ()
    _symbol = "!="
    _pyfunc = staticmethod(lambda a, b: a != b)


class Lt(_Relational):
    __slots__ = ()
    _symbol = "<"
    _pyfunc = staticmethod(lambda a, b: a < b)


class Le(_Relational):
    __slots__ = ()
    _symbol = "<="
    _pyfunc = staticmethod(lambda a, b: a <= b)


class Gt(_Relational):
    __slots__ = ()
    _symbol = ">"
    _pyfunc = staticmethod(lambda a, b: a > b)


class Ge(_Relational):
    __slots__ = ()
    _symbol = ">="
    _pyfunc = staticmethod(lambda a, b: a >= b)


class And(BoolExpr):
    __slots__ = ("args",)

    def __init__(self, args: Tuple[BoolExpr, ...]):
        object.__setattr__(self, "args", tuple(args))

    @staticmethod
    def make(*args: BoolExpr) -> BoolExpr:
        flat: list = []
        for a in args:
            if isinstance(a, And):
                flat.extend(a.args)
            elif isinstance(a, BoolConst):
                if not a.value:
                    return FALSE
            else:
                flat.append(a)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        return And(tuple(flat))

    def _key(self) -> Tuple:
        return self.args

    def _free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return And.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> bool:
        return all(a.evaluate(bindings) for a in self.args)

    def _to_str(self) -> str:
        return " and ".join(f"({a})" for a in self.args)

    def __setattr__(self, *a):
        raise AttributeError("And is immutable")


class Or(BoolExpr):
    __slots__ = ("args",)

    def __init__(self, args: Tuple[BoolExpr, ...]):
        object.__setattr__(self, "args", tuple(args))

    @staticmethod
    def make(*args: BoolExpr) -> BoolExpr:
        flat: list = []
        for a in args:
            if isinstance(a, Or):
                flat.extend(a.args)
            elif isinstance(a, BoolConst):
                if a.value:
                    return TRUE
            else:
                flat.append(a)
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        return Or(tuple(flat))

    def _key(self) -> Tuple:
        return self.args

    def _free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Or.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> bool:
        return any(a.evaluate(bindings) for a in self.args)

    def _to_str(self) -> str:
        return " or ".join(f"({a})" for a in self.args)

    def __setattr__(self, *a):
        raise AttributeError("Or is immutable")


class Not(BoolExpr):
    __slots__ = ("arg",)

    def __init__(self, arg: BoolExpr):
        object.__setattr__(self, "arg", arg)

    @staticmethod
    def make(arg: BoolExpr) -> BoolExpr:
        if isinstance(arg, BoolConst):
            return BoolConst(not arg.value)
        if isinstance(arg, Not):
            return arg.arg
        # Negate relationals directly for readability.
        neg = {Eq: Ne, Ne: Eq, Lt: Ge, Le: Gt, Gt: Le, Ge: Lt}
        for cls, ncls in neg.items():
            if type(arg) is cls:
                return ncls.make(arg.a, arg.b)
        return Not(arg)

    def _key(self) -> Tuple:
        return (self.arg,)

    def _free_symbols(self) -> frozenset:
        return self.arg.free_symbols

    def _subs(self, mapping: Mapping[Any, Any]) -> Expr:
        return Not.make(self.arg.subs(mapping))

    def evaluate(self, bindings: Mapping[str, Numeric] | None = None) -> bool:
        return not self.arg.evaluate(bindings)

    def _to_str(self) -> str:
        return f"not ({self.arg})"

    def __setattr__(self, *a):
        raise AttributeError("Not is immutable")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _const_expr(c: Fraction, as_float: bool) -> Expr:
    if not as_float and c.denominator == 1:
        return Integer(c.numerator)
    return Real(float(c))


def _split_coeff(e: Expr) -> Tuple[Fraction, Expr]:
    """Split ``e`` into (rational coefficient, remaining factor)."""
    if isinstance(e, Mul):
        head = e.args[0]
        if isinstance(head, Integer):
            rest = Mul.make(*e.args[1:]) if len(e.args) > 2 else e.args[1]
            return Fraction(head.value), rest
        if isinstance(head, Real):
            rest = Mul.make(*e.args[1:]) if len(e.args) > 2 else e.args[1]
            return Fraction(head.value).limit_denominator(10**12), rest
    return Fraction(1), e


def _coeff_times(c: Fraction, rest: Expr) -> Expr:
    if c == 1:
        return rest
    return Mul.make(_const_expr(c, False), rest)


def _try_exact_div(e: Expr, d: int) -> Expr | None:
    """Return e/d if d exactly divides every additive term's coefficient."""
    if isinstance(e, Integer):
        return Integer(e.value // d) if e.value % d == 0 else None
    if isinstance(e, Add):
        parts = []
        for t in e.args:
            q = _try_exact_div(t, d)
            if q is None:
                return None
            parts.append(q)
        return Add.make(*parts)
    coeff, rest = _split_coeff(e)
    if coeff.denominator == 1 and coeff.numerator % d == 0:
        return _coeff_times(coeff / d, rest)
    return None


def _divide(a: Expr, b: Expr) -> Expr:
    """``a / b``: exact symbolic division when possible, FloorDiv otherwise."""
    if b == Integer(0):
        raise ZeroDivisionError("symbolic division by zero")
    if b == Integer(1):
        return a
    if isinstance(a, (Integer, Real)) and isinstance(b, (Integer, Real)):
        if isinstance(a, Integer) and isinstance(b, Integer) and a.value % b.value == 0:
            return Integer(a.value // b.value)
        return Real(a.evaluate({}) / b.evaluate({}))
    if isinstance(b, Integer):
        q = _try_exact_div(a, b.value)
        if q is not None:
            return q
    if a == b:
        return Integer(1)
    # Try multiplicative cancellation (N**2 / N -> N); only accept results
    # where every inverse factor cancelled away, keeping integer semantics.
    q = Mul.make(a, Pow.make(b, Integer(-1)))
    if not _has_negative_pow(q):
        return q
    return FloorDiv.make(a, b)


def _has_negative_pow(e: Expr) -> bool:
    if isinstance(e, Pow):
        exp = e.exp
        if isinstance(exp, Integer) and exp.value < 0:
            return True
        return _has_negative_pow(e.base) or _has_negative_pow(exp)
    if isinstance(e, _NAry):
        return any(_has_negative_pow(a) for a in e.args)
    if isinstance(e, _BinOp):
        return _has_negative_pow(e.a) or _has_negative_pow(e.b)
    return False


def sympify(x: Any) -> Expr:
    """Coerce ints, floats, strings, bools, and Exprs into expressions."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        return TRUE if x else FALSE
    if isinstance(x, (int,)):
        return Integer(x)
    if isinstance(x, float):
        if x == int(x) and abs(x) < 2**53:
            return Integer(int(x))
        return Real(x)
    if isinstance(x, str):
        from repro.symbolic.parser import parse_expr

        return parse_expr(x)
    raise TypeError(f"cannot convert {type(x).__name__} to symbolic expression")


def evaluate_to_int(x: Any, bindings: Mapping[str, Numeric] | None = None) -> int:
    """Evaluate any expression-like to an int under ``bindings``."""
    e = sympify(x)
    v = e.evaluate(bindings or {})
    return int(v)


def _mapping_key(mapping: Mapping[Any, Any]) -> Tuple:
    """Normalize a substitution mapping into a hashable, order-independent
    key: symbol keys become names, values are sympified, entries sorted."""
    items = []
    for k, v in mapping.items():
        kname = k.name if isinstance(k, Symbol) else k
        if not isinstance(v, Expr):
            v = sympify(v)
        items.append((kname, v))
    items.sort(key=lambda kv: kv[0])
    return tuple(items)


def simplify(x: Any) -> Expr:
    """Canonicalize an expression bottom-up through the ``make``
    constructors (constant folding, flattening, like-term collection).

    Construction already canonicalizes, so this is close to a no-op for
    freshly built trees; it matters for deserialized or hand-assembled
    nodes, and its results are memoized on structural identity so repeated
    pipeline passes over the same expressions are O(1).
    """
    e = sympify(x)
    return memo.memoized("simplify", e, lambda: _simplify(e))


def _simplify(e: Expr) -> Expr:
    if isinstance(e, (Integer, Real, Symbol, BoolConst)):
        return e
    if isinstance(e, (Add, Mul, Min, Max)):
        return type(e).make(*(simplify(a) for a in e.args))
    if isinstance(e, Pow):
        return Pow.make(simplify(e.base), simplify(e.exp))
    if isinstance(e, _BinOp):
        return type(e).make(simplify(e.a), simplify(e.b))
    if isinstance(e, _Relational):
        return type(e).make(simplify(e.a), simplify(e.b))
    if isinstance(e, (And, Or)):
        return type(e).make(*(simplify(a) for a in e.args))
    if isinstance(e, Not):
        return Not.make(simplify(e.arg))
    if isinstance(e, Abs):
        return Abs.make(simplify(e.arg))
    return e

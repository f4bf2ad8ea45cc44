"""Property tests for the symbolic engine's memoization layer: cached
results must be indistinguishable from uncached recomputation, and the
hit/miss counters must be monotonic.  The same holds for the analysis
facts cached on immutable keys: the V306 bounds verdict, a tasklet's
free names and flops, and the per-instance ``Range``/``Subset`` caches."""

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbolic import (
    Integer,
    Max,
    Pow,
    Range,
    Real,
    Subset,
    Symbol,
    cache_snapshot,
    cache_stats,
    clear_caches,
    parse_expr,
    simplify,
)
from repro.runtime.perfmodel import tasklet_flops
from repro.sdfg.nodes import Tasklet
from repro.sdfg.validation import _dims_out_of_bounds
from repro.symbolic import CeilDiv, Mul, memo
from repro.symbolic.sets import decide_nonnegative

SYMS = ("N", "M", "K", "TSTEPS")


def exprs(max_leaves: int = 10) -> st.SearchStrategy:
    base = st.one_of(
        st.integers(min_value=-20, max_value=20).map(Integer),
        st.sampled_from(SYMS).map(Symbol),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, st.integers(min_value=1, max_value=7)).map(
                lambda ab: ab[0] // ab[1]
            ),
            children.map(lambda a: -a),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def subsets() -> st.SearchStrategy:
    rng = st.one_of(
        exprs(max_leaves=4).map(Range.point),
        st.tuples(exprs(max_leaves=4), exprs(max_leaves=4)).map(
            lambda ab: Range(ab[0], ab[1])
        ),
    )
    return st.lists(rng, min_size=1, max_size=3).map(Subset)


#: Polybench-style size bindings: every size symbol in [1, 128].
bindings = st.fixed_dictionaries({s: st.integers(1, 128) for s in SYMS})


class TestMemoizedEqualsUncached:
    @settings(max_examples=200, deadline=None)
    @given(e=exprs(), env=bindings)
    def test_simplify(self, e, env):
        cached = simplify(e)  # may hit a previous iteration's entry
        clear_caches()
        fresh = simplify(e)
        assert cached == fresh
        assert cached.evaluate(env) == fresh.evaluate(env) == e.evaluate(env)

    @settings(max_examples=200, deadline=None)
    @given(e=exprs(), env=bindings)
    def test_subs(self, e, env):
        mapping = {Symbol(k): Integer(v) for k, v in env.items()}
        cached = e.subs(mapping)
        clear_caches()
        fresh = e.subs(mapping)
        assert cached == fresh
        assert cached.evaluate({}) == e.evaluate(env)

    @settings(max_examples=100, deadline=None)
    @given(env=bindings)
    def test_parse(self, env):
        text = "N * M + K // 2 - TSTEPS"
        cached = parse_expr(text)
        clear_caches()
        fresh = parse_expr(text)
        assert cached == fresh
        assert cached.evaluate(env) == fresh.evaluate(env)

    @pytest.mark.parametrize(
        "op",
        [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b],
        ids=["add", "sub", "mul"],
    )
    @settings(max_examples=150, deadline=None)
    @given(a=exprs(max_leaves=6), b=exprs(max_leaves=6), env=bindings)
    def test_arithmetic(self, op, a, b, env):
        op(a, b)
        cached = op(a, b)  # served by the add/mul tables
        clear_caches()
        fresh = op(a, b)
        assert cached == fresh and str(cached) == str(fresh)
        assert cached.evaluate(env) == op(a.evaluate(env), b.evaluate(env))

    @settings(max_examples=150, deadline=None)
    @given(e=exprs())
    def test_decide_nonnegative(self, e):
        decide_nonnegative(e)
        cached = decide_nonnegative(e)
        clear_caches()
        assert cached is decide_nonnegative(e)

    @settings(max_examples=100, deadline=None)
    @given(s=subsets())
    def test_subset_from_string(self, s):
        text = str(s)
        Subset.from_string(text)
        cached = Subset.from_string(text)
        clear_caches()
        fresh = Subset.from_string(text)
        assert cached == fresh and str(cached) == str(fresh)

    def test_signed_zero_reals_key_identically(self):
        # Real(0.0) == Real(-0.0) structurally, so they share memo keys;
        # both must produce the same (identically rendered) results.
        N = Symbol("N")
        pos, neg = Real(0.0), Real(-0.0)
        assert pos == neg and hash(pos) == hash(neg) and str(neg) == "0.0"
        for op in (lambda z: z + N, lambda z: z * N, lambda z: N - z,
                   lambda z: Max.make(z, N), lambda z: Pow.make(z, N)):
            clear_caches()
            first = op(pos)
            warm = op(neg)  # hits the entry keyed with Real(0.0)
            clear_caches()
            cold = op(neg)
            assert first == warm == cold
            assert str(first) == str(warm) == str(cold)


def shapes(dims: int) -> st.SearchStrategy:
    dim = st.one_of(
        st.integers(min_value=1, max_value=40).map(Integer),
        st.sampled_from(SYMS).map(Symbol),
        st.tuples(st.sampled_from(SYMS), st.integers(-3, 3)).map(
            lambda t: Symbol(t[0]) + t[1]
        ),
    )
    return st.lists(dim, min_size=dims, max_size=dims).map(tuple)


@st.composite
def subset_and_shape(draw):
    s = draw(subsets())
    return s, draw(shapes(s.dims))


def _dims_out_of_bounds_reference(subset, shape):
    """V306's per-dimension test, as the validator wrote it inline."""
    count = 0
    for r, dim in zip(subset.ranges, shape):
        over = decide_nonnegative(r.max_element() - dim)
        under = decide_nonnegative(-r.min_element() - 1)
        if over is True or under is True:
            count += 1
    return count


_NAMES = ("a", "b", "out", "tmp", "N", "math", "min", "abs", "x")


def tasklet_codes() -> st.SearchStrategy:
    leaf = st.one_of(st.sampled_from(_NAMES), st.integers(0, 9).map(str))

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/%"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(children, children).map(lambda t: f"({t[0]} ** {t[1]})"),
            children.map(lambda e: f"-{e}"),
            st.tuples(children, children).map(lambda t: f"min({t[0]}, {t[1]})"),
            st.tuples(children, children).map(lambda t: f"({t[0]} < {t[1]} <= 3)"),
            children.map(lambda e: f"math.exp({e})"),
        )

    expr = st.recursive(leaf, extend, max_leaves=6)
    stmt = st.one_of(
        st.tuples(st.sampled_from(("out", "tmp", "b")), expr).map(
            lambda t: f"{t[0]} = {t[1]}"
        ),
        st.tuples(expr, expr).map(lambda t: f"out[int({t[0]})] += {t[1]}"),
    )
    return st.one_of(
        st.lists(stmt, min_size=1, max_size=4).map("\n".join),
        st.just("out = ("),  # does not parse
    )


def _free_names_reference(tasklet):
    """``Tasklet.free_symbols`` as it walked the AST on every call."""
    try:
        tree = ast.parse(tasklet.code)
    except SyntaxError:
        return set()
    loaded, stored = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (stored if isinstance(node.ctx, ast.Store) else loaded).add(node.id)
    builtins = {"min", "max", "abs", "int", "float", "bool", "range", "len",
                "math", "np", "numpy", "True", "False", "None"}
    return (loaded - stored - tasklet.in_connectors - tasklet.out_connectors
            - builtins)


def _flops_reference(tasklet):
    """``tasklet_flops`` as it walked the AST on every call."""
    try:
        tree = ast.parse(tasklet.code)
    except SyntaxError:
        return 1
    flops = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            flops += 10 if isinstance(node.op, ast.Pow) else 1
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            flops += 1
        elif isinstance(node, ast.Call):
            flops += 10
        elif isinstance(node, ast.Compare):
            flops += len(node.ops)
    return max(flops, 1)


class TestCachedAnalysisFacts:
    @settings(max_examples=200, deadline=None)
    @given(case=subset_and_shape())
    def test_bounds_verdict(self, case):
        subset, shape = case
        want = _dims_out_of_bounds_reference(subset, shape)
        assert _dims_out_of_bounds(subset, shape) == want
        assert _dims_out_of_bounds(subset, shape) == want  # warm
        clear_caches()
        assert _dims_out_of_bounds(subset, shape) == want  # cold

    def test_bounds_verdict_is_a_counted_table(self):
        subset, shape = Subset.from_string("0:N + 1"), (Symbol("N"),)
        before = memo.stats().get("bounds", {"hits": 0, "misses": 0})
        assert _dims_out_of_bounds(subset, shape) == 1
        assert _dims_out_of_bounds(subset, shape) == 1
        after = memo.stats()["bounds"]
        assert after["hits"] >= before["hits"] + 1
        assert after["entries"] >= 1
        clear_caches()
        assert memo.stats()["bounds"]["entries"] == 0

    @settings(max_examples=200, deadline=None)
    @given(code=tasklet_codes(), ins=st.sets(st.sampled_from(("a", "x"))))
    def test_tasklet_names_and_flops(self, code, ins):
        t = Tasklet("t", ins, ["out"], code)
        names, flops = _free_names_reference(t), _flops_reference(t)
        for _ in range(2):  # cold, then warm
            assert t.free_symbols() == names
            assert tasklet_flops(t) == flops
        # The cached names never carry another tasklet's connectors.
        other = Tasklet("u", (), ["b"], code)
        assert other.free_symbols() == _free_names_reference(other)
        # Callers may mutate what they get back.
        t.free_symbols().add("scribble")
        assert t.free_symbols() == names
        clear_caches()
        assert t.free_symbols() == names and tasklet_flops(t) == flops

    @settings(max_examples=200, deadline=None)
    @given(s=subsets())
    def test_range_and_subset_properties(self, s):
        warm = [(r.size(), r.num_elements(), r.free_symbols) for r in s.ranges]
        warm_subset = (s.size(), s.num_elements(), s.free_symbols)
        assert warm == [(r.size(), r.num_elements(), r.free_symbols) for r in s.ranges]
        clear_caches()
        for r, (size, num, free) in zip(s.ranges, warm):
            fresh = Range(r.start, r.end, r.step, r.tile)
            assert size == fresh.size() == CeilDiv.make(r.end - r.start, r.step)
            assert num == fresh.num_elements() == Mul.make(fresh.size(), r.tile)
            assert free == fresh.free_symbols == (
                r.start.free_symbols | r.end.free_symbols
                | r.step.free_symbols | r.tile.free_symbols
            )
        fresh = Subset([Range(r.start, r.end, r.step, r.tile) for r in s.ranges])
        expected = Integer(1)
        for r in fresh.ranges:
            expected = Mul.make(expected, r.num_elements())
        assert warm_subset == (fresh.size(), fresh.num_elements(), fresh.free_symbols)
        assert warm_subset[1] == expected
        # ``size`` hands out a list: mutating it leaves the cache intact.
        s.size().append(Integer(0))
        assert s.size() == warm_subset[0]


class TestImmutability:
    def test_range_and_subset_reject_attribute_writes(self):
        s = Subset.from_string("0:N, i")
        with pytest.raises(AttributeError):
            s.ranges = ()
        with pytest.raises(AttributeError):
            s[0].start = Integer(1)
        with pytest.raises(AttributeError):
            s[0].end = Integer(1)
        assert str(s) == "0:N, i"

    def test_memoized_parse_shares_one_subset(self):
        assert Subset.from_string("0:N, i") is Subset.from_string("0:N, i")


class TestCounters:
    def test_hit_on_second_identical_call(self):
        clear_caches(reset_counters=True)
        e = parse_expr("N * 4 + M")
        before = cache_snapshot().get("simplify", (0, 0))
        simplify(e)
        simplify(e)
        hits, misses = cache_snapshot().get("simplify", (0, 0))
        assert misses >= before[1] + 1
        assert hits >= before[0] + 1

    @settings(max_examples=50, deadline=None)
    @given(e=exprs(max_leaves=6))
    def test_monotonic(self, e):
        before = cache_snapshot()
        simplify(e)
        e.subs({Symbol("N"): Integer(3)})
        after = cache_snapshot()
        for name, (h0, m0) in before.items():
            h1, m1 = after.get(name, (h0, m0))
            assert h1 >= h0 and m1 >= m0

    def test_stats_shape(self):
        clear_caches(reset_counters=True)
        simplify(parse_expr("N + 1"))
        stats = cache_stats()
        assert "simplify" in stats
        rec = stats["simplify"]
        assert set(rec) == {"hits", "misses", "entries"}
        assert rec["hits"] + rec["misses"] >= 1

    def test_clear_preserves_counters_by_default(self):
        clear_caches(reset_counters=True)
        simplify(parse_expr("N + 2"))
        snap = cache_snapshot()
        clear_caches()
        assert cache_snapshot() == snap
        assert cache_stats()["simplify"]["entries"] == 0

    def test_unhashable_key_bypasses(self):
        # Bypass path: compute runs, nothing stored, miss counted.
        before = memo.stats().get("adhoc", {"hits": 0, "misses": 0, "entries": 0})
        out = memo.memoized("adhoc", ["not", "hashable"], lambda: 42)
        assert out == 42
        rec = memo.stats()["adhoc"]
        assert rec["misses"] == before["misses"] + 1
        assert rec["entries"] == before["entries"]

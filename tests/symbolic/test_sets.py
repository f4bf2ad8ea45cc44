"""Unit tests for symbolic ranges and subsets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbolic import Integer, Range, Subset, Symbol, symbols
from repro.symbolic.expr import Max, Min, Real
from repro.symbolic.sets import decide_nonnegative, linear_coefficient, sum_over

N, M, T = symbols("N M T")
i, j, t = symbols("i j t")


class TestRange:
    def test_point(self):
        r = Range.point(i + 1)
        assert r.is_point()
        assert r.num_elements() == Integer(1)
        assert str(r) == "1 + i"

    def test_size(self):
        assert Range(0, N).size() == N
        assert Range(1, N - 1).size() == N - 2
        assert Range(0, N, 2).size().evaluate({"N": 7}) == 4

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            Range(0, N, 0)

    def test_evaluate(self):
        assert list(Range(0, "N", 2).evaluate({"N": 7})) == [0, 2, 4, 6]

    def test_max_element_strided(self):
        r = Range(0, 10, 3)  # 0,3,6,9
        assert r.max_element().as_int() == 9

    def test_max_element_tiled(self):
        r = Range(0, 4, 1, 4)  # 4 tiles of width 4 -> last element 3*1+4-1
        assert r.max_element().as_int() == 6
        assert r.num_elements().as_int() == 16

    def test_covers(self):
        assert Range(0, N).covers(Range(1, N - 1))
        assert not Range(1, N - 1).covers(Range(0, N))
        assert Range(0, N).covers(Range(0, N))

    def test_union_bb(self):
        u = Range(0, 5).union_bb(Range(3, 9))
        assert u.evaluate({}) == range(0, 9)

    def test_offset(self):
        r = Range(i, i + 3).offset_by(-i)
        assert str(r) == "0:3"

    def test_str_roundtrip_strided(self):
        assert str(Range(0, N, 2)) == "0:N:2"


class TestSubsetParsing:
    def test_from_string_mixed(self):
        s = Subset.from_string("0:N, k, 2*i:2*i+2")
        assert s.dims == 3
        assert s[1].is_point()
        assert s.num_elements() == 2 * N

    def test_from_array(self):
        s = Subset.from_array([N, M])
        assert str(s) == "0:N, 0:M"

    def test_from_indices(self):
        s = Subset.from_indices([i, j])
        assert s.is_point()
        assert s.num_elements() == Integer(1)

    def test_malformed(self):
        with pytest.raises(ValueError):
            Subset.from_string("0:1:2:3:4")

    def test_nested_functions_in_dims(self):
        s = Subset.from_string("max(0, i-1):min(N, i+2), j")
        assert s.dims == 2


class TestSubsetOps:
    def test_volume(self):
        assert Subset.from_string("0:N, 0:M").num_elements() == N * M

    def test_covers(self):
        full = Subset.from_array([N, M])
        assert full.covers(Subset.from_string("1:N-1, 0:M"))
        assert not Subset.from_string("1:N-1, 0:M").covers(full)

    def test_covers_dim_mismatch(self):
        assert not Subset.from_array([N]).covers(Subset.from_array([N, M]))

    def test_intersects_disjoint(self):
        a = Subset.from_string("0:4")
        b = Subset.from_string("4:8")
        assert a.intersects(b) is False

    def test_intersects_overlap(self):
        a = Subset.from_string("0:5")
        b = Subset.from_string("4:8")
        assert a.intersects(b) is True

    def test_offset_relative(self):
        outer = Subset.from_string("i:i+3, 0:M")
        inner = Subset.from_string("i+1, j")
        rel = inner.offset(outer, negative=True)
        assert str(rel[0]) == "1"

    def test_compose(self):
        outer = Subset.from_string("10:20")
        inner = Subset.from_string("2:5")
        assert str(outer.compose(inner)) == "12:15"

    def test_compose_strided(self):
        outer = Subset.from_string("0:20:2")
        inner = Subset.from_string("1:4")
        c = outer.compose(inner)
        assert c.evaluate({}) == (slice(2, 8, 2),)

    def test_union_bb(self):
        a = Subset.from_string("0:5, 2:3")
        b = Subset.from_string("3:9, 0:1")
        u = a.union_bb(b)
        assert u.evaluate({}) == (slice(0, 9, 1), slice(0, 3, 1))

    def test_evaluate_indices(self):
        s = Subset.from_string("t % 2, i-1").subs({"t": 3, "i": 5})
        assert s.evaluate_indices({}) == (1, 4)
        with pytest.raises(ValueError):
            Subset.from_string("0:4").evaluate_indices({})


class TestImage:
    """Memlet propagation's core operation (paper section 4.3 step 1)."""

    def test_identity_param(self):
        img = Subset.from_string("i").image({"i": Range(0, N)})
        assert str(img) == "0:N"

    def test_laplace_stencil(self):
        # A[t%2, i-1:i+2] over i in [1, N-1) covers A[t%2, 0:N]
        img = Subset.from_string("t % 2, i-1:i+2").image({"i": Range(1, N - 1)})
        assert str(img) == "t % 2, 0:N"

    def test_negative_coefficient(self):
        img = Subset.from_string("N-1-i").image({"i": Range(0, N)})
        assert Subset.from_array([N]).covers(img)
        assert img[0].min_element().subs({"N": 10}).as_int() == 0

    def test_strided_param(self):
        img = Subset.from_string("i:i+4").image({"i": Range(0, N, 4)})
        lo = img[0].min_element()
        assert lo == Integer(0)
        # hi covers through the last tile
        assert img[0].max_element().subs({"N": 16}).as_int() == 15

    def test_multi_param(self):
        img = Subset.from_string("i, j").image({"i": Range(0, N), "j": Range(0, M)})
        assert str(img) == "0:N, 0:M"

    def test_unrelated_param_untouched(self):
        img = Subset.from_string("k").image({"i": Range(0, N)})
        assert str(img) == "k"

    def test_nonlinear_falls_back_to_envelope(self):
        img = Subset.from_string("i*i").image({"i": Range(0, 4)})
        assert img[0].min_element().as_int() == 0
        assert img[0].max_element().as_int() == 9


class TestDecisionProcedure:
    def test_constants(self):
        assert decide_nonnegative(Integer(0)) is True
        assert decide_nonnegative(Integer(-1)) is False

    def test_positive_symbol_model(self):
        assert decide_nonnegative(N) is True
        assert decide_nonnegative(N - 1) is True
        assert decide_nonnegative(-N) is False

    def test_undecidable(self):
        assert decide_nonnegative(N - M) is None

    def test_linear_coefficient(self):
        assert linear_coefficient(3 * i + N, i) == Integer(3)
        assert linear_coefficient(N - i, i) == Integer(-1)
        assert linear_coefficient(i * i, i) is None
        assert linear_coefficient(N * i, i) == N

    def test_cubic_with_equal_differences_is_not_linear(self):
        # e(0) = e(1) = e(2) = 0, so the two-point difference test alone
        # would call it linear with coefficient 0.
        p = Symbol("p")
        cubic = -p * (p - 1) * (p - 2)
        assert linear_coefficient(cubic, p) is None
        img = Subset([Range.point(cubic)]).image({"p": Range(0, 10)})
        lo, hi = img[0].min_element(), img[0].max_element()
        # True footprint over p in 0..9 is -504..0; the envelope covers it.
        assert lo.evaluate({}) <= -504 and hi.evaluate({}) >= 0


def _coefficient_by_substitution(e, sym):
    """The substitution rule ``linear_coefficient`` must agree with."""
    c = e.subs({sym: 1}) - e.subs({sym: 0})
    if c != e.subs({sym: 2}) - e.subs({sym: 1}) or sym in c.free_symbols:
        return None
    if sym in (e - c * sym).free_symbols:
        return None
    return c


def _affine_exprs() -> st.SearchStrategy:
    leaf = st.one_of(
        st.sampled_from((i, i, N, M)),
        st.integers(min_value=-9, max_value=9).map(Integer),
        st.floats(min_value=-100, max_value=100, allow_nan=False).map(Real),
        st.integers(min_value=-5, max_value=5).map(lambda k: k * i),
    )

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: ab[0] + ab[1]),
            pair.map(lambda ab: ab[0] - ab[1]),
            pair.map(lambda ab: ab[0] * ab[1]),
            pair.map(lambda ab: Min.make(*ab)),
            pair.map(lambda ab: Max.make(*ab)),
            st.tuples(children, st.integers(min_value=1, max_value=5)).map(
                lambda ab: ab[0] // ab[1]
            ),
        )

    return st.recursive(leaf, extend, max_leaves=10)


@given(_affine_exprs())
@settings(max_examples=400, deadline=None)
def test_linear_coefficient_equals_the_substitution_rule(e):
    # Value and type: the read-off terms give Integer where substitution
    # would give Integer, and defer to it where it gives Real.
    got, want = linear_coefficient(e, i), _coefficient_by_substitution(e, i)
    assert type(got) is type(want) and got == want, (e, got, want)


def test_a_top_level_real_keeps_the_real_zero():
    e = N + Real(0.5)
    assert type(linear_coefficient(e, i)) is Real
    assert linear_coefficient(e, i) == _coefficient_by_substitution(e, i)


class TestSumOver:
    """``sum_over`` against the sum of the expression at every value."""

    N, M, i, t = Symbol("N"), Symbol("M"), Symbol("i"), Symbol("t")

    @staticmethod
    def _brute(expr, param, rng, env):
        return sum(
            expr.evaluate({**env, param: v}) for v in rng.evaluate(env)
        )

    def test_a_parameter_free_term_times_the_size(self):
        N, M = self.N, self.M
        assert sum_over(M * 3, "i", Range(0, N)) == M * 3 * N

    @pytest.mark.parametrize("rng", [Range(0, "N"), Range(1, "N"), Range(2, "N", 3)])
    def test_an_affine_term_is_an_arithmetic_series(self, rng):
        N, M, i = self.N, self.M, self.i
        for expr in (i, M - i - 1, 3 * i + 2, N * i + M):
            total = sum_over(expr, "i", rng)
            assert self.i not in total.free_symbols
            for n in (5, 11, 12):
                env = {"N": n, "M": 17}
                assert total.evaluate(env) == self._brute(expr, "i", rng, env)

    @pytest.mark.parametrize("start", [0, 3])
    def test_the_tile_form_sums_to_the_untiled_extent(self, start):
        N, t = self.N, self.t
        rng = Range(start, N, 32)
        tile = Min.make(N, t + 32) - t
        assert sum_over(tile, "t", rng) == N - start
        assert sum_over(self.M * tile, "t", rng) == self.M * (N - start)
        strided = sum_over(Range(t, Min.make(N, t + 32), 2).size(), "t", rng)
        for n in (31, 32, 70, 97):
            env = {"N": n, "M": 5}
            assert sum_over(tile, "t", rng).evaluate(env) == self._brute(tile, "t", rng, env)
            assert strided.evaluate(env) == len(range(start, n, 2))

    def test_no_closed_form_is_none(self):
        i, t = self.i, self.t
        assert sum_over(i * i, "i", Range(0, self.N)) is None
        tile = Min.make(self.N, t + 32) - t
        assert sum_over(tile * t, "t", Range(0, self.N, 32)) is None

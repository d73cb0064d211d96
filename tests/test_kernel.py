"""The integer-numerator kernel in truncbell.fps against the Fraction
schoolbook reference in fraction_kernel.py, exactly: Poly arithmetic,
series arithmetic, the one product with polynomial coefficients,
times_deg_exp_x, and the finite-sum kernels lincomb and dot."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_kernel import (
    RefPoly,
    deg_exp_x,
    series_add,
    series_div,
    series_exp,
    series_mul,
    series_pow,
)
from truncbell.fps import Fps, Poly, dot, lincomb, times_deg_exp_x

# mixed signs and unrelated denominators, so common denominators differ
# between operands and reductions really happen
rationals = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(max_denominator=10**9).filter(lambda q: abs(q) < 10**6),
)
nonzero_rationals = rationals.filter(bool)
# trailing zeros on purpose: the constructor must trim them
polys = st.lists(st.one_of(rationals, st.just(Fraction(0))), max_size=6).map(Poly)


def ref(value):
    """Library value -> reference value."""
    if isinstance(value, Poly):
        return RefPoly(value.coeffs)
    if isinstance(value, Fps):
        return tuple(ref(c) for c in value.coeffs)
    return value


def assert_canonical(p: Poly) -> None:
    assert p.den > 0
    assert gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert all(type(c) is int for c in p.num)
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert p.coeffs == RefPoly(p.coeffs).coeffs


def assert_same_series(lib: Fps, reference: tuple) -> None:
    assert ref(lib) == reference
    assert all(isinstance(c, Fraction) for c in lib.coeffs)


@st.composite
def series(draw, order=5, min_val=0, max_val=2):
    """A series with valuation in [min_val, max_val]."""
    v = draw(st.integers(min_val, min(max_val, order)))
    lead = draw(nonzero_rationals)
    tail = draw(st.lists(rationals, min_size=order - v, max_size=order - v))
    return Fps([Fraction(0)] * v + [lead] + tail)


# Fps has one coefficient ring; the parameter names it in the test ids
ON_FRACTIONS = pytest.mark.parametrize("ring", ["fraction"])
# the reference is slow by design, so no per-example deadline
reference_settings = settings(deadline=None)


# ---------------------------------------------------------------- Poly


@given(polys, polys)
def test_poly_arithmetic_matches_reference(a, b):
    for lib, reference in (
        (a + b, ref(a) + ref(b)),
        (a - b, ref(a) - ref(b)),
        (-a, -ref(a)),
        (a * b, ref(a) * ref(b)),
    ):
        assert_canonical(lib)
        assert ref(lib) == reference


@given(polys, rationals, st.integers(-7, 7))
def test_poly_scalars_and_evaluation_match_reference(a, q, k):
    for lib, reference in ((a * q, ref(a) * q), (k * a, ref(a) * k), (a + q, ref(a) + q)):
        assert_canonical(lib)
        assert ref(lib) == reference
    assert a(q) == ref(a)(q)
    assert a(k) == ref(a)(Fraction(k))


@given(polys)
def test_poly_construction_is_canonical(a):
    assert_canonical(a)
    assert_canonical(Poly(a.coeffs + (Fraction(0),) * 3))
    assert a.degree == len(ref(a).coeffs) - 1
    assert [a.coeff(k) for k in range(-1, a.degree + 3)] == (
        [Fraction(0)] + list(ref(a).coeffs) + [Fraction(0)] * 2)


@given(polys, polys)
def test_poly_equality_agrees_with_reference(a, b):
    for same in ((a + b) - b, a * Poly.one(), Poly(a.coeffs)):
        assert same == a
    assert (a == b) == (ref(a) == ref(b))


def assert_canonical_series(s: Fps, order: int) -> None:
    assert s.den > 0
    assert gcd(s.den, *s.num) == 1
    assert len(s.num) == s.order + 1 == order + 1  # zeros kept, trailing ones too
    assert all(type(c) is int for c in s.num)
    assert s.coeffs == tuple(Fraction(c, s.den) for c in s.num)


@reference_settings
@given(data=st.data())
def test_series_equality_agrees_with_reference(data):
    order = data.draw(st.integers(0, 6), label="order")
    a = data.draw(series(order=order), label="a")
    b = data.draw(series(order=order), label="b")
    assert_canonical_series(a, order)
    for same in ((a + b) - b, a * Fps.constant(1, a.order), Fps(a.coeffs)):
        assert_canonical_series(same, order)
        assert same == a
    assert (a == b) == (ref(a) == ref(b))
    # the zero series is one value at each order, and its order is kept
    zeros = [a - a, Fps.constant(0, order), Fps([Fraction(0, 7)] * (order + 1)), a * 0]
    for z in zeros:
        assert_canonical_series(z, order)
        assert (z.num, z.den) == ((0,) * (order + 1), 1)
    assert Fps.constant(0, order + 1) != zeros[0]
    # a quotient by a series whose first nonzero coefficient is negative
    # still has a positive denominator
    d = data.draw(series(max_val=2), label="d")
    v = d.valuation()
    if d.num[v] > 0:
        d = -d
    n = data.draw(series(min_val=v, max_val=v + 1), label="n")
    q = n / d
    assert_canonical_series(q, 5 - v)
    assert ref(q) == series_div(ref(n), ref(d))


def test_zero_polynomials_are_one_value():
    zeros = [Poly(), Poly((0, 0)), Poly.x() - Poly.x(), Poly.x() * 0, Poly((Fraction(0, 7),))]
    for z in zeros:
        assert_canonical(z)
        assert z == Poly() == 0
        assert (z.num, z.den) == ((), 1)
        assert z(Fraction(3, 4)) == 0


def test_mismatched_denominators_reduce():
    a = Poly((Fraction(1, 6), Fraction(-1, 4)))
    b = Poly((Fraction(1, 3), Fraction(1, 4)))
    s = a + b
    assert (s.num, s.den) == ((1,), 2)
    assert s.coeffs == (Fraction(1, 2),)
    assert ((a * 12).num, (a * 12).den) == ((2, -3), 1)


# ---------------------------------------------------------------- lincomb and dot

# weights as the sums pass them: ints (math.comb) and Fractions of either sign
weights = st.one_of(st.integers(-10**12, 10**12), rationals, st.just(Fraction(0)))


@given(st.lists(st.tuples(weights, polys), max_size=7))
def test_lincomb_matches_reference(terms):
    expected = RefPoly()
    for c, p in terms:
        expected = expected + ref(p) * Fraction(c)
    lib = lincomb(iter(terms))  # the sums pass generators
    assert_canonical(lib)
    assert ref(lib) == expected


@given(st.lists(st.tuples(weights, weights), max_size=9))
def test_dot_matches_reference(terms):
    lib = dot(iter(terms))
    assert type(lib) is Fraction
    assert lib.denominator > 0 and gcd(lib.numerator, lib.denominator) == 1
    assert lib == sum((Fraction(a) * Fraction(b) for a, b in terms), Fraction(0))


# a term as the sums pass it: one to three factors, then (for lincomb) the Poly
factors = st.lists(weights, min_size=1, max_size=3).map(tuple)


@given(st.lists(st.tuples(factors, polys), max_size=7))
def test_lincomb_of_factor_tuples_matches_reference(terms):
    expected = RefPoly()
    for cs, p in terms:
        expected = expected + ref(p) * prod(map(Fraction, cs))
    lib = lincomb(cs + (p,) for cs, p in terms)
    assert_canonical(lib)
    assert ref(lib) == expected


@given(st.lists(factors, max_size=9))
def test_dot_of_factor_tuples_matches_reference(terms):
    lib = dot(cs for cs in terms)
    assert type(lib) is Fraction
    assert lib.denominator > 0 and gcd(lib.numerator, lib.denominator) == 1
    assert lib == sum((prod(map(Fraction, cs)) for cs in terms), Fraction(0))


def test_lincomb_and_dot_edge_cases():
    a = Poly((Fraction(1, 6), Fraction(-1, 4)))
    b = Poly((Fraction(1, 10), Fraction(5, 3), 7))
    zeros = [
        lincomb([]),                                     # empty input
        lincomb([(0, a), (Fraction(0), b)]),             # all-zero weights
        lincomb([(Fraction(5, 7), Poly()), (3, Poly((0, 0)))]),  # zero polynomials
        lincomb([(Fraction(2, 3), a), (Fraction(-2, 3), a)]),   # cancellation
    ]
    for z in zeros:
        assert_canonical(z)
        assert (z.num, z.den) == ((), 1)
    # int and negative weights over mismatched denominators
    s = lincomb([(-6, a), (Fraction(10, 7), b)])
    assert_canonical(s)
    assert s.coeffs == (Fraction(-6, 6) + Fraction(1, 7), Fraction(6, 4) + Fraction(50, 21),
                        Fraction(10))
    assert lincomb([(3, Poly.x())]) == Poly((0, 3))
    assert dot([]) == 0 and type(dot([])) is Fraction
    assert dot([(0, Fraction(1, 3)), (Fraction(0), 5)]) == 0
    assert dot([(-2, 3), (Fraction(1, 6), Fraction(-3, 4))]) == Fraction(-49, 8)
    assert dot([(Fraction(1, 6), 3), (Fraction(1, 10), 5)]) == 1


# ---------------------------------------------------------------- Fps


@ON_FRACTIONS
@reference_settings
@given(data=st.data())
def test_series_product_and_sum_match_reference(ring, data):
    a = data.draw(series(order=data.draw(st.integers(0, 6))), label="a")
    b = data.draw(series(order=data.draw(st.integers(0, 6))), label="b")
    assert_same_series(a * b, series_mul(ref(a), ref(b)))
    assert_same_series(a + b, series_add(ref(a), ref(b)))
    assert_same_series(a * a, series_mul(ref(a), ref(a)))


@ON_FRACTIONS
@reference_settings
@given(data=st.data())
def test_series_power_matches_reference(ring, data):
    a = data.draw(series(order=5, max_val=1), label="a")
    k = data.draw(st.integers(0, 6), label="k")
    assert_same_series(a**k, series_pow(ref(a), k))


@ON_FRACTIONS
@reference_settings
@given(data=st.data())
def test_series_quotient_matches_reference(ring, data):
    b = data.draw(series(max_val=2), label="b")
    v = b.valuation()
    a = data.draw(series(min_val=v, max_val=v + 1), label="a")
    assert_same_series(a / b, series_div(ref(a), ref(b)))


@ON_FRACTIONS
@reference_settings
@given(data=st.data())
def test_series_exp_matches_reference(ring, data):
    f = data.draw(series(min_val=1, max_val=3), label="f")
    assert_same_series(f.exp(), series_exp(ref(f)))


# ---------------------------------------------------------------- times_deg_exp_x


@reference_settings
@given(data=st.data())
def test_times_deg_exp_x_matches_reference(data):
    g = data.draw(series(order=data.draw(st.integers(0, 6)), max_val=3), label="g")
    lam = data.draw(rationals, label="lam")
    lib = times_deg_exp_x(g, lam)
    lifted = tuple(RefPoly((c,)) for c in g.coeffs)
    assert tuple(ref(c) for c in lib) == series_mul(lifted, deg_exp_x(lam, g.order))
    for c in lib:
        assert_canonical(c)


@pytest.mark.parametrize("order", [12, 20])
@pytest.mark.parametrize("v", [0, 1, 5])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_times_deg_exp_x_at_depth_matches_reference(order, v, data):
    # the sums start at g's valuation v, so results below it are zero
    g = data.draw(series(order=order, min_val=v, max_val=v), label="g")
    lam = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=12), label="lam")
    lib = times_deg_exp_x(g, lam)
    lifted = tuple(RefPoly((c,)) for c in g.coeffs)
    assert tuple(ref(c) for c in lib) == series_mul(lifted, deg_exp_x(lam, order))
    for c in lib:
        assert_canonical(c)
    assert all((c.num, c.den) == ((), 1) for c in lib[:v])


@pytest.mark.parametrize("order", [12, 20])
def test_times_deg_exp_x_of_monomials_and_zero_at_depth(order):
    lam = Fraction(-2, 5)
    reference = deg_exp_x(lam, order)
    zero = times_deg_exp_x(Fps.constant(0, order), lam)
    assert len(zero) == order + 1
    assert all((c.num, c.den) == ((), 1) for c in zero)
    for v in (0, 1, 5):
        # c t^v times the exponential is the exponential shifted by v
        g = Fps([Fraction(0)] * v + [Fraction(3, 7)] + [Fraction(0)] * (order - v))
        lib = times_deg_exp_x(g, lam)
        assert [ref(c) for c in lib] == [RefPoly()] * v + [e * Fraction(3, 7)
                                                            for e in reference[: order + 1 - v]]


def test_zero_series_results_stay_canonical():
    for lam in (Fraction(0), Fraction(1), Fraction(-1, 3)):
        assert all((c.num, c.den) == ((), 1)
                   for c in times_deg_exp_x(Fps.constant(0, 4), lam))
        # zero coefficients below the valuation give zero polynomials too
        out = times_deg_exp_x(Fps.t(4) * Fps.t(4), lam)
        assert [(c.num, c.den) for c in out[:2]] == [((), 1)] * 2
        assert out[2] == Poly.one()

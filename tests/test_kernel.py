"""The integer-numerator kernel in truncbell.fps against the Fraction
schoolbook reference in fraction_kernel.py, exactly, on both rings."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_kernel import (
    RefPoly,
    series_add,
    series_compose,
    series_div,
    series_exp,
    series_mul,
    series_pow,
)
from truncbell.fps import Fps, Poly

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
coeff_polys = st.lists(st.one_of(rationals, st.just(Fraction(0))), max_size=4).map(Poly)


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
    for c in lib.coeffs:
        assert isinstance(c, (Fraction, Poly))
        if isinstance(c, Poly):
            assert_canonical(c)


@st.composite
def series(draw, ring, order=5, min_val=0, max_val=2, unit_lead=False):
    """A series on the given ring with valuation in [min_val, max_val].
    unit_lead makes the first nonzero coefficient a unit of the ring."""
    v = draw(st.integers(min_val, min(max_val, order)))
    if ring == "poly":
        lead = Poly.constant(draw(nonzero_rationals)) if unit_lead else draw(
            coeff_polys.filter(lambda p: not p.is_zero))
        tail = draw(st.lists(coeff_polys, min_size=order - v, max_size=order - v))
        zero = Poly.zero()
    else:
        lead = draw(nonzero_rationals)
        tail = draw(st.lists(rationals, min_size=order - v, max_size=order - v))
        zero = Fraction(0)
    return Fps([zero] * v + [lead] + tail)


RINGS = ["fraction", "poly"]
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
def test_poly_hash_agrees_with_equality(a, b):
    for same in ((a + b) - b, a * Poly.one(), Poly(a.coeffs), Poly.from_string(a.to_string())):
        assert same == a
        assert hash(same) == hash(a)
    assert (a == b) == (ref(a) == ref(b))
    if a == b:
        assert hash(a) == hash(b)


def test_zero_polynomials_are_one_value():
    zeros = [Poly(), Poly((0, 0)), Poly.x() - Poly.x(), Poly.x() * 0, Poly((Fraction(0, 7),))]
    for z in zeros:
        assert_canonical(z)
        assert z == Poly.zero() == 0
        assert hash(z) == hash(Poly.zero())
        assert (z.num, z.den) == ((), 1)
        assert z(Fraction(3, 4)) == 0


def test_mismatched_denominators_reduce():
    a = Poly((Fraction(1, 6), Fraction(-1, 4)))
    b = Poly((Fraction(1, 3), Fraction(1, 4)))
    s = a + b
    assert (s.num, s.den) == ((1,), 2)
    assert s.coeffs == (Fraction(1, 2),)
    assert ((a * 12).num, (a * 12).den) == ((2, -3), 1)


# ---------------------------------------------------------------- Fps on both rings


@pytest.mark.parametrize("ring", RINGS)
@reference_settings
@given(data=st.data())
def test_series_product_and_sum_match_reference(ring, data):
    a = data.draw(series(ring, order=data.draw(st.integers(0, 6))), label="a")
    b = data.draw(series(ring, order=data.draw(st.integers(0, 6))), label="b")
    assert_same_series(a * b, series_mul(ref(a), ref(b)))
    assert_same_series(a + b, series_add(ref(a), ref(b)))
    assert_same_series(a * a, series_mul(ref(a), ref(a)))


@pytest.mark.parametrize("ring", RINGS)
@reference_settings
@given(data=st.data())
def test_series_power_matches_reference(ring, data):
    a = data.draw(series(ring, order=5, max_val=1), label="a")
    k = data.draw(st.integers(0, 6), label="k")
    assert_same_series(a**k, series_pow(ref(a), k))


@pytest.mark.parametrize("ring", RINGS)
@reference_settings
@given(data=st.data())
def test_series_quotient_matches_reference(ring, data):
    b = data.draw(series(ring, max_val=2, unit_lead=True), label="b")
    v = b.valuation()
    a = data.draw(series(ring, min_val=v, max_val=v + 1), label="a")
    assert_same_series(a / b, series_div(ref(a), ref(b)))


@pytest.mark.parametrize("ring", RINGS)
@reference_settings
@given(data=st.data())
def test_series_exp_matches_reference(ring, data):
    f = data.draw(series(ring, min_val=1, max_val=3), label="f")
    assert_same_series(f.exp(), series_exp(ref(f)))


@pytest.mark.parametrize("ring", RINGS)
@reference_settings
@given(data=st.data())
def test_series_compose_matches_reference(ring, data):
    f = data.draw(series(ring, order=5, max_val=1), label="f")
    g = data.draw(series(ring, order=5, min_val=1, max_val=2), label="g")
    assert_same_series(f.compose(g), series_compose(ref(f), ref(g)))


def test_zero_series_results_stay_canonical():
    z = Fps.constant(Poly.zero(), 4)
    x = Fps((Poly.zero(), Poly.x(), Poly.one(), Poly.zero(), Poly.x()))
    for out in (z * x, x * z, z / Fps.constant(Poly.constant(3), 4), x - x):
        assert all((c.num, c.den) == ((), 1) for c in out.coeffs)
    assert z.exp() == Fps.constant(Poly.one(), 4)


def test_mixed_rings_are_rejected():
    frac = Fps.constant(Fraction(1), 3)
    poly = Fps.constant(Poly.one(), 3)
    with pytest.raises(TypeError):
        frac * poly
    with pytest.raises(TypeError):
        poly / frac

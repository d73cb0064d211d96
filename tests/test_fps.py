from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_kernel import read_poly, series_compose
from truncbell.fps import Fps, Poly, apply_Dlambda, deg_exp, times_deg_exp_x

LAMBDAS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=9)
nonzero_fractions = small_fractions.filter(bool)

polys = st.lists(small_fractions, min_size=0, max_size=5).map(Poly)
series6 = st.lists(small_fractions, min_size=7, max_size=7).map(Fps)


@st.composite
def series_with_valuation(draw, order=10, max_val=3):
    v = draw(st.integers(0, max_val))
    lead = draw(nonzero_fractions)
    tail = draw(st.lists(small_fractions, min_size=order - v, max_size=order - v))
    return Fps([Fraction(0)] * v + [lead] + tail)


# ---------------------------------------------------------------- Poly


def test_poly_normalizes_trailing_zeros():
    assert Poly((Fraction(1), Fraction(0))).degree == 0
    assert Poly(()).degree == -1
    assert Poly(()) == Poly()
    assert Poly((Fraction(0), Fraction(0))) == Poly()


def test_poly_coeff_beyond_degree_is_zero():
    p = Poly((Fraction(1), Fraction(2)))
    assert p.coeff(5) == 0
    assert p.coeff(-1) == 0


def test_poly_scalar_equality_and_mixing():
    assert Poly((Fraction(3),)) == 3
    assert Poly() == 0
    p = Poly.x()
    assert 2 * p == p + p
    assert p - p == 0


def test_constructors_refuse_floats():
    for build in (lambda: Poly((0, 0.1)), lambda: Fps([Fraction(1), 0.5]),
                  lambda: Fps.constant(0.1, 2)):
        with pytest.raises(ValueError, match="is a float"):
            build()


def test_poly_monomial_and_pow():
    assert Poly((0,) * 3 + (Fraction(1, 2),)) == Poly((0, 0, 0, Fraction(1, 2)))
    assert Poly.x() ** 3 == Poly((0,) * 3 + (1,))


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, small_fractions)
def test_poly_evaluation_is_ring_homomorphism(p, x0):
    direct = sum((p.coeff(k) * x0**k for k in range(p.degree + 1)), Fraction(0))
    assert p(x0) == direct


@given(polys)
def test_poly_string_round_trip(p):
    assert Poly(read_poly(p.to_string()).coeffs) == p


def _coeffs_text(p: Poly) -> str:
    """Poly.to_string as it was written through one Fraction per coefficient."""
    parts = [str(c) if k == 0 else f"{c}*x" if k == 1 else f"{c}*x^{k}"
             for k, c in enumerate(p.coeffs) if c]
    return " + ".join(parts) or "0"


# signs, zero gaps between terms and unit coefficients (+-1, +-1/d)
text_coeffs = st.one_of(st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]),
                        st.integers(1, 40).map(lambda d: Fraction(1, d)),
                        st.integers(1, 40).map(lambda d: Fraction(-1, d)),
                        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))


@given(st.lists(text_coeffs, max_size=9))
def test_poly_to_string_matches_the_fraction_text(coeffs):
    p = Poly(coeffs)
    assert p.to_string() == _coeffs_text(p)


def test_poly_to_string_examples():
    assert Poly().to_string() == "0"
    assert Poly((Fraction(0), Fraction(1, 4), Fraction(1, 3))).to_string() == "1/4*x + 1/3*x^2"
    assert Poly((-1, 0, 0, Fraction(-3, 2), 1)).to_string() == "-1 + -3/2*x^3 + 1*x^4"


# ---------------------------------------------------------------- Fps core


def test_fps_constructors_and_coeff_bounds():
    f = Fps.t(4)
    assert f.order == 4
    assert f.coeffs == (0, 1, 0, 0, 0)
    with pytest.raises(IndexError):
        f.egf_coeff(5)
    with pytest.raises(IndexError):
        f.egf_coeff(-1)
    assert Fps.constant(Fraction(2), 3).coeffs == (2, 0, 0, 0)


def test_egf_coeff_scales_by_factorial():
    f = deg_exp(Fraction(1), Fraction(0), 8)
    for n in range(9):
        assert f.coeffs[n] == Fraction(1, factorial(n))
        assert f.egf_coeff(n) == 1
    with pytest.raises(IndexError):
        f.egf_coeff(9)


@given(series6, series6, series6)
def test_fps_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_pow_uses_binary_powering_without_spare_products(k, products, monkeypatch):
    f = Fps((Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(5)))
    expected = Fps.constant(Fraction(1), 3)
    for _ in range(k):
        expected = expected * f
    calls = []
    real = Fps.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Fps, "__mul__", counted)
    assert f**k == expected
    assert len(calls) == products


@given(series_with_valuation(), series_with_valuation())
def test_valuation_is_additive_under_product(a, b):
    prod = a * b
    assert prod.valuation() == a.valuation() + b.valuation()


@given(series_with_valuation(), series_with_valuation())
def test_division_round_trips_multiplication(a, b):
    q = (a * b) / b
    assert q == Fps(a.coeffs[: q.order + 1])


def test_division_rejects_laurent_results():
    one = Fps.constant(Fraction(1), 4)
    with pytest.raises(ValueError, match="negative powers"):
        one / Fps.t(4)
    with pytest.raises(ZeroDivisionError):
        one / Fps.constant(Fraction(0), 4)


def test_division_of_zero_numerator():
    z = Fps.constant(Fraction(0), 6) / Fps.t(6)
    assert z.valuation() is None
    assert z.order == 5


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        Fps.constant(Fraction(1), 4).exp()


def test_exp_of_t_is_exponential_series():
    e = Fps.t(8).exp()
    assert e.coeffs == tuple(Fraction(1, factorial(n)) for n in range(9))


def test_compose_bell_number_generating_series():
    from oracles import bell_oracle

    inner = deg_exp(Fraction(1), Fraction(0), 8) - 1
    bell_gf = series_compose(Fps.t(8).exp().coeffs, inner.coeffs)
    for n in range(7):
        assert bell_gf[n] * factorial(n) == bell_oracle(n)


# ---------------------------------------------------------------- deg_exp and its inverse


def test_deg_exp_lam_one_truncates_to_linear():
    f = deg_exp(Fraction(1), Fraction(1), 5)
    assert f.coeffs == (1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_deg_exp_poly_argument_reduces_under_evaluation(lam):
    fx = times_deg_exp_x(Fps.constant(1, 8), lam)
    for x0 in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)):
        fq = deg_exp(x0, lam, 8)
        assert tuple(fx[n](x0) for n in range(9)) == fq.coeffs


def test_deg_exp_poly_second_coefficient():
    fx = times_deg_exp_x(Fps.constant(1, 4), Fraction(1, 2))
    x = Poly.x()
    assert fx[2] * 2 == x * (x - Fraction(1, 2))


def deg_log(lam, order: int) -> tuple:
    """Coefficients of the degenerate logarithm ((1 + t)^lam - 1) / lam,
    log(1 + t) at lam = 0, from the binomial series."""
    out, c = [Fraction(0)], Fraction(1)
    for n in range(1, order + 1):
        if lam:
            c = c * (lam - n + 1) / n  # C(lam, n)
            out.append(c / lam)
        else:
            out.append(Fraction((-1) ** (n + 1), n))
    return tuple(out)


def test_exp_log_inverse_classical():
    # exp(log(1+t)) - 1 = t through the shared order
    f = Fps(deg_log(Fraction(0), 12)).exp()
    assert f == Fps.t(12) + 1


# the composition is the reference kernel's, so this cross-check shares no
# series code with the library it checks


@pytest.mark.parametrize("lam", LAMBDAS)
def test_deg_log_is_compositional_inverse(lam):
    z = (deg_exp(Fraction(1), lam, 16) - 1).coeffs
    log = deg_log(lam, 16)
    assert series_compose(z, log) == Fps.t(16).coeffs
    assert series_compose(log, z) == Fps.t(16).coeffs


# ---------------------------------------------------------------- the weighted derivative


def test_apply_Dlambda_kills_constants():
    out = apply_Dlambda(Fps.constant(Fraction(1), 6), Fraction(1, 2))
    assert out.valuation() is None
    assert out.order == 5


def test_apply_Dlambda_on_t_at_lam_zero_gives_decaying_exponential():
    out = apply_Dlambda(Fps.t(8), Fraction(0))
    assert out.coeffs == tuple(Fraction((-1) ** n, factorial(n)) for n in range(8))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_apply_Dlambda_iterated_closed_form(lam, p):
    # p applications to sum_n u^n/(n+1)! give (-1)^p sum_n u^n/((n+p+1) n!)
    # where u = 1 - deg_exp; the operator sends u to the constant -1.
    order = 12
    u = 1 - deg_exp(Fraction(1), lam, order)
    upow = Fps.constant(Fraction(1), order)
    lhs = Fps.constant(Fraction(0), order)
    rhs = Fps.constant(Fraction(0), order)
    for n in range(order + 1):
        lhs = lhs + upow.scale(Fraction(1, factorial(n + 1)))
        rhs = rhs + upow.scale(Fraction(1, (n + p + 1) * factorial(n)))
        if n < order:
            upow = upow * u
    for _ in range(p):
        lhs = apply_Dlambda(lhs, lam)
    assert lhs == Fps(rhs.scale(Fraction((-1) ** p)).coeffs[: order - p + 1])


from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from truncbell.exactnum import (
    as_fraction,
    beta_exact,
    deg_falling_factorial,
    format_rational,
    parse_rational,
)

rationals = st.fractions()
small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)


@given(rationals)
def test_parse_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_accepts_plain_and_signed_forms():
    assert parse_rational("7") == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+2/6") == Fraction(1, 3)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


def test_parse_rejects_float_notation_with_position():
    with pytest.raises(ValueError, match="position 1"):
        parse_rational("1.5")
    with pytest.raises(ValueError, match="position 2"):
        parse_rational("12e4")


@pytest.mark.parametrize("text, char", [
    ("\u0661/\u0662", "\u0661"),  # Arabic-Indic digits one and two
    ("\uff11/\uff12", "\uff11"),  # fullwidth digits one and two
    ("1/\u0968", "\u0968"),  # Devanagari digit two
], ids=["arabic-indic", "fullwidth", "devanagari"])
def test_parse_rejects_non_ascii_digits(text, char):
    # int() reads every Unicode decimal digit; a rational takes ASCII only
    with pytest.raises(ValueError, match=f"unexpected character '{char}' at position"):
        parse_rational(text)


@pytest.mark.parametrize("bad", ["", "/", "1/", "/2", "1/0", "1/-2", "--3", "1/2/3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_omits_unit_denominator():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


@given(small_rationals, st.integers(0, 8))
def test_deg_falling_factorial_lam_zero_is_power(x, n):
    assert deg_falling_factorial(x, n, Fraction(0)) == x**n


@given(small_rationals, small_rationals, st.integers(0, 6))
def test_deg_falling_factorial_product_form(x, lam, n):
    expected = Fraction(1)
    for j in range(n):
        expected *= x - j * lam
    assert deg_falling_factorial(x, n, lam) == expected


def test_as_fraction_passes_a_fraction_through():
    q = Fraction(-1, 3)
    assert as_fraction(q) is q
    for x in (3, "1/2", Fraction(4, 2)):
        assert type(as_fraction(x)) is Fraction and as_fraction(x) == Fraction(x)


@pytest.mark.parametrize("x", [0.1, 0.5, -2.0, float("nan")])
def test_as_fraction_refuses_floats(x):
    with pytest.raises(ValueError, match=r"is a float.*Fraction or a 'num/den' string"):
        as_fraction(x)


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1/2.0"])
def test_as_fraction_reads_strings_as_parse_rational_does(text):
    # Fraction("0.5") and Fraction("1e-3") would accept decimal notation
    with pytest.raises(ValueError, match="unexpected character"):
        as_fraction(text)
    assert as_fraction(" -6/4 ") == parse_rational(" -6/4 ") == Fraction(-3, 2)


def test_library_calls_refuse_a_float_lambda():
    from truncbell.sequences import Family, build_table, stirling2_deg

    with pytest.raises(ValueError, match="0.1 is a float"):
        stirling2_deg(3, 1, 0.1)
    with pytest.raises(ValueError, match="0.1 is a float"):
        build_table(Family.TruncBellDeg, 2, lam=0.1, p=1)
    with pytest.raises(ValueError, match="unexpected character"):
        build_table(Family.TruncBellDeg, 2, lam="0.1", p=1)
    assert build_table(Family.TruncBellDeg, 2, lam="1/10", p=1).lam == Fraction(1, 10)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        deg_falling_factorial(Fraction(1), -2, Fraction(1, 2))


def test_beta_exact_values():
    assert beta_exact(1, 1) == 1
    assert beta_exact(2, 3) == Fraction(1, 12)
    assert beta_exact(1, 4) == Fraction(1, 4)


@given(st.integers(1, 12), st.integers(1, 12))
def test_beta_exact_symmetry_and_recursion(a, b):
    assert beta_exact(a, b) == beta_exact(b, a)
    # B(a+1, b) = a/(a+b) B(a, b)
    assert beta_exact(a + 1, b) == Fraction(a, a + b) * beta_exact(a, b)


@given(st.integers(0, 14), st.integers(1, 10))
def test_beta_exact_against_binomial_reciprocal(k, p):
    # p * B(k+1, p) = 1 / C(k+p, k): the weight the truncated family uses
    assert p * beta_exact(k + 1, p) == Fraction(1, comb(k + p, k))


def test_beta_exact_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_exact(0, 1)
    with pytest.raises(ValueError):
        beta_exact(1, -2)

"""Exact rational scalars and small combinatorial primitives.

Everything in this module is exact integer and fractions.Fraction
arithmetic: no floats, no rounding. Callers convert to float only at the
moment they compare an exact value against a numeric approximation, never
inside these routines.

Conventions:

* deg_falling_factorial(x, n, lam) is the product
  x * (x - lam) * (x - 2*lam) * ... * (x - (n-1)*lam).
  lam = 0 recovers the plain power x**n and lam = 1 the ordinary falling
  factorial, so the classical limit is the same code path with lam = 0.
* Rational values serialize as "num/den" with the denominator omitted when
  it is 1; str() on a Fraction already produces exactly that, and Fraction
  guarantees the canonical form (lowest terms, positive denominator).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
_RATIONAL_CHARS = set("0123456789/+-")


def parse_rational(text: str) -> Fraction:
    """Parse "num" or "num/den" into a Fraction.

    Decimal points and exponent syntax are rejected on purpose: no value may
    enter through float notation. Errors point at the offending character.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        for i, ch in enumerate(s):
            if ch not in _RATIONAL_CHARS:
                raise ValueError(
                    f"invalid rational {text!r}: unexpected character {ch!r} at position {i}"
                )
        raise ValueError(f"invalid rational {text!r}: expected 'num' or 'num/den'")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"invalid rational {text!r}: zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def as_fraction(x) -> Fraction:
    """x as a Fraction: the one gate through which the library takes a
    rational. A Fraction is returned as the same object, an int is
    converted, a string goes through parse_rational, and a float is refused,
    since its binary value is not the decimal it was written as (0.1 would
    enter as 3602879701896397/36028797018963968)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        raise ValueError(f"{x!r} is a float, not an exact rational; "
                         "pass a Fraction or a 'num/den' string")
    return Fraction(x)


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form, "num" alone when the denominator is 1."""
    return str(q)


def deg_falling_factorial(x: Fraction, n: int, lam: Fraction) -> Fraction:
    """x * (x-lam) * ... * (x-(n-1)*lam); the empty product at n = 0. With
    x = a/b and lam = c/d the factors are (ad - jcb)/(bd), so the product is
    formed on the integers and reduced once."""
    if n < 0:
        raise ValueError(f"deg_falling_factorial needs n >= 0, got n={n}")
    a, b = as_fraction(x).as_integer_ratio()
    c, d = as_fraction(lam).as_integer_ratio()
    num = 1
    for j in range(n):
        num *= a * d - j * c * b
    return Fraction(num, (b * d) ** n)


def beta_exact(a: int, b: int) -> Fraction:
    """Euler beta at positive integer arguments: (a-1)!(b-1)!/(a+b-1)!."""
    if a < 1 or b < 1:
        raise ValueError(f"beta_exact needs positive integer arguments, got ({a}, {b})")
    return Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))

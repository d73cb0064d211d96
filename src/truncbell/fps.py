"""Dense exact polynomials and truncated formal power series.

Poly stores its coefficients, ascending by power, as a tuple of integer
numerators over one positive integer denominator, in canonical form:
trailing zeros trimmed and gcd(den, *num) == 1. The zero polynomial is the
empty tuple over 1 (its degree reports -1). Instances are treated as
immutable. Arithmetic works on the integers and reduces each result by one
gcd; the Fraction view `coeffs` is built only when asked for. The finite
sums of the package go through two kernels that work the same way. A term
is a tuple of factors, each an int or a Fraction: lincomb(terms) returns
sum c1 * ... * ck * P over terms (c1, ..., ck, P) as one Poly, and
dot(terms) returns sum c1 * ... * ck over terms (c1, ..., ck) as one
Fraction. A term's weight is the product of its numerators over the
product of its denominators, so callers pass factors rather than build
Fraction products; the weights go to one common denominator, each result
coefficient is one integer dot product, and the result is reduced once.

Fps is a power series in t known exactly through a stated truncation order,
stored the way Poly is: a tuple `num` of order + 1 integer numerators,
zeros kept, over one positive denominator `den` with gcd(den, *num) == 1.
Sum, product, quotient, exp, derivative and powers run schoolbook integer
recurrences on the numerators and reduce each result once, so Fraction
appears only where a caller reads coefficients: `coeffs` (a view built on
each use) and `egf_coeff`. The one product whose coefficients are
polynomials in x, g(t) times the degenerate exponential e_lam^x(t), is
times_deg_exp_x; it reads g's numerators and returns the Poly coefficients
of the product rather than a series, each coefficient one integer dot
product that starts at g's valuation.

Arithmetic keeps the weakest truncation of its operands, so a result's
order always says how far its coefficients can be trusted. Division
shortens the order by the denominator's valuation and refuses to produce
anything with negative powers: there are no Laurent series here, a quotient
that would need one raises instead. exp() requires a zero constant term,
which is exactly what makes it well defined on truncations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm
from operator import add, mul

from .exactnum import as_fraction

_SCALARS = (int, Fraction)


def _numerators(cs) -> tuple[list, int]:
    """Fraction coefficients as integer numerators over their common denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    Stored as integer numerators `num` over one denominator `den`, in
    canonical form: den > 0, gcd(den, *num) == 1 and no trailing zero
    numerator. Equal polynomials therefore have equal (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators no prime divides every numerator
        num, self.den = _numerators(cs)
        self.num = tuple(num)

    @classmethod
    def one(cls) -> "Poly":
        return _POLY_ONE

    @classmethod
    def x(cls) -> "Poly":
        return _POLY_X

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by power, as Fractions, built on each use."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = _poly((other.numerator,), other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        g = gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        if sa != 1:
            a = [c * sa for c in a]
        if sb != 1:
            b = [c * sb for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        out[: len(b)] = map(add, a, b)
        return _poly(out, self.den * sa)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, (Poly,) + _SCALARS):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return _poly([c * other.numerator for c in self.num], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        # schoolbook, with the inner loop over the longer operand
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        lb = len(b)
        acc = [0] * (len(a) + lb - 1)
        for i, c in enumerate(a):
            if c:
                acc[i : i + lb] = map(add, acc[i : i + lb], map(c.__mul__, b))
        return _poly(acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = _POLY_ONE
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x0) -> Fraction:
        # Horner on p/q scaled by q^(degree+1): acc = q * sum num_i p^i q^(deg-i)
        x0 = as_fraction(x0)
        p, q = x0.numerator, x0.denominator
        acc, qk = 0, 1
        for c in reversed(self.num):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, self.den * qk)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = _poly((other.numerator,), other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"Poly[{self.to_string()}]"

    def to_string(self) -> str:
        """Ascending powers, exact coefficients: "1/2 + -1/3*x + 2*x^2"."""
        if not self.num:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)


def _poly(num, den: int) -> Poly:
    """Poly from integer numerators over a positive denominator, brought to
    canonical form: trailing zeros trimmed, common factor divided out."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    g = gcd(den, *num[:n])
    p = object.__new__(Poly)
    p.num = tuple(c // g for c in num[:n]) if g != 1 else tuple(num[:n])
    p.den = den // g
    return p


def _combine(weights, rows) -> list:
    """sum_j weights[j] * rows[j] for integer weights and integer coefficient
    rows of any lengths: coefficient i is one integer dot product."""
    return [sum(map(mul, weights, col)) for col in zip_longest(*rows, fillvalue=0)]


def _ratio(factors) -> tuple[int, int]:
    """The product of ints and Fractions as (numerator, denominator), unreduced."""
    n = d = 1
    for c in factors:
        n *= c.numerator
        d *= c.denominator
    return n, d


def lincomb(terms) -> Poly:
    """sum c1 * ... * ck * P over terms (c1, ..., ck, P), each c an int or a
    Fraction, as one Poly: the integer weights over the lcm of the terms'
    denominators (P.den included), one dot product per coefficient."""
    nums, dens, polys = [], [], []
    for *factors, p in terms:
        n, d = _ratio(factors)
        if n and p.num:
            nums.append(n)
            dens.append(d * p.den)
            polys.append(p.num)
    den = lcm(*dens)
    return _poly(_combine([n * (den // d) for n, d in zip(nums, dens)], polys), den)


def dot(terms) -> Fraction:
    """sum c1 * ... * ck over terms (c1, ..., ck) of ints or Fractions, as one
    Fraction from one integer sum over the lcm of the terms' denominators."""
    terms = list(terms)
    try:  # pairs, the common case, without a call per term
        terms = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in terms]
    except ValueError:  # a term that is not a pair
        terms = [_ratio(t) for t in terms]
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


_POLY_ONE = _poly((1,), 1)
_POLY_X = _poly((0, 1), 1)


class Fps:
    """Formal power series in t, exact through a fixed truncation order.

    Stored as integer numerators `num` over one denominator `den`, in
    canonical form: den > 0, gcd(den, *num) == 1 and len(num) == order + 1,
    zeros kept. Equal series therefore have equal (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        cs = [as_fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least its constant term")
        num, self.den = _numerators(cs)
        self.num = tuple(num)

    @classmethod
    def constant(cls, c, order: int) -> "Fps":
        c = as_fraction(c)
        return _fps((c.numerator,) + (0,) * order, c.denominator)

    @classmethod
    def t(cls, order: int) -> "Fps":
        if order < 1:
            raise ValueError("the identity series t needs order >= 1")
        return _fps((0, 1) + (0,) * (order - 1), 1)

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by power, as Fractions, built on each use."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def egf_coeff(self, n: int) -> Fraction:
        """n! times the t^n coefficient: the value a series of the form
        sum a_n t^n / n! stores at index n."""
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} is beyond truncation order {self.order}")
        return Fraction(self.num[n] * factorial(n), self.den)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient; None for the zero series."""
        for i, c in enumerate(self.num):
            if c:
                return i
        return None

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Fps.constant(other, self.order)
        if not isinstance(other, Fps):
            return NotImplemented
        n = min(self.order, other.order) + 1
        g = gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        return _fps([a * sa + b * sb for a, b in zip(self.num[:n], other.num[:n])], self.den * sa)

    __radd__ = __add__

    def __neg__(self):
        return _fps([-c for c in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, (Fps,) + _SCALARS):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Fps":
        return _fps([a * c.numerator for a in self.num], self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, Fps):
            n = min(self.order, other.order)
            na, nb = self.num, other.num[n::-1]  # nb[n - j] is coefficient j
            out = [sum(map(mul, na[: m + 1], nb[n - m :])) for m in range(n + 1)]
            return _fps(out, self.den * other.den)
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power; divide instead")
        if k == 0:
            return Fps.constant(1, self.order)
        # left-to-right binary powering from the leading bit
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __truediv__(self, other):
        """Series division with explicit valuation handling.

        Requires valuation(other) <= valuation(self); the quotient's order is
        min(order) - valuation(other).
        """
        if not isinstance(other, Fps):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        sv = self.valuation()
        out_order = min(self.order, other.order) - v
        if out_order < 0:
            raise ValueError(
                f"quotient order would be negative: orders ({self.order}, {other.order}), "
                f"denominator valuation {v}"
            )
        if sv is None:
            return Fps.constant(0, out_order)
        if sv < v:
            raise ValueError(
                f"denominator valuation {v} exceeds numerator valuation {sv}; "
                "the quotient would need negative powers"
            )
        k = out_order + 1
        na, nb, db = self.num[v : v + k], list(other.num[v : v + k]), other.den
        # With a = A/da, b = B/db and B_0 = beta, the quotient is H/(da beta^k)
        # for H_n beta = db A_n beta^k - sum_{j=1..n} B_j H_{n-j}: the
        # recurrence q_n b_0 = a_n - sum_j b_j q_{n-j}, multiplied through.
        beta = nb[0]
        if beta < 0:  # keep the denominator positive: B/db = (-B)/(-db)
            beta, db, nb = -beta, -db, [-c for c in nb]
        lead = db * beta**k
        h: list = []
        for n in range(k):
            h.append((na[n] * lead - sum(map(mul, nb[n:0:-1], h))) // beta)
        return _fps(h, self.den * beta**k)

    def derivative(self) -> "Fps":
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        num = self.num
        return _fps([num[n] * n for n in range(1, len(num))], self.den)

    def exp(self) -> "Fps":
        """exp of a series with zero constant term, same order N.

        With f_j = F_j / d, the result is H / (N! d^N) for H_0 = N! d^N and
        H_m m d = sum_{j=1..m} j F_j H_{m-j}: the recurrence
        m out_m = sum_j j f_j out_{m-j}, multiplied through. Each division
        by m d is exact.
        """
        f, d = self.num, self.den
        if f[0]:
            raise ValueError("exp needs a zero constant term")
        N = len(f) - 1
        jf = [j * c for j, c in enumerate(f)][::-1]  # jf[N - j] = j F_j
        h = [factorial(N) * d**N]
        for m in range(1, N + 1):
            h.append(sum(map(mul, jf[N - m : N], h)) // (m * d))
        return _fps(h, h[0])

    def __eq__(self, other):
        if not isinstance(other, Fps):
            return NotImplemented
        return self.num == other.num and self.den == other.den


def _fps(num, den: int) -> Fps:
    """Fps from integer numerators over a positive denominator, brought to
    canonical form by one gcd; zeros are kept, so the order is len(num) - 1."""
    g = gcd(den, *num)
    s = object.__new__(Fps)
    s.num = tuple(c // g for c in num) if g != 1 else tuple(num)
    s.den = den // g
    return s


def deg_exp(x, lam, order: int) -> Fps:
    """Degenerate exponential series at a rational x: coefficient of t^n is
    deg_falling_factorial(x, n, lam) / n!. lam = 0 yields the ordinary
    exponential of x*t; times_deg_exp_x keeps x symbolic. With x = p/q and
    lam = a/b, coefficient n is prod_{j<n} (pb - jaq) over (qb)^n n!, so the
    numerators are one running integer product over (qb)^order order!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    x, lam = as_fraction(x), as_fraction(lam)
    p, q, a, b = x.numerator, x.denominator, lam.numerator, lam.denominator
    qb = q * b
    # numerator n is P_n (qb)^(order-n) order!/n!, built from the top down
    prods = [1]
    for j in range(order):
        prods.append(prods[-1] * (p * b - j * a * q))
    num, w = [0] * (order + 1), 1
    for n in range(order, -1, -1):
        num[n] = prods[n] * w
        w *= qb * n
    return _fps(num, qb**order * factorial(order))


def times_deg_exp_x(g: Fps, lam) -> tuple[Poly, ...]:
    """t^n coefficients of g(t) e_lam^x(t) through the order N of g, as
    polynomials in x: sum_m g_m (x)_{n-m,lam} / (n-m)!. With lam = a/b and
    P_j = prod_{i<j} (b x - i a), (x)_{j,lam}/j! = P_j b^(N-j) N!/j! over
    D = b^N N!, so the x^i coefficient of result n is the integer dot
    product sum_{m=v..n-i} g_m e_{n-m,i} over g.den D, where e_j holds the
    numerators of P_j b^(N-j) N!/j! and v is g's valuation."""
    lam = as_fraction(lam)
    a, b = lam.numerator, lam.denominator
    N = g.order
    v = g.valuation()
    if v is None:
        return (Poly(),) * (N + 1)
    D = b**N * factorial(N)
    e, pj = [], [1]
    for j in range(N + 1):
        w = D // (b**j * factorial(j))
        e.append([w * c for c in pj])
        # P_{j+1} = P_j (b x - j a)
        pj = [s - j * a * c for s, c in zip([0] + [b * c for c in pj], pj + [0])]
    # cols[i][k] = e_{i+k,i}; the x^i coefficient of result n pairs cols[i]
    # with g_{n-i}, g_{n-i-1}, ..., g_v, and map stops at the shorter one
    cols = [col[i:] for i, col in enumerate(zip_longest(*e, fillvalue=0))]
    rev = g.num[::-1]  # rev[N - m] = g_m
    den = g.den * D
    out = []
    for n in range(N + 1):
        gn = rev[N - n : N - v + 1]  # g_n, g_{n-1}, ..., g_v
        out.append(_poly([sum(map(mul, cols[i], gn[i:])) for i in range(n - v + 1)], den))
    return tuple(out)


def apply_Dlambda(f: Fps, lam: Fraction) -> Fps:
    """One application of the weighted derivative: multiply f' by the
    degenerate exponential with exponent lam - 1. Shortens the order by one
    (the derivative's loss); iterate for higher powers of the operator."""
    d = f.derivative()
    return d * deg_exp(lam - Fraction(1), lam, d.order)

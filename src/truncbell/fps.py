"""Dense exact polynomials and truncated formal power series.

Poly stores its coefficients, ascending by power, as a tuple of integer
numerators over one positive integer denominator, in canonical form:
trailing zeros trimmed and gcd(den, *num) == 1. The zero polynomial is the
empty tuple over 1 (its degree reports -1). Instances are treated as
immutable. Arithmetic works on the integers and reduces each result by one
gcd; the Fraction view `coeffs` is built only when asked for.

Fps is a power series in t known exactly through a stated truncation order:
coeffs has length order + 1 and every entry lives in one coefficient ring,
either Fraction or Poly (series whose coefficients are polynomials in x).
Those are the only two rings; nothing here is generic beyond them. The
product, quotient and exp bring each operand once to integer numerators
over a common denominator, run schoolbook integer recurrences (a 2-D
convolution on the Poly ring) and build each result coefficient once, so
Fraction appears only at this API boundary. Division works on the Fraction
ring only, the one ring the package divides in; a Poly-ring operand raises
TypeError.

Arithmetic keeps the weakest truncation of its operands, so a result's
order always says how far its coefficients can be trusted. Division
shortens the order by the denominator's valuation and refuses to produce
anything with negative powers: there are no Laurent series here, a quotient
that would need one raises instead. exp() requires a zero constant term,
which is exactly what makes it well defined on truncations.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, mul

from .exactnum import falling_factorial, parse_rational

_SCALARS = (int, Fraction)


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    Stored as integer numerators `num` over one denominator `den`, in
    canonical form: den > 0, gcd(den, *num) == 1 and no trailing zero
    numerator. Equal polynomials therefore have equal (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators no prime divides every numerator
        den = lcm(*(c.denominator for c in cs))
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @classmethod
    def zero(cls) -> "Poly":
        return _POLY_ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _POLY_ONE

    @classmethod
    def x(cls) -> "Poly":
        return _POLY_X

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, c=1) -> "Poly":
        if power < 0:
            raise ValueError(f"monomial power must be >= 0, got {power}")
        return cls((0,) * power + (c,))

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by power, as Fractions, built on each use."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return not self.is_zero

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
        if isinstance(other, _SCALARS):
            other = _poly((other.numerator,), other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return _poly([c * other.numerator for c in self.num], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        acc: list = []
        _mul_into(acc, self.num, other.num)
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
        x0 = Fraction(x0)
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

    def __hash__(self):
        return hash((self.num, self.den))

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

    @classmethod
    def from_string(cls, text: str) -> "Poly":
        s = text.strip()
        if s == "0":
            return _POLY_ZERO
        coeffs: dict[int, Fraction] = {}
        for term in s.split(" + "):
            head, _, tail = term.partition("*")
            c = parse_rational(head)
            if not tail:
                power = 0
            elif tail == "x":
                power = 1
            elif tail.startswith("x^"):
                power = int(tail[2:])
            else:
                raise ValueError(f"invalid polynomial term {term!r}")
            if power in coeffs:
                raise ValueError(f"repeated power {power} in {text!r}")
            coeffs[power] = c
        out = [Fraction(0)] * (max(coeffs) + 1)
        for power, c in coeffs.items():
            out[power] = c
        return cls(out)


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


def _mul_into(acc: list, a, b) -> None:
    """acc += a * b for integer coefficient sequences (schoolbook, with the
    inner loop over the longer operand); acc grows as needed."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return
    lb = len(b)
    short = len(a) + lb - 1 - len(acc)
    if short > 0:
        acc.extend([0] * short)
    for i, c in enumerate(a):
        if c:
            acc[i : i + lb] = map(add, acc[i : i + lb], map(c.__mul__, b))


_POLY_ZERO = _poly((), 1)
_POLY_ONE = _poly((1,), 1)
_POLY_X = _poly((0, 1), 1)


def _numerators(cs) -> tuple[list, int]:
    """Coefficients of one ring over their common denominator: integer
    numerators on the Fraction ring, integer numerator tuples on the Poly ring."""
    if isinstance(cs[0], Poly):
        den = lcm(*(c.den for c in cs))
        return [c.num if c.den == den else [v * (den // c.den) for v in c.num] for c in cs], den
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _zero_like(sample):
    return _POLY_ZERO if isinstance(sample, Poly) else Fraction(0)


def _one_like(sample):
    return _POLY_ONE if isinstance(sample, Poly) else Fraction(1)


def _coerce(value, sample):
    """Bring an int/Fraction scalar into the ring of `sample`."""
    if isinstance(sample, Poly):
        if isinstance(value, Poly):
            return value
        return Poly((value,))
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Fps:
    """Formal power series in t, exact through a fixed truncation order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs = cs

    @classmethod
    def constant(cls, c, order: int) -> "Fps":
        z = _zero_like(c)
        return cls((c,) + (z,) * order)

    @classmethod
    def t(cls, order: int) -> "Fps":
        if order < 1:
            raise ValueError("the identity series t needs order >= 1")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coeff(self, n: int):
        """n! times the t^n coefficient: the value a series of the form
        sum a_n t^n / n! stores at index n."""
        return self.coeff(n) * factorial(n)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient; None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def truncate(self, order: int) -> "Fps":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Fps(self.coeffs[: order + 1])

    def map_coeffs(self, fn) -> "Fps":
        return Fps(tuple(fn(c) for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, Fps):
            n = min(self.order, other.order)
            return Fps(tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])))
        if isinstance(other, _SCALARS + (Poly,)):
            c = _coerce(other, self.coeffs[0])
            return Fps((self.coeffs[0] + c,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Fps(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Fps):
            n = min(self.order, other.order)
            return Fps(tuple(a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])))
        if isinstance(other, _SCALARS + (Poly,)):
            c = _coerce(other, self.coeffs[0])
            return Fps((self.coeffs[0] - c,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Fps":
        c = _coerce(c, self.coeffs[0])
        return Fps(tuple(a * c for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Fps):
            n = min(self.order, other.order)
            a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
            poly_ring = isinstance(a[0], Poly)
            if poly_ring != isinstance(b[0], Poly):
                raise TypeError(
                    "operands are over different coefficient rings; lift the Fraction one")
            (na, da), (nb, db) = _numerators(a), _numerators(b)
            den = da * db
            if poly_ring:  # 2-D integer convolution
                out = []
                for m in range(n + 1):
                    acc: list = []
                    for j in range(m + 1):
                        _mul_into(acc, na[j], nb[m - j])
                    out.append(_poly(acc, den))
                return Fps(out)
            nb.reverse()
            return Fps([Fraction(sum(map(mul, na[: m + 1], nb[n - m :])), den) for m in range(n + 1)])
        if isinstance(other, _SCALARS + (Poly,)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power; divide instead")
        if k == 0:
            return Fps.constant(_one_like(self.coeffs[0]), self.order)
        # left-to-right binary powering from the leading bit
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __truediv__(self, other):
        """Series division on the Fraction ring with explicit valuation handling.

        Requires valuation(other) <= valuation(self); the quotient's order is
        min(order) - valuation(other). A Poly-ring operand raises TypeError.
        """
        if not isinstance(other, Fps):
            return NotImplemented
        if isinstance(self.coeffs[0], Poly) or isinstance(other.coeffs[0], Poly):
            raise TypeError("series division works on the Fraction ring only")
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
            return Fps.constant(Fraction(0), out_order)
        if sv < v:
            raise ValueError(
                f"denominator valuation {v} exceeds numerator valuation {sv}; "
                "the quotient would need negative powers"
            )
        k = out_order + 1
        na, da = _numerators(self.coeffs[v : v + k])
        nb, db = _numerators(other.coeffs[v : v + k])
        # With a = A/da, b = B/db and B_0 = beta, q_n = Q_n / (da beta^(n+1))
        # for Q_n = db A_n beta^n - sum_{j=1..n} B_j beta^(j-1) Q_{n-j}.
        beta = nb[0]
        if beta < 0:  # keep the denominators positive: B/db = (-B)/(-db)
            beta, db, nb = -beta, -db, [-c for c in nb]
        neg_b, pw = [], -1  # -B_j beta^(j-1), j = 1..k-1
        for bj in nb[1:]:
            neg_b.append(bj * pw)
            pw *= beta
        q, out, pw = [], [], 1
        for n in range(k):
            qn = na[n] * db * pw + sum(map(mul, neg_b[:n], reversed(q)))
            q.append(qn)
            pw *= beta
            out.append(Fraction(qn, da * pw))
        return Fps(out)

    def derivative(self) -> "Fps":
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return Fps(tuple(self.coeffs[n] * n for n in range(1, self.order + 1)))

    def exp(self) -> "Fps":
        """exp of a series with zero constant term, same order.

        With f_j = F_j / d over one denominator, the m-th coefficient is
        e_m / (m! d^m) for integers (integer polynomials on the Poly ring)
        e_0 = 1, e_m = sum_{j=1..m} j F_j e_{m-j} (m-1)!/(m-j)! d^(j-1):
        the recurrence m out_m = sum_j j f_j out_{m-j}, multiplied through.
        """
        c0 = self.coeffs[0]
        poly_ring = isinstance(c0, Poly)
        if c0:
            raise ValueError("exp needs a zero constant term")
        f, d = _numerators(self.coeffs)
        e: list = [(1,) if poly_ring else 1]
        for m in range(1, len(f)):
            acc = [] if poly_ring else 0
            w = 1  # (m-1)!/(m-j)! d^(j-1), from j = 1
            for j in range(1, m + 1):
                if poly_ring:
                    _mul_into(acc, [w * j * c for c in f[j]], e[m - j])
                else:
                    acc += w * j * f[j] * e[m - j]
                w *= (m - j) * d
            e.append(acc)
        out, den = [], 1
        for m, em in enumerate(e):
            if m:
                den *= m * d
            out.append(_poly(em, den) if poly_ring else Fraction(em, den))
        return Fps(out)

    def __eq__(self, other):
        if not isinstance(other, Fps):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c and not (k == 0 and len(self.coeffs) == 1):
                continue
            cs = f"({c.to_string()})" if isinstance(c, Poly) else str(c)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*t")
            else:
                parts.append(f"{cs}*t^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"

    __repr__ = __str__


def lift_to_poly_ring(f: Fps) -> Fps:
    """Reinterpret a Fraction-ring series as a Poly-ring series."""
    return f.map_coeffs(lambda c: Poly((c,)))


def deg_exp(x, lam: Fraction, order: int) -> Fps:
    """Degenerate exponential series: coefficient of t^n is
    deg_falling_factorial(x, n, lam) / n!.

    x may be a Fraction (Fraction-ring series) or a Poly (Poly-ring series,
    giving the two-variable generating series in t with polynomial
    coefficients in x). lam = 0 yields the ordinary exponential of x*t.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    one = _one_like(x)
    coeffs = [one]
    term = one
    for m in range(1, order + 1):
        term = term * (x - (m - 1) * lam) * Fraction(1, m)
        coeffs.append(term)
    return Fps(tuple(coeffs))


def deg_log(lam: Fraction, order: int) -> Fps:
    """Compositional inverse of deg_exp(1, lam, .) - 1, in closed form.

    For lam != 0 this is the binomial series ((1+t)**lam - 1) / lam; at
    lam = 0 it is log(1+t). The tests cross-check it against series
    reversion and composition in the Fraction reference kernel
    (tests/fraction_kernel.py), which shares no code with this module.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = [Fraction(0)]
    if lam:
        for n in range(1, order + 1):
            coeffs.append(falling_factorial(lam, n) / (factorial(n) * lam))
    else:
        for n in range(1, order + 1):
            coeffs.append(Fraction((-1) ** (n + 1), n))
    return Fps(tuple(coeffs))


def apply_Dlambda(f: Fps, lam: Fraction) -> Fps:
    """One application of the weighted derivative: multiply f' by the
    degenerate exponential with exponent lam - 1. Shortens the order by one
    (the derivative's loss); iterate for higher powers of the operator."""
    d = f.derivative()
    w = deg_exp(lam - Fraction(1), lam, d.order)
    if isinstance(f.coeffs[0], Poly):
        w = lift_to_poly_ring(w)
    return d * w

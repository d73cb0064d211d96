"""Reference kernel: Fraction schoolbook arithmetic for polynomials and
truncated power series.

This is the per-coefficient `fractions.Fraction` implementation that
`truncbell.fps` used before it moved to integer numerators over a common
denominator. Both routes of every identity check now run on the library
kernel, so a kernel bug could make both sides wrong in the same way; the
property tests in test_kernel.py compare the library against this code
exactly, and test_fps.py checks `deg_log` against its composition and
reversion, which the library does not have. It is deliberately plain and
slow; keep it independent of `truncbell`.

Polynomials are RefPoly values; a series is a tuple of coefficients
(Fraction or RefPoly, one ring per series) through its truncation order.
"""

from fractions import Fraction


class RefPoly:
    """Dense polynomial over Fraction, coefficients ascending, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, RefPoly):
            other = RefPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return RefPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RefPoly(out)

    __rmul__ = __mul__

    def __call__(self, x0) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, RefPoly):
            other = RefPoly((other,))
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RefPoly{self.coeffs!r}"


def _is_zero(c) -> bool:
    return c.is_zero if isinstance(c, RefPoly) else not c


def _zero_like(c):
    return RefPoly() if isinstance(c, RefPoly) else Fraction(0)


def _one_like(c):
    return RefPoly((1,)) if isinstance(c, RefPoly) else Fraction(1)


def valuation(a) -> int | None:
    for i, c in enumerate(a):
        if not _is_zero(c):
            return i
    return None


def series_add(a, b) -> tuple:
    n = min(len(a), len(b))
    return tuple(x + y for x, y in zip(a[:n], b[:n]))


def series_mul(a, b) -> tuple:
    n = min(len(a), len(b)) - 1
    zero = _zero_like(a[0])
    out = []
    for m in range(n + 1):
        acc = zero
        for j in range(m + 1):
            acc = acc + a[j] * b[m - j]
        out.append(acc)
    return tuple(out)


def series_pow(a, k: int) -> tuple:
    out = (_one_like(a[0]),) + (_zero_like(a[0]),) * (len(a) - 1)
    for _ in range(k):
        out = series_mul(out, a)
    return out


def series_div(a, b) -> tuple:
    """Quotient of Fraction series through order min(order) - valuation(b);
    needs valuation(b) <= valuation(a)."""
    v = valuation(b)
    out_order = min(len(a), len(b)) - 1 - v
    a, b = a[v:], b[v:]
    inv = 1 / b[0]
    q = []
    for n in range(out_order + 1):
        acc = a[n]
        for j in range(1, n + 1):
            acc = acc - b[j] * q[n - j]
        q.append(acc * inv)
    return tuple(q)


def series_exp(f) -> tuple:
    """exp of a series with zero constant term."""
    out = [_one_like(f[0])]
    for n in range(1, len(f)):
        acc = _zero_like(f[0])
        for j in range(1, n + 1):
            acc = acc + f[j] * out[n - j] * j
        out.append(acc * Fraction(1, n))
    return tuple(out)


def series_compose(f, g) -> tuple:
    """f(g(t)) for g with zero constant term, by Horner's rule."""
    n = min(len(f), len(g)) - 1
    g = g[: n + 1]
    out = (f[n],) + (_zero_like(f[0]),) * n
    for m in range(n - 1, -1, -1):
        out = series_mul(out, g)
        out = (out[0] + f[m],) + out[1:]
    return out


def series_reversion(f) -> tuple:
    """Compositional inverse g of a Fraction series f with zero constant
    term and nonzero linear coefficient: f(g(t)) = t through the order of f.
    Each step fixes g_m by cancelling the t^m coefficient of f(g)."""
    inv1 = 1 / f[1]
    g = [Fraction(0), inv1] + [Fraction(0)] * (len(f) - 2)
    for m in range(2, len(f)):
        g[m] = -series_compose(f, tuple(g))[m] * inv1
    return tuple(g)

"""Stirling-type triangles and Bell-type polynomial families, exactly.

Two constructions run side by side for the three families whose
generating-function identity a check compares, TruncBellDeg (T1),
TruncModBellDeg (T14) and S2degPoly (T13); every other family has one
construction, which for the degenerate Bernoulli family is its series
(the polynomials are the numbers' binomial convolution with the deformed
falling factorials of x, so both read one series):

* a basis route: expand the defining product as a Poly and rewrite its
  monomials through the classical second-kind triangle, x^j = sum_k
  lam^(j-k) S2(j, k) (x)_{k,lam}. Both degenerate triangles take this one
  change of basis: the second kind rewrites (x)_{n,lam} at lam = 1, the
  first kind rewrites (x)_n at the table's lam;
* a series route: extract factorial-normalized coefficients from the
  family's generating function with the Fps machinery. Series with
  coefficients in x are kept as tuples of their t^m coefficients (Polys).

The verification layer pits one route against the other, so the two must
stay genuinely independent: the basis route never touches Fps, and the
series route never reads a triangle built here. CONSTRUCTION records which
route each public function takes; tables carry the tag of the function
that filled them.

The basis routes accumulate on the integers: the classical rows are
integer tuples, and the change of basis multiplies a Poly's integer
numerators by them (scaled by powers of lam's numerator and denominator
for the first kind) as one integer row over one denominator. The second
kind's row is memoized that way, and from it the truncated family (and the
plain one, its p = 0 case) builds its Poly with one gcd. The finite sums
over k or i (the x-shifted entries and the modified truncated family) are
each one fps.lincomb call whose terms pass their factors (binomials,
reciprocal binomials, memoized entries) as they are; lincomb brings them
to integer weights over their common denominator, so every result is one
integer sum reduced by one gcd. Each sum keeps its terms and its index
range; only the arithmetic that adds them up moved to the integers. The
series routes read the integer numerators of their Fps values the same
way.

The classical second-kind triangle is filled by the standard two-term
recurrence. That recurrence is an implementation choice made here, not a
consequence of anything else in this module, and the test suite validates
it against brute-force set-partition enumeration before anything builds
on it.

Each table family is one FAMILIES entry (plus its Family member): the
entry gives the function that fills the table and its shape, and the
function's parameters after the entry's indices are the family's
parameters, so adding a family means adding one entry.

All functions memoize whole rows keyed by (family parameters, n), and
every memo holds one immutable value, built of tuples, ints, Fractions,
Polys and Fps series, that no later read changes. The degenerate Bernoulli
memos hold a whole row keyed by (lambda, r, depth), the numbers from one
series and the polynomials from the numbers, so each series is built once;
the public functions read entry n at depth n | 15, so one series serves
every n <= 15 and one more each further block of 16. The plain Bell-type
family reads the truncated one at p = 0, and the series routes read z as
_z_pow at k = 1.
One memo stores again a value another memo holds, deliberately:
_s2deg_row keeps _s2deg_num's row as Fractions, because the checks read
stirling2_deg entry by entry (33 954 reads per serial n_max=20, order=34
suite), and building the Fraction on each read instead was slower in 9 of
10 alternating serial runs of that suite (median 0.930 -> 1.039 s, 2 vCPUs,
Python 3.11.7). Repeated lookups are cheap and referentially transparent,
and concurrent readers at worst duplicate a computation of the same value.
A memo key holds lambda as its integer pair (numerator, denominator) in
lowest terms, taken through exactnum.as_fraction, so equal lambdas share an
entry and a lookup hashes only ints.
Every memo holds at most MEMO_MAXSIZE entries, evicting the least recently
used. That bounds entries, not bytes: an entry grows with the series order,
and reading the truncated families at many lambdas costs about 168 KB per
lambda at order 40 and about 554 KB at order 80 (ROADMAP open item 8 plans
a byte budget). One suite run on the n_max=20, order=34 grid fills the
largest memo to about 1000 entries.

Memos sit below the public functions, never above them: a public function
validates its arguments and reads a private memoized helper, helpers read
only other helpers, and callers (the checks in verify) call the public
function for every entry they need. The negative controls of the test
suite perturb a public function and expect every check that reads it to
fail; a memo above it would hand a warm caller the unperturbed values.
build_table reads the public functions too and keeps no finished table.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm

from .exactnum import as_fraction, format_rational
from .fps import Fps, Poly, _combine, _poly, deg_exp, lincomb, times_deg_exp_x

# the entry bound of every memo in the package (verify reads it too)
MEMO_MAXSIZE = 4096


def _key(lam) -> tuple[int, int]:
    """The memo key of lam: its numerator and denominator in lowest terms."""
    return as_fraction(lam).as_integer_ratio()


# --------------------------------------------------------------------------
# defining products


@lru_cache(maxsize=MEMO_MAXSIZE)
def _deg_ff_poly(a: int, b: int, n: int) -> Poly:
    """(x)_{n,lam} = x (x-lam) ... (x-(n-1)lam) at lam = a/b as a Poly,
    (x)_n at a = b = 1; each factor is (b x - (n-1) a) / b."""
    if n == 0:
        return Poly.one()
    return _deg_ff_poly(a, b, n - 1) * _poly((-(n - 1) * a, b), b)


def deg_falling_factorial_poly(n: int, lam) -> Poly:
    _check_n(n)
    return _deg_ff_poly(*_key(lam), n)


# --------------------------------------------------------------------------
# classical triangles


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _s2_row(n - 1) + (0,)
    return tuple(k * prev[k] + (prev[k - 1] if k else 0) for k in range(n + 1))


def stirling2(n: int, k: int) -> Fraction:
    """Second-kind numbers: x^n = sum_k stirling2(n,k) (x)_k."""
    _check_n(n)
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(_s2_row(n)[k])


def stirling1(n: int, k: int) -> Fraction:
    """Signed first-kind numbers: (x)_n = sum_k stirling1(n,k) x^k.

    Read off directly from the expanded product, which is the defining
    relation itself; the test suite cross-checks the usual recurrence
    against these values rather than the other way around.
    """
    _check_n(n)
    if k < 0 or k > n:
        return Fraction(0)
    return _deg_ff_poly(1, 1, n).coeff(k)


# --------------------------------------------------------------------------
# degenerate triangles (basis route)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2deg_num(a: int, b: int, n: int) -> tuple[tuple[int, ...], int]:
    """Row n of the degenerate second-kind triangle at lam = a/b as integer
    numerators over one denominator: (x)_{n,lam} rewritten in the (x)_k
    basis, its numerators times the integer rows of the classical triangle."""
    poly = _deg_ff_poly(a, b, n)
    return tuple(_combine(poly.num, [_s2_row(m) for m in range(len(poly.num))])), poly.den


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2deg_row(a: int, b: int, n: int) -> tuple[Fraction, ...]:
    num, den = _s2deg_num(a, b, n)
    return tuple(Fraction(c, den) for c in num)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s1deg_row(a: int, b: int, n: int) -> tuple[Fraction, ...]:
    """Row n of the degenerate first-kind triangle at lam = a/b: (x)_n =
    sum_j s(n, j) x^j rewritten through x^j = sum_k lam^(j-k) S2(j, k)
    (x)_{k,lam}, the identity _s2deg_num uses at lam = 1. Numerator k is
    sum_j s(n, j) b^(n-j) * S2(j, k) a^(j-k) b^k over b^n; 0 ** 0 == 1
    leaves s(n, k) at lam = 0."""
    num = _combine([c * b ** (n - j) for j, c in enumerate(_deg_ff_poly(1, 1, n).num)],
                   [[c * a ** (j - k) * b**k for k, c in enumerate(_s2_row(j))]
                    for j in range(n + 1)])
    return tuple(Fraction(c, b**n) for c in num)


def stirling2_deg(n: int, k: int, lam) -> Fraction:
    """Degenerate second kind: (x)_{n,lam} = sum_k stirling2_deg(n,k,lam) (x)_k."""
    _check_n(n)
    if k < 0 or k > n:
        return Fraction(0)
    return _s2deg_row(*_key(lam), n)[k]


def stirling1_deg(n: int, k: int, lam) -> Fraction:
    """Degenerate first kind: (x)_n = sum_k stirling1_deg(n,k,lam) (x)_{k,lam}."""
    _check_n(n)
    if k < 0 or k > n:
        return Fraction(0)
    return _s1deg_row(*_key(lam), n)[k]


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2deg_poly(a: int, b: int, n: int, l: int) -> Poly:
    return lincomb((comb(n, i), _s2deg_row(a, b, i)[l], _deg_ff_poly(a, b, n - i))
                   for i in range(l, n + 1))


def stirling2_deg_poly(n: int, l: int, lam) -> Poly:
    """Polynomial-argument degenerate second kind: the x-shifted triangle
    entry, as the finite binomial convolution of plain entries against
    deformed falling factorials of x."""
    _check_n(n)
    if l < 0 or l > n:
        return Poly()
    return _s2deg_poly(*_key(lam), n, l)


# --------------------------------------------------------------------------
# Bell-type families (basis route)


def bell_deg(n: int, lam) -> Poly:
    """sum_k stirling2_deg(n,k,lam) x^k: the truncated family at p = 0,
    where every weight C(k, k) is 1."""
    _check_n(n)
    return _trunc_poly(*_key(lam), 0, n)


def bell_classical(n: int) -> Fraction:
    """Number of set partitions of an n-set, as the row sum of the
    second-kind triangle."""
    _check_n(n)
    return Fraction(sum(_s2_row(n)))


@lru_cache(maxsize=MEMO_MAXSIZE)
def _trunc_poly(a: int, b: int, p: int, n: int) -> Poly:
    # entry k over C(k+p,k): one integer row over den times the lcm of the binomials
    num, den = _s2deg_num(a, b, n)
    weights = [comb(k + p, k) for k in range(n + 1)]
    common = lcm(*weights)
    return _poly([c * (common // w) for c, w in zip(num, weights)], den * common)


def trunc_bell_deg(n: int, p: int, lam) -> Poly:
    """sum_k stirling2_deg(n,k,lam) / C(k+p,k) * x^k."""
    _check_np(n, p)
    return _trunc_poly(*_key(lam), p, n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _trunc_mod_poly(a: int, b: int, p: int, n: int) -> Poly:
    return lincomb((Fraction(1, comb(k + p, p)), _s2deg_poly(a, b, n, k)) for k in range(n + 1))


def trunc_mod_bell_deg(n: int, p: int, lam) -> Poly:
    """sum_k stirling2_deg_poly(n,k,lam) / C(k+p,p)."""
    _check_np(n, p)
    return _trunc_mod_poly(*_key(lam), p, n)


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def _check_np(n: int, p: int) -> None:
    _check_n(n)
    if p < 0:
        raise ValueError(f"truncation index p must be >= 0, got {p}")


def _check_nr(n: int, r: int) -> None:
    if n < 0 or r < 0:
        raise ValueError(f"need n >= 0 and r >= 0, got n={n}, r={r}")


# --------------------------------------------------------------------------
# degenerate Bernoulli (series route; this family is defined by its
# generating function, so there is no separate basis construction)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _bern_nums(a: int, b: int, r: int, depth: int) -> tuple[Fraction, ...]:
    """n! times the t^n coefficients of (t / (deformed exp - 1))**r, n <= depth."""
    s = (Fps.t(depth + 1) / (deg_exp(1, Fraction(a, b), depth + 1) - 1)) ** r
    return tuple(s.egf_coeff(m) for m in range(s.order + 1))


@lru_cache(maxsize=MEMO_MAXSIZE)
def _bern_polys(a: int, b: int, r: int, depth: int) -> tuple[Poly, ...]:
    """The series times the deformed exponential of x, read as the binomial
    convolution sum_m C(n, m) beta_m (x)_{n-m,lam} of _bern_nums."""
    nums = _bern_nums(a, b, r, depth)
    return tuple(lincomb((comb(n, m), nums[m], _deg_ff_poly(a, b, n - m)) for m in range(n + 1))
                 for n in range(depth + 1))


def deg_bernoulli_num(n: int, r: int, lam) -> Fraction:
    """Order-r degenerate Bernoulli number (the polynomial at x = 0)."""
    _check_nr(n, r)
    # coefficient n is the same at every depth >= n, so one series of depth
    # n | 15 serves each block of 16 values of n
    return _bern_nums(*_key(lam), r, n | 15)[n]


def deg_bernoulli(n: int, r: int, lam) -> Poly:
    """Order-r degenerate Bernoulli polynomial in x; r = 0 degenerates to
    the deformed falling factorial of x."""
    _check_nr(n, r)
    return _bern_polys(*_key(lam), r, n | 15)[n]


# --------------------------------------------------------------------------
# series-route cross constructions


@lru_cache(maxsize=MEMO_MAXSIZE)
def _z_pow(a: int, b: int, k: int, order: int) -> Fps:
    """z**k with z the deformed exponential minus one."""
    if k == 0:
        return Fps.constant(1, order)
    if k == 1:
        return deg_exp(1, Fraction(a, b), order) - 1
    return _z_pow(a, b, k - 1, order) * _z_pow(a, b, 1, order)


def _series_depth(n: int, order: int) -> int:
    # callers may share one deeper series across many n values
    if order < n:
        raise ValueError(f"series order {order} cannot resolve coefficient {n}")
    return order


@lru_cache(maxsize=MEMO_MAXSIZE)
def _trunc_gf(a: int, b: int, p: int, order: int) -> tuple[Poly, ...]:
    """t^m coefficients, as polynomials in x, of the truncated family's
    generating series p! * sum_k x^k (deformed exp - 1)^k / (k+p)!; the
    k-sum is finite at each order because the k-th term has valuation k.
    At p = 0 this is exp(x z), the plain family's series. The x^k
    coefficient of t^m is z^k.num[m] over z^k.den (k+p)!/p!, so every t^m
    coefficient is one set of integers over the lcm of those denominators."""
    pows = [_z_pow(a, b, k, order) for k in range(order + 1)]
    dens = [z.den * perm(k + p, k) for k, z in enumerate(pows)]
    common = lcm(*dens)
    scales = [common // d for d in dens]
    return tuple(_poly([pows[k].num[m] * scales[k] for k in range(m + 1)], common)
                 for m in range(order + 1))


def trunc_bell_deg_egf(n: int, p: int, lam, order: int) -> Poly:
    _check_np(n, p)
    return _trunc_gf(*_key(lam), p, _series_depth(n, order))[n] * factorial(n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _mod_gf(a: int, b: int, p: int, order: int) -> tuple[Poly, ...]:
    """t^m coefficients of the modified truncated family's generating
    series, built by the division pipeline: p! (exp(z) - partial sum) / z^p
    times the deformed exponential of x, with z the deformed exp minus 1."""
    deep = order + p
    num = _z_pow(a, b, 1, deep).exp()
    for l in range(p):
        num = num - _z_pow(a, b, l, deep) * Fraction(1, factorial(l))
    return times_deg_exp_x((num * factorial(p)) / _z_pow(a, b, p, deep), Fraction(a, b))


def trunc_mod_bell_deg_egf(n: int, p: int, lam, order: int) -> Poly:
    _check_np(n, p)
    return _mod_gf(*_key(lam), p, _series_depth(n, order))[n] * factorial(n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2degpoly_gf(a: int, b: int, l: int, order: int) -> tuple[Poly, ...]:
    """t^m coefficients of z^l / l! times the deformed exponential of x."""
    return times_deg_exp_x(_z_pow(a, b, l, order) * Fraction(1, factorial(l)), Fraction(a, b))


def stirling2_deg_poly_egf(n: int, l: int, lam, order: int) -> Poly:
    _check_n(n)
    if l < 0 or l > n:
        return Poly()
    return _s2degpoly_gf(*_key(lam), l, _series_depth(n, order))[n] * factorial(n)


# --------------------------------------------------------------------------
# construction tags: which route filled which public function. Checks and
# tests assert that the two sides of a comparison carry different tags.

CONSTRUCTION = {
    "stirling1": "product-expansion",
    "stirling2": "recurrence",
    "stirling1_deg": "basis-solve",
    "stirling2_deg": "basis-solve",
    "stirling2_deg_poly": "finite-sum",
    "bell_classical": "row-sum",
    "bell_deg": "basis-solve",
    "trunc_bell_deg": "basis-solve",
    "trunc_mod_bell_deg": "finite-sum",
    "deg_bernoulli": "series-extraction",
    "deg_bernoulli_num": "series-extraction",
    "stirling2_deg_poly_egf": "series-extraction",
    "trunc_bell_deg_egf": "series-extraction",
    "trunc_mod_bell_deg_egf": "series-extraction",
}


# --------------------------------------------------------------------------
# tables


class Family(str, Enum):
    S1 = "S1"
    S2 = "S2"
    S1deg = "S1deg"
    S2deg = "S2deg"
    S2degPoly = "S2degPoly"
    BernoulliDeg = "BernoulliDeg"
    BellDeg = "BellDeg"
    TruncBellDeg = "TruncBellDeg"
    TruncModBellDeg = "TruncModBellDeg"
    BellClassical = "BellClassical"


@dataclass(frozen=True)
class FamilySpec:
    """How a family's table is filled: `source` is the public function that
    computes one entry, source(n, [k,] *params), and its name is the
    entry's CONSTRUCTION key. A triangular family's second parameter is the
    column index. build_table calls `source` through its module-level name,
    so rebinding the function reaches the tables too; params are read from
    the function given here."""

    source: Callable
    triangular: bool = False

    @property
    def params(self) -> tuple:
        """The source's parameter names after n (and the column index), each
        one of lam, p and r."""
        return tuple(inspect.signature(self.source).parameters)[2 if self.triangular else 1:]


FAMILIES: dict[Family, FamilySpec] = {
    Family.S1: FamilySpec(stirling1, triangular=True),
    Family.S2: FamilySpec(stirling2, triangular=True),
    Family.S1deg: FamilySpec(stirling1_deg, triangular=True),
    Family.S2deg: FamilySpec(stirling2_deg, triangular=True),
    Family.S2degPoly: FamilySpec(stirling2_deg_poly, triangular=True),
    Family.BernoulliDeg: FamilySpec(deg_bernoulli),
    Family.BellDeg: FamilySpec(bell_deg),
    Family.TruncBellDeg: FamilySpec(trunc_bell_deg),
    Family.TruncModBellDeg: FamilySpec(trunc_mod_bell_deg),
    Family.BellClassical: FamilySpec(bell_classical),
}

# what build_table says a family takes or lacks, per parameter
_PARAM_NAMES = {"lam": "a lambda parameter", "p": "a truncation index p", "r": "an order r"}


@dataclass(frozen=True)
class SequenceTable:
    """One computed family: triangular families hold one row per n with
    entries k = 0..n; linear families hold one entry per n. Entries are
    Fraction or Poly depending on the family."""

    family: Family
    lam: Fraction | None
    p: int | None
    r: int | None
    n_max: int
    values: tuple
    construction: str

    @property
    def triangular(self) -> bool:
        return FAMILIES[self.family].triangular

    def value(self, n: int, k: int | None = None):
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must satisfy 0 <= n <= n_max = {self.n_max}, got {n}")
        if self.triangular:
            if k is None:
                raise ValueError(f"family {self.family.value} is triangular; pass k")
            if not 0 <= k <= n:
                raise ValueError(f"k must satisfy 0 <= k <= n, got {k}")
            return self.values[n][k]
        if k is not None:
            raise ValueError(f"family {self.family.value} is not triangular")
        return self.values[n]

    def to_json_dict(self) -> dict:
        if self.triangular:
            vals = [[_entry_str(v) for v in row] for row in self.values]
        else:
            vals = [_entry_str(v) for v in self.values]
        return {
            "family": self.family.value,
            "lambda": None if self.lam is None else format_rational(self.lam),
            "p": self.p,
            "r": self.r,
            "n_max": self.n_max,
            "construction": self.construction,
            "values": vals,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv_text(self) -> str:
        """RFC-4180-style quoting, one row per n; triangular tables pad the
        region above the diagonal with empty cells."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if self.triangular:
            writer.writerow(["n"] + [f"k={k}" for k in range(self.n_max + 1)])
            for n, row in enumerate(self.values):
                writer.writerow([n] + [_entry_str(v) for v in row] + [""] * (self.n_max - n))
        else:
            writer.writerow(["n", "value"])
            for n, v in enumerate(self.values):
                writer.writerow([n, _entry_str(v)])
        return buf.getvalue()


def _entry_str(v) -> str:
    return v.to_string() if isinstance(v, Poly) else format_rational(v)


def build_table(
    family: Family,
    n_max: int,
    lam=None,
    p: int | None = None,
    r: int | None = None,
) -> SequenceTable:
    """Compute a family table for n = 0..n_max with validated parameters."""
    family = Family(family)
    spec = FAMILIES[family]
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    given = {"lam": lam, "p": p, "r": r}
    params = spec.params
    for name, what in _PARAM_NAMES.items():
        takes = name in params
        if (given[name] is not None) != takes:
            need = "requires" if takes else "does not take"
            raise ValueError(f"family {family.value} {need} {what}")
    if p is not None and p < 0:
        raise ValueError(f"truncation index p must be >= 0, got {p}")
    if r is not None and r < 0:
        raise ValueError(f"order r must be >= 0, got {r}")
    lam = None if lam is None else as_fraction(lam)
    # looked up by name on each build, so the table follows the module's
    # current binding of the function
    source = spec.source.__name__
    fn = globals()[source]
    args = [{"lam": lam, "p": p, "r": r}[name] for name in params]
    if spec.triangular:
        rows = [tuple(fn(n, k, *args) for k in range(n + 1)) for n in range(n_max + 1)]
    else:
        rows = [fn(n, *args) for n in range(n_max + 1)]
    return SequenceTable(
        family=family,
        lam=lam,
        p=p,
        r=r,
        n_max=n_max,
        values=tuple(rows),
        construction=CONSTRUCTION[source],
    )

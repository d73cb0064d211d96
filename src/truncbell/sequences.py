"""Stirling-type triangles and Bell-type polynomial families, exactly.

Two constructions run side by side for every family that admits them:

* a basis route: expand the defining product as a Poly and rewrite it in
  the target basis by exact triangular elimination (or, for the
  monomial-to-falling direction, through the classical triangle);
* a series route: extract factorial-normalized coefficients from the
  family's generating function with the Fps machinery.

The verification layer pits one route against the other, so the two must
stay genuinely independent: the basis route never touches Fps, and the
series route never reads a triangle built here. CONSTRUCTION records which
route each public function takes; tables carry the tag of the function
that filled them.

The classical second-kind triangle is filled by the standard two-term
recurrence. That recurrence is an implementation choice made here, not a
consequence of anything else in this module, and the test suite validates
it against brute-force set-partition enumeration before anything builds
on it.

Each table family is one FAMILIES entry (plus its Family member): the
entry names the function that fills the table, the parameters it takes,
and its shape, so adding a family means adding one entry.

All functions memoize whole rows keyed by (family parameters, n), except
the degenerate Bernoulli tables, which are keyed by (lambda, r) and grow in
depth on demand; repeated lookups are cheap and referentially transparent,
and concurrent readers at worst duplicate a computation of the same value.
Every memo holds at most MEMO_MAXSIZE entries, evicting the least recently
used, so memory stays bounded however many parameters a process sees; one
suite run on the n_max=20, order=34 grid fills the largest to about 1000.

Memos sit below the public functions, never above them: a public function
validates its arguments and reads a private memoized helper, helpers read
only other helpers, and callers (the checks in verify) call the public
function for every entry they need. The negative controls of the test
suite perturb a public function and expect every check that reads it to
fail; a memo above it would hand a warm caller the unperturbed values. The
one exception is build_table's memo of finished tables, which no check
reads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactnum import binomial, format_rational, parse_rational
from .fps import Fps, Poly, deg_exp, deg_log, lift_to_poly_ring

# the entry bound of every memo in the package (verify reads it too)
MEMO_MAXSIZE = 4096

# --------------------------------------------------------------------------
# defining products


@lru_cache(maxsize=MEMO_MAXSIZE)
def _ff_poly(n: int) -> Poly:
    """(x)_n = x (x-1) ... (x-n+1) as a Poly."""
    if n == 0:
        return Poly.one()
    return _ff_poly(n - 1) * Poly((-(n - 1), 1))


@lru_cache(maxsize=MEMO_MAXSIZE)
def _deg_ff_poly(lam: Fraction, n: int) -> Poly:
    """(x)_{n,lam} = x (x-lam) ... (x-(n-1)lam) as a Poly."""
    if n == 0:
        return Poly.one()
    return _deg_ff_poly(lam, n - 1) * Poly((-(n - 1) * lam, 1))


def falling_factorial_poly(n: int) -> Poly:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _ff_poly(n)


def deg_falling_factorial_poly(n: int, lam) -> Poly:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _deg_ff_poly(Fraction(lam), n)


# --------------------------------------------------------------------------
# classical triangles


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2_row(n: int) -> tuple[Fraction, ...]:
    if n == 0:
        return (Fraction(1),)
    prev = _s2_row(n - 1)
    row = []
    for k in range(n + 1):
        v = Fraction(0)
        if k <= n - 1:
            v += k * prev[k]
        if k >= 1:
            v += prev[k - 1]
        row.append(v)
    return tuple(row)


def stirling2(n: int, k: int) -> Fraction:
    """Second-kind numbers: x^n = sum_k stirling2(n,k) (x)_k."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return _s2_row(n)[k]


def stirling1(n: int, k: int) -> Fraction:
    """Signed first-kind numbers: (x)_n = sum_k stirling1(n,k) x^k.

    Read off directly from the expanded product, which is the defining
    relation itself; the test suite cross-checks the usual recurrence
    against these values rather than the other way around.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return _ff_poly(n).coeff(k)


# --------------------------------------------------------------------------
# basis conversions


def _monomial_to_falling(coeffs) -> list[Fraction]:
    """Rewrite sum c_m x^m in the (x)_k basis via the classical triangle."""
    out = [Fraction(0)] * len(coeffs)
    for m, c in enumerate(coeffs):
        if not c:
            continue
        row = _s2_row(m)
        for k in range(m + 1):
            out[k] += c * row[k]
    return out


def _to_deg_falling_basis(poly: Poly, lam: Fraction) -> list[Fraction]:
    """Coefficients of poly in the (x)_{k,lam} basis.

    Triangular elimination: the basis element of degree d is monic, so the
    leading coefficient of the remainder is the next basis coefficient.
    """
    if poly.is_zero:
        return []
    out = [Fraction(0)] * (poly.degree + 1)
    work = poly
    while not work.is_zero:
        d = work.degree
        c = work.coeff(d)
        out[d] = c
        work = work - _deg_ff_poly(lam, d) * c
    return out


# --------------------------------------------------------------------------
# degenerate triangles (basis route)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2deg_row(lam: Fraction, n: int) -> tuple[Fraction, ...]:
    return tuple(_monomial_to_falling(_padded_coeffs(_deg_ff_poly(lam, n), n)))


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s1deg_row(lam: Fraction, n: int) -> tuple[Fraction, ...]:
    out = _to_deg_falling_basis(_ff_poly(n), lam)
    return tuple(out + [Fraction(0)] * (n + 1 - len(out)))


def _padded_coeffs(poly: Poly, n: int) -> list[Fraction]:
    cs = list(poly.coeffs)
    return cs + [Fraction(0)] * (n + 1 - len(cs))


def stirling2_deg(n: int, k: int, lam) -> Fraction:
    """Degenerate second kind: (x)_{n,lam} = sum_k stirling2_deg(n,k,lam) (x)_k."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return _s2deg_row(Fraction(lam), n)[k]


def stirling1_deg(n: int, k: int, lam) -> Fraction:
    """Degenerate first kind: (x)_n = sum_k stirling1_deg(n,k,lam) (x)_{k,lam}."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return _s1deg_row(Fraction(lam), n)[k]


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2deg_poly(lam: Fraction, n: int, l: int) -> Poly:
    acc = Poly.zero()
    for i in range(l, n + 1):
        c = binomial(n, i) * _s2deg_row(lam, i)[l]
        if c:
            acc = acc + _deg_ff_poly(lam, n - i) * c
    return acc


def stirling2_deg_poly(n: int, l: int, lam) -> Poly:
    """Polynomial-argument degenerate second kind: the x-shifted triangle
    entry, as the finite binomial convolution of plain entries against
    deformed falling factorials of x."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if l < 0 or l > n:
        return Poly.zero()
    return _s2deg_poly(Fraction(lam), n, l)


# --------------------------------------------------------------------------
# Bell-type families (basis route)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _bell_deg_poly(lam: Fraction, n: int) -> Poly:
    return Poly(_s2deg_row(lam, n))


def bell_deg(n: int, lam) -> Poly:
    """sum_k stirling2_deg(n,k,lam) x^k."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _bell_deg_poly(Fraction(lam), n)


def bell_poly_classical(n: int) -> Poly:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Poly(_s2_row(n))


def bell_classical(n: int) -> Fraction:
    """Number of set partitions of an n-set, as the row sum of the
    second-kind triangle."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(_s2_row(n), Fraction(0))


@lru_cache(maxsize=MEMO_MAXSIZE)
def _trunc_poly(lam: Fraction, p: int, n: int) -> Poly:
    return Poly(c / binomial(k + p, k) for k, c in enumerate(_s2deg_row(lam, n)))


def trunc_bell_deg(n: int, p: int, lam) -> Poly:
    """sum_k stirling2_deg(n,k,lam) / C(k+p,k) * x^k."""
    _check_np(n, p)
    return _trunc_poly(Fraction(lam), p, n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _trunc_mod_poly(lam: Fraction, p: int, n: int) -> Poly:
    acc = Poly.zero()
    for k in range(n + 1):
        acc = acc + _s2deg_poly(lam, n, k) * (Fraction(1) / binomial(k + p, p))
    return acc


def trunc_mod_bell_deg(n: int, p: int, lam) -> Poly:
    """sum_k stirling2_deg_poly(n,k,lam) / C(k+p,p)."""
    _check_np(n, p)
    return _trunc_mod_poly(Fraction(lam), p, n)


def _check_np(n: int, p: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p < 0:
        raise ValueError(f"truncation index p must be >= 0, got {p}")


# --------------------------------------------------------------------------
# degenerate Bernoulli (series route; this family is defined by its
# generating function, so there is no separate basis construction)


def _bern_base_pow(lam: Fraction, r: int, depth: int) -> Fps:
    """(t / (deformed exp - 1))**r through t^depth."""
    base = Fps.t(depth + 1) / (deg_exp(Fraction(1), lam, depth + 1) - 1)
    return base**r


def _deeper(table: list, n: int) -> int:
    """Depth to rebuild a coefficient table at so that it reaches n.
    Coefficient n is the same at every depth >= n, so a table only grows;
    doubling keeps a run of increasing n to a few rebuilds."""
    return max(n, 2 * len(table) - 1)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _bern_num_table(lam: Fraction, r: int) -> list:
    # one list per (lam, r), extended in place when a deeper n is asked for
    return []


@lru_cache(maxsize=MEMO_MAXSIZE)
def _bern_poly_table(lam: Fraction, r: int) -> list:
    return []


def deg_bernoulli_num(n: int, r: int, lam) -> Fraction:
    """Order-r degenerate Bernoulli number (the polynomial at x = 0)."""
    if n < 0 or r < 0:
        raise ValueError(f"need n >= 0 and r >= 0, got n={n}, r={r}")
    lam = Fraction(lam)
    table = _bern_num_table(lam, r)
    if n >= len(table):
        s = _bern_base_pow(lam, r, _deeper(table, n))
        table[:] = [s.egf_coeff(m) for m in range(s.order + 1)]
    return table[n]


def deg_bernoulli(n: int, r: int, lam) -> Poly:
    """Order-r degenerate Bernoulli polynomial in x; r = 0 degenerates to
    the deformed falling factorial of x."""
    if n < 0 or r < 0:
        raise ValueError(f"need n >= 0 and r >= 0, got n={n}, r={r}")
    lam = Fraction(lam)
    table = _bern_poly_table(lam, r)
    if n >= len(table):
        depth = _deeper(table, n)
        gf = lift_to_poly_ring(_bern_base_pow(lam, r, depth)) * deg_exp(Poly.x(), lam, depth)
        table[:] = [gf.egf_coeff(m) for m in range(depth + 1)]
    return table[n]


# --------------------------------------------------------------------------
# series-route cross constructions


@lru_cache(maxsize=MEMO_MAXSIZE)
def _z_series(lam: Fraction, order: int) -> Fps:
    return deg_exp(Fraction(1), lam, order) - 1


@lru_cache(maxsize=MEMO_MAXSIZE)
def _z_pow(lam: Fraction, k: int, order: int) -> Fps:
    if k == 0:
        return Fps.constant(Fraction(1), order)
    return _z_pow(lam, k - 1, order) * _z_series(lam, order)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _log_pow(lam: Fraction, k: int, order: int) -> Fps:
    if k == 0:
        return Fps.constant(Fraction(1), order)
    return _log_pow(lam, k - 1, order) * deg_log(lam, order)


def _series_depth(n: int, order) -> int:
    # callers may share one deeper series across many n values
    depth = n if order is None else order
    if depth < n:
        raise ValueError(f"series order {depth} cannot resolve coefficient {n}")
    return depth


def stirling2_deg_egf(n: int, k: int, lam, order: int | None = None) -> Fraction:
    """Series route: n-th factorial-normalized coefficient of the k-th
    power of the deformed exponential minus one, over k!."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    depth = _series_depth(n, order)
    return _z_pow(Fraction(lam), k, depth).egf_coeff(n) / factorial(k)


def stirling1_deg_egf(n: int, k: int, lam, order: int | None = None) -> Fraction:
    """Series route via powers of the deformed logarithm."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    depth = _series_depth(n, order)
    return _log_pow(Fraction(lam), k, depth).egf_coeff(n) / factorial(k)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _bell_gf(lam: Fraction, order: int) -> Fps:
    return (lift_to_poly_ring(_z_series(lam, order)) * Poly.x()).exp()


def bell_deg_egf(n: int, lam, order: int | None = None) -> Poly:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _bell_gf(Fraction(lam), _series_depth(n, order)).egf_coeff(n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _trunc_gf(lam: Fraction, p: int, order: int) -> Fps:
    """Generating series of the truncated family over the Poly ring:
    p! * sum_k x^k (deformed exp - 1)^k / (k+p)!; the k-sum is finite at
    each order because the k-th term has valuation k."""
    pows = [_z_pow(lam, k, order) for k in range(order + 1)]
    coeffs = []
    for m in range(order + 1):
        coeffs.append(
            Poly(pows[k].coeff(m) * Fraction(factorial(p), factorial(k + p)) for k in range(m + 1))
        )
    return Fps(tuple(coeffs))


def trunc_bell_deg_egf(n: int, p: int, lam, order: int | None = None) -> Poly:
    _check_np(n, p)
    return _trunc_gf(Fraction(lam), p, _series_depth(n, order)).egf_coeff(n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _mod_gf(lam: Fraction, p: int, order: int) -> Fps:
    """Generating series of the modified truncated family over the Poly
    ring, built by the division pipeline: p! (exp(z) - partial sum) / z^p
    times the deformed exponential of x, with z the deformed exp minus 1."""
    deep = order + p
    z = _z_series(lam, deep)
    num = z.exp()
    for l in range(p):
        num = num - _z_pow(lam, l, deep) * Fraction(1, factorial(l))
    g = (num * factorial(p)) / _z_pow(lam, p, deep)
    return lift_to_poly_ring(g) * deg_exp(Poly.x(), lam, order)


def trunc_mod_bell_deg_egf(n: int, p: int, lam, order: int | None = None) -> Poly:
    _check_np(n, p)
    return _mod_gf(Fraction(lam), p, _series_depth(n, order)).egf_coeff(n)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _s2degpoly_gf(lam: Fraction, l: int, order: int) -> Fps:
    g = _z_pow(lam, l, order) * Fraction(1, factorial(l))
    return lift_to_poly_ring(g) * deg_exp(Poly.x(), lam, order)


def stirling2_deg_poly_egf(n: int, l: int, lam, order: int | None = None) -> Poly:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if l < 0 or l > n:
        return Poly.zero()
    return _s2degpoly_gf(Fraction(lam), l, _series_depth(n, order)).egf_coeff(n)


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
    "bell_poly_classical": "recurrence",
    "bell_deg": "basis-solve",
    "trunc_bell_deg": "basis-solve",
    "trunc_mod_bell_deg": "finite-sum",
    "deg_bernoulli": "series-extraction",
    "deg_bernoulli_num": "series-extraction",
    "stirling1_deg_egf": "series-extraction",
    "stirling2_deg_egf": "series-extraction",
    "stirling2_deg_poly_egf": "series-extraction",
    "bell_deg_egf": "series-extraction",
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
    """How a family's table is filled: `source` names the public function
    that computes one entry (its CONSTRUCTION key), called as
    source(n, [k,] *params) with `params` in its positional order."""

    source: str
    params: tuple = ()  # drawn from "lam", "p", "r"
    triangular: bool = False
    poly_valued: bool = False


FAMILIES: dict[Family, FamilySpec] = {
    Family.S1: FamilySpec("stirling1", triangular=True),
    Family.S2: FamilySpec("stirling2", triangular=True),
    Family.S1deg: FamilySpec("stirling1_deg", ("lam",), triangular=True),
    Family.S2deg: FamilySpec("stirling2_deg", ("lam",), triangular=True),
    Family.S2degPoly: FamilySpec("stirling2_deg_poly", ("lam",), triangular=True,
                                 poly_valued=True),
    Family.BernoulliDeg: FamilySpec("deg_bernoulli", ("r", "lam"), poly_valued=True),
    Family.BellDeg: FamilySpec("bell_deg", ("lam",), poly_valued=True),
    Family.TruncBellDeg: FamilySpec("trunc_bell_deg", ("p", "lam"), poly_valued=True),
    Family.TruncModBellDeg: FamilySpec("trunc_mod_bell_deg", ("p", "lam"), poly_valued=True),
    Family.BellClassical: FamilySpec("bell_classical"),
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "SequenceTable":
        family = Family(data["family"])
        spec = FAMILIES[family]
        parse = Poly.from_string if spec.poly_valued else parse_rational
        if spec.triangular:
            values = tuple(tuple(parse(v) for v in row) for row in data["values"])
        else:
            values = tuple(parse(v) for v in data["values"])
        return cls(
            family=family,
            lam=None if data["lambda"] is None else parse_rational(data["lambda"]),
            p=data["p"],
            r=data["r"],
            n_max=data["n_max"],
            values=values,
            construction=data["construction"],
        )

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
    """Compute a family table for n = 0..n_max with validated parameters.

    Memoized on the validated key, so equal keys return the same object."""
    family = Family(family)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    given = {"lam": lam, "p": p, "r": r}
    for name, what in _PARAM_NAMES.items():
        takes = name in FAMILIES[family].params
        if (given[name] is not None) != takes:
            need = "requires" if takes else "does not take"
            raise ValueError(f"family {family.value} {need} {what}")
    if lam is not None:
        lam = Fraction(lam)
    if p is not None and p < 0:
        raise ValueError(f"truncation index p must be >= 0, got {p}")
    if r is not None and r < 0:
        raise ValueError(f"order r must be >= 0, got {r}")
    return _table_cached(family, n_max, lam, p, r)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _table_cached(family: Family, n_max: int, lam, p, r) -> SequenceTable:
    spec = FAMILIES[family]
    # looked up by name on each build, so the table follows the module's
    # current binding of the function
    fn = globals()[spec.source]
    args = [{"lam": lam, "p": p, "r": r}[name] for name in spec.params]
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
        construction=CONSTRUCTION[spec.source],
    )

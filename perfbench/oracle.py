"""Reference values for the correctness gate, computed without the library.

Scalars are Fractions and polynomials in x are tuples of Fraction
coefficients, ascending, with trailing zeros trimmed (the zero polynomial
is the empty tuple). The triangles come from their two-term recurrences,

    S2deg(n+1, k) = S2deg(n, k-1) + (k - n*lam) * S2deg(n, k)
    S1deg(n+1, k) = S1deg(n, k-1) + (k*lam - n) * S1deg(n, k)

with the classical triangles at lam = 0. The library fills the triangles by
basis elimination instead, so the two meet only in their results. The
polynomial families are sums over the triangle rows, and the degenerate
Bernoulli polynomials come from a small series computation of
(t / (e_lam(t) - 1))^r * e_lam^x(t) on plain coefficient lists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from workloads import POLY_VALUED, TRIANGULAR


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pscale(a: tuple, c) -> tuple:
    return _trim(x * c for x in a)


def peval(a: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def deg_ff(lam: Fraction, n: int) -> tuple:
    """Coefficients of x (x - lam) ... (x - (n-1) lam)."""
    cs = [Fraction(1)]
    for j in range(n):
        shift = -j * lam
        nxt = [Fraction(0)] * (len(cs) + 1)
        for i, c in enumerate(cs):
            nxt[i + 1] += c
            nxt[i] += c * shift
        cs = nxt
    return _trim(cs)


@lru_cache(maxsize=None)
def s2deg_rows(lam: Fraction, n_max: int) -> tuple:
    rows = [(Fraction(1),)]
    for n in range(n_max):
        prev = rows[-1] + (Fraction(0),)
        rows.append(tuple((prev[k - 1] if k else 0) + (k - n * lam) * prev[k]
                          for k in range(n + 2)))
    return tuple(rows)


@lru_cache(maxsize=None)
def s1deg_rows(lam: Fraction, n_max: int) -> tuple:
    rows = [(Fraction(1),)]
    for n in range(n_max):
        prev = rows[-1] + (Fraction(0),)
        rows.append(tuple((prev[k - 1] if k else 0) + (k * lam - n) * prev[k]
                          for k in range(n + 2)))
    return tuple(rows)


def s2deg_poly(lam: Fraction, n: int, l: int) -> tuple:
    """sum_i C(n, i) S2deg(i, l) (x)_{n-i, lam}."""
    rows = s2deg_rows(lam, n)
    acc = ()
    for i in range(l, n + 1):
        acc = _padd(acc, _pscale(deg_ff(lam, n - i), comb(n, i) * rows[i][l]))
    return acc


@lru_cache(maxsize=None)
def bernoulli_polys(lam: Fraction, r: int, n_max: int) -> tuple:
    """n! [t^n] (t / (e_lam(t) - 1))^r e_lam^x(t) for n = 0..n_max."""
    a, one_ff = [], Fraction(1)
    for m in range(n_max + 1):  # (e_lam(t) - 1) / t = sum (1)_{m+1,lam} / (m+1)! t^m
        one_ff *= 1 - m * lam
        a.append(one_ff / factorial(m + 1))
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(a[j] * b[m - j] for j in range(1, m + 1)))
    c = [Fraction(1)] + [Fraction(0)] * n_max
    for _ in range(r):
        c = [sum(c[j] * b[m - j] for j in range(m + 1)) for m in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        acc = ()
        for j in range(n + 1):
            acc = _padd(acc, _pscale(deg_ff(lam, n - j), c[j] * Fraction(factorial(n), factorial(n - j))))
        out.append(acc)
    return tuple(out)


def table(family: str, n_max: int, lam=None, p=None, r=None) -> tuple:
    """Values of one family table: rows of entries for triangular families,
    one entry per n otherwise."""
    lam = Fraction(0) if lam is None else Fraction(lam)
    if family in ("S2", "S2deg"):
        return s2deg_rows(lam, n_max)
    if family in ("S1", "S1deg"):
        return s1deg_rows(lam, n_max)
    if family == "S2degPoly":
        return tuple(tuple(s2deg_poly(lam, n, l) for l in range(n + 1)) for n in range(n_max + 1))
    if family == "BernoulliDeg":
        return bernoulli_polys(lam, r, n_max)
    rows = s2deg_rows(lam, n_max)
    if family == "BellClassical":
        return tuple(sum(row) for row in rows)
    if family == "BellDeg":
        return tuple(_trim(row) for row in rows)
    if family == "TruncBellDeg":
        return tuple(_trim(c / comb(k + p, k) for k, c in enumerate(row)) for row in rows)
    if family == "TruncModBellDeg":
        out = []
        for n in range(n_max + 1):
            acc = ()
            for k in range(n + 1):
                acc = _padd(acc, _pscale(s2deg_poly(lam, n, k), Fraction(1, comb(k + p, p))))
            out.append(acc)
        return tuple(out)
    raise ValueError(f"unknown family {family!r}")


def canon(value) -> str:
    """Canonical text of a value or nested tuple of values, for digests."""
    if isinstance(value, tuple):
        return "(" + ",".join(canon(v) for v in value) + ")"
    return str(Fraction(value))


def digest(value) -> str:
    return hashlib.sha256(canon(value).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# reading command-line output


def parse_poly(text: str) -> tuple:
    """Read "c0 + c1*x + c2*x^2" (zero terms omitted, "0" for zero)."""
    text = text.strip()
    if text == "0":
        return ()
    coeffs: dict[int, Fraction] = {}
    for term in text.split(" + "):
        head, _, power = term.partition("*")
        k = 0 if not power else 1 if power == "x" else int(power.removeprefix("x^"))
        if k in coeffs or (power and not power.startswith("x")):
            raise ValueError(f"bad polynomial term {term!r}")
        coeffs[k] = Fraction(head)
    return _trim(coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1))


def _parse_entry(text: str, family: str):
    return parse_poly(text) if family in POLY_VALUED else Fraction(text)


def parse_table(text: str, op: dict) -> tuple:
    """Values of a `table` command's CSV or JSON output."""
    family, tri = op["family"], op["family"] in TRIANGULAR
    if op["fmt"] == "json":
        data = json.loads(text)
        if data["family"] != family or data["n_max"] != op["n"]:
            raise ValueError("table header does not match the query")
        cells = data["values"]
    else:
        rows = list(csv.reader(io.StringIO(text)))[1:]
        cells = [row[1:n + 2] if tri else row[1] for n, row in enumerate(rows)]
    if tri:
        return tuple(tuple(_parse_entry(c, family) for c in row) for row in cells)
    return tuple(_parse_entry(c, family) for c in cells)


def expected(op: dict):
    """The value a cli_lookup op must print, in the parsed representation."""
    values = table(op["family"], op["n"], op["lam"], op["p"], op["r"])
    if op["cmd"] == "table":
        return values
    v = values[op["n"]] if op["k"] is None else values[op["n"]][op["k"]]
    return v if op["x"] is None else peval(v, Fraction(op["x"]))


def parse_output(text: str, op: dict):
    if op["cmd"] == "table":
        return parse_table(text, op)
    if op["family"] in POLY_VALUED and op["x"] is None:
        return parse_poly(text)
    return Fraction(text.strip())

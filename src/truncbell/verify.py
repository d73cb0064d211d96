"""Identity verification engine.

Each registered check compares two independently constructed computations
of the same quantity. Exact checks run no float code, guards included: they
demand equality of rationals or rational-coefficient polynomials, carry no
tolerance, fail on one unequal coefficient and report the mismatch count as
max_residual. Numeric checks evaluate an analytic representation
(truncated double series, contour quadrature, lattice moments) in double
precision with the kernels of numeric, and compare against the exact
rational value, which is converted to float only at comparison time.

Verdicts are plain data with a stable JSON rendering; identical parameters
must reproduce a suite report byte for byte, and no check reads a seed.

Every counted verdict checks a claim fixed before the check runs. One
statement-versus-derivation conflict is adjudicated at runtime rather
than assumed: one call of the weighted-convolution check builds its left
side and convolution once and emits a verdict for each exponent variant
of its correction sum (ids T6 and T6k; excluded from exit accounting and
summarized in the suite's single adjudication record). The one-step
recurrence check counts the raised-index reading of its middle term, the
one that holds on every grid measured, and reports the printed reading
informationally.

Every check is one entry of the CHECKS registry, which states the ids it
emits, its function, its lowest truncation index p, whether it needs
|lambda| < 1 and whether it is counted. What a check reads is stated once,
by its function's parameters: each parameter after lambda names one of
p, n_max, order, cfg, k and x_points, and the runner passes the values so
named. The id lists, the suite loop and single-check dispatch are read off
the registry, so adding a check means adding its function and one CHECKS
entry. Every entry emits one id, except the
uncounted T6/T6k pair above, and no check hands its intermediate values to
another: the modified family's exact checks T14 and T16 run no float code,
and T15 reads the family through its public function as they do. Every
verdict, numeric ones included, is built by one _Collector.

The six-expression composite C-SIX is an exact verdict over the three
exact routes of the paper's closing display, which belong to the checks P3
(route 1), P5a (route 3) and T8 (route 4). Each is a row function over the
degenerate Stirling triangle, read once per call by _triangle: one call
returns the route's values for n = 0..n_max and computes every factor that
depends on k or m alone (beta values, alternating weights, T8's inner
sums, the plain family at x = 1) once. C-SIX reads the triangle once,
calls each row function once and compares its rows. The other three
expressions are not compared again here: T4 checks the double series
(route 2) and T11 the contour integral (route 5), and the moment sum
(route 6) is route 1 itself, since the k-th moment of the density
p(1-x)^(p-1) is B(k+1, p)/B(1, p) = p B(k+1, p), P3's weight; S3's exact
half reads P3's route for the same reason.
Every finite sum of an exact route, scalar or polynomial, is one fps.dot
or fps.lincomb call over the entries it reads, each term passed as its
factors (binomials, entries, weights) rather than as their product, so no
Fraction product is formed per term. Route functions read the
sequences layer through its public functions, one entry at a time, so a
perturbed public function reaches every check that reads it however warm
the caches are (see the sequences docstring). The one memo here is
_operator_core, the part of T7's operator route that does not depend on p;
it reads no sequences function, only the series kernels, so it cannot hold
a value a perturbation should have changed, and T7's other side still
reaches the public truncated family through _truncated.

run_suite splits the grid into units, one registry entry at one lambda,
and hands out their indices through one queue with two ends, a record of
the next index from the front and one past the next index from the back.
On Linux it forks min(#units, usable CPUs) children while it waits:
even-numbered children take units from the front of the lambda-major unit
list, odd-numbered ones from the back, so each lambda's memos fill in one
child, except at the lambda where the two ends meet. The report is
byte-identical to the serial loop's, which takes every unit from the front;
the memos fill, each within its own bound, inside the children (see
run_suite).
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import select
import struct
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, isfinite

import numpy as np

from . import sequences as seq
from .exactnum import as_fraction, beta_exact, deg_falling_factorial
from .fps import Fps, Poly, apply_Dlambda, deg_exp, dot, lincomb
from .numeric import (circle_data, contour_bracket, contour_coeffs, double_series,
                      lattice_moments, lattice_rounding)

_BRANCH_FLOOR = 1e-9
_FLOAT_FACTORIAL_MAX = 170  # 171! overflows a float
_CONTOUR_N_MIN = "contour representations hold for n >= 1 only"
_T15_X_POINTS = (Fraction(1), Fraction(1, 2))  # the suite's and check_T15's default


@dataclass(frozen=True)
class NumericConfig:
    """Knobs for every non-exact comparison, all explicit and serialized
    into verdict params so reports are self-describing.

    moment_nodes is the lattice size of S3's numeric half. seed is accepted
    and recorded in summary.config, but no verdict reads it: S3's lattice
    draws nothing. It stays only because the benchmark worker builds
    NumericConfig(seed=...), and goes with the next benchmark change
    (ROADMAP item 5)."""

    tol_rel: float = 1e-7
    tol_abs: float = 1e-9
    quad_nodes: int = 2048
    series_cutoff_k: int = 80
    series_cutoff_l: int = 80
    moment_nodes: int = 8192
    seed: int = 42

    def __post_init__(self):
        if not (isfinite(self.tol_rel) and isfinite(self.tol_abs)):
            raise ValueError("tolerances must be finite")
        if self.tol_rel <= 0 or self.tol_abs <= 0:
            raise ValueError("tolerances must be positive")
        if self.series_cutoff_k < 1 or self.series_cutoff_l < 1:
            raise ValueError("series cutoffs must be >= 1")
        if self.moment_nodes < 1:
            raise ValueError("moment_nodes must be >= 1")
        if self.quad_nodes < 2 or self.quad_nodes % 2:
            raise ValueError("quad_nodes must be a positive even node count")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def as_dict(self) -> dict:
        # plain float or int per field, whatever number type a caller passed
        return {f.name: type(f.default)(getattr(self, f.name)) for f in fields(self)}


@dataclass
class Verdict:
    check_id: str
    mode: str  # exact | numeric
    params: dict
    status: str  # pass | fail
    max_residual: float
    details: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "mode": self.mode,
            "params": self.params,
            "status": self.status,
            "max_residual": float(self.max_residual),
            "details": self.details,
        }


def _row(n: int, k: int, lhs, rhs, note: str | None = None) -> dict:
    out = {"n": int(n), "k": int(k), "lhs": str(lhs), "rhs": str(rhs)}
    if note:
        out["note"] = note
    return out


def _meta_row(note: str) -> dict:
    # bookkeeping rows use n = k = -1 so they never clash with data rows
    return _row(-1, -1, "", "", note)


def _params(lam, **rest) -> dict:
    # optional parameters a caller left at None are not recorded
    out = {"lambda": str(Fraction(lam))}
    out.update((key, v) for key, v in rest.items() if v is not None)
    return out


def _num_params(lam, cfg: "NumericConfig", **rest) -> dict:
    return _params(lam, tol_rel=float(cfg.tol_rel), tol_abs=float(cfg.tol_abs), **rest)


def _resid(approx: float, exact: float) -> float:
    return abs(approx - exact) / max(1.0, abs(exact))


class _Collector:
    """Accumulates the detail rows of one verdict.

    Exact comparisons (scalar, poly) carry no tolerance and record only
    mismatches; rows added with info() are informational (variant forms,
    indices outside a stated range) and never move the verdict. A
    collector given a NumericConfig makes a numeric verdict: compare()
    checks a float approximation against an exact target within its
    tolerances, and bounded() within a proven error bound instead; both
    record every probed row, not only the failures. Any counted mismatch
    fails the verdict and becomes its max_residual (as a count); otherwise
    max_residual is the largest numeric residual."""

    def __init__(self, cfg: NumericConfig | None = None):
        self.cfg = cfg
        self.mode = "exact" if cfg is None else "numeric"
        self.rows: list[dict] = []
        self.counted = 0
        self.max_residual = 0.0
        self.ok = True

    def scalar(self, n, lhs, rhs, k=-1, note=None):
        if lhs != rhs:
            self.rows.append(_row(n, k, lhs, rhs, note))
            self.counted += 1

    def poly(self, n, lhs: Poly, rhs: Poly, note=None):
        if lhs == rhs:
            return
        for power in range(max(lhs.degree, rhs.degree) + 1):
            self.scalar(n, lhs.coeff(power), rhs.coeff(power), power, note)

    def scalars(self, values, targets):
        """scalar() for each n of two equally long lists indexed by n."""
        for n, (lhs, rhs) in enumerate(zip(values, targets)):
            self.scalar(n, lhs, rhs)

    def info(self, n, k, lhs, rhs, note):
        self.rows.append(_row(n, k, lhs, rhs, note))

    def compare(self, n, approx, exact, k=-1, label="", tail=None):
        approx = float(approx)
        exact = float(exact)
        r = _resid(approx, exact)
        passed = r <= self.cfg.tol_rel or abs(approx - exact) <= self.cfg.tol_abs
        note = f"resid={r:.6e}"
        if label:
            note = f"{label}; {note}"
        if tail is not None:
            note += f"; tail={tail:.3e}"
        if not passed:
            self.ok = False
            if tail is not None and tail > self.cfg.tol_abs:
                note += "; inconclusive-fail: truncation tail exceeds tolerance, raise cutoffs"
        self.rows.append(_row(n, k, approx, exact, note))
        self.max_residual = max(self.max_residual, r)

    def bounded(self, n, approx, exact, bound: float):
        approx = float(approx)
        _require(isfinite(approx) and isfinite(bound),
                 f"row n = {n} is not finite (value {approx}, bound {bound}); "
                 "its sum overflows a float")
        exact = float(exact)
        if not abs(approx - exact) <= bound:
            self.ok = False
        self.rows.append(_row(n, -1, approx, exact, f"bound={bound:.6e}"))
        self.max_residual = max(self.max_residual, _resid(approx, exact))

    def meta(self, note: str):
        self.rows.append(_meta_row(note))

    def verdict(self, check_id: str, params: dict) -> Verdict:
        status = "pass" if self.ok and not self.counted else "fail"
        residual = self.counted if self.counted else self.max_residual
        return Verdict(check_id, self.mode, params, status, float(residual), self.rows)


def _series_params(lam, cfg: NumericConfig, **rest) -> dict:
    # parameters of a verdict that evaluates double_series
    return _num_params(lam, cfg, series_cutoff_k=cfg.series_cutoff_k,
                       series_cutoff_l=cfg.series_cutoff_l, **rest)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _truncated(lam: Fraction, p: int, n_max: int) -> list[Fraction]:
    """The basis-route truncated numbers for n = 0..n_max, the reference of
    every route to them, read through the public function entry by entry."""
    return [seq.trunc_bell_deg(n, p, lam)(Fraction(1)) for n in range(n_max + 1)]


def _triangle(lam: Fraction, n_max: int) -> list[list[Fraction]]:
    """The rows n = 0..n_max of the degenerate Stirling triangle, read
    through the public function one entry at a time."""
    return [[seq.stirling2_deg(n, k, lam) for k in range(n + 1)] for n in range(n_max + 1)]


def _stirling_sums(rows: list, weights: list) -> list[Fraction]:
    """sum_k S2deg(n, k) weights[k] for each triangle row n."""
    return [dot(zip(row, weights)) for row in rows]


# --------------------------------------------------------------------------
# exact checks


def check_T1(lam, p: int, n_max: int) -> Verdict:
    """Basis construction of the truncated family against its generating
    series, as polynomial equality for every n up to n_max. The series is
    built through t^n_max, the deepest coefficient compared: coefficient n
    of an exact truncated series does not depend on its order."""
    lam = as_fraction(lam)
    col = _Collector()
    for n in range(n_max + 1):
        col.poly(n, seq.trunc_bell_deg(n, p, lam), seq.trunc_bell_deg_egf(n, p, lam, n_max))
    return col.verdict("T1", _params(lam, p=p, n_max=n_max))


def check_T2(lam, n_max: int) -> Verdict:
    """First-truncation family written as a weighted convolution of the
    degenerate Bernoulli numbers with the plain family, checked as a
    polynomial identity (its value at x = 1 follows from the coefficients)."""
    lam = as_fraction(lam)
    col = _Collector()
    x = Poly.x()
    inv = [Fraction(1, m + 1) for m in range(n_max + 1)]
    for n in range(n_max + 1):
        lhs = x * seq.trunc_bell_deg(n, 1, lam)
        rhs = lincomb((comb(n, m), seq.deg_bernoulli_num(n - m, 1, lam), inv[m],
                       seq.bell_deg(m + 1, lam)) for m in range(n + 1))
        col.poly(n, lhs, rhs)
    return col.verdict("T2", _params(lam, n_max=n_max))


def _beta_route(rows: list, p: int) -> list[Fraction]:
    """P3 over the triangle rows: sum_k S2deg(n, k) p B(k+1, p). At p = 0 the
    weight is its limit 1 (p B(k+1, p) -> 1), so the sum is the row sum of
    the triangle, the plain family at x = 1."""
    return _stirling_sums(rows, [p * beta_exact(k + 1, p) if p else 1 for k in range(len(rows))])


def check_P3(lam, p: int, n_max: int) -> Verdict:
    """Unit-interval integral of the plain polynomial family against the
    weight (1-x)^(p-1), done exactly through beta values and read through
    the triangle, against the basis-route truncated numbers. At p = 0 there
    is no integral; the weight's limit makes the route the triangle's row
    sums (see _beta_route)."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    col = _Collector()
    col.scalars(_beta_route(_triangle(lam, n_max), p), _truncated(lam, p, n_max))
    return col.verdict("P3", _params(lam, p=p, n_max=n_max))


def _alternating_route(rows: list, p: int) -> list[Fraction]:
    """P5a over the triangle rows: sum_k S2deg(n, k) sum_{m<p} (m+1) C(p, m+1) (-1)^m / (k+m+1)."""
    weights = [dot(((-1) ** m * (m + 1) * comb(p, m + 1), Fraction(1, k + m + 1))
                   for m in range(p))
               for k in range(len(rows))]
    return _stirling_sums(rows, weights)


def check_P5a(lam, p: int, n_max: int) -> Verdict:
    """Alternating finite double sum for the truncated numbers, obtained by
    expanding the integral weight binomially."""
    lam = as_fraction(lam)
    _require(p >= 1, f"the double-sum form needs p >= 1, got {p}")
    col = _Collector()
    col.scalars(_alternating_route(_triangle(lam, n_max), p), _truncated(lam, p, n_max))
    return col.verdict("P5a", _params(lam, p=p, n_max=n_max))


def _incgamma_closed(p: int, u: Fps) -> tuple[Fps, Fps]:
    """The lower incomplete gamma at integer order p >= 1 in closed form,
    gamma(p, u) = (p-1)! (1 - e^(-u) sum_{j<p} u^j/j!), for a series u with
    zero constant term; returns it with u**p, which the sum builds anyway."""
    partial = Fps.constant(Fraction(0), u.order)
    upow = Fps.constant(Fraction(1), u.order)
    for j in range(p):
        partial = partial + upow.scale(Fraction(1, factorial(j)))
        upow = upow * u
    return (1 - (-u).exp() * partial).scale(Fraction(factorial(p - 1))), upow


def _validate_incgamma(p: int) -> None:
    """Guard required before the closed form is trusted: at u = t it must
    equal, through t^(2p), the termwise integral of the defining integrand,
    sum_{n>=p} (-1)^(n-p) t^n / ((n-p)! n)."""
    gamma, _ = _incgamma_closed(p, Fps.t(2 * p))
    integral = [Fraction(0)] * p + [Fraction((-1) ** (n - p), factorial(n - p) * n)
                                    for n in range(p, 2 * p + 1)]
    if gamma != Fps(integral):
        raise RuntimeError("closed-form lower incomplete gamma failed its series guard")


def check_P5b(lam, p: int, order: int) -> Verdict:
    """Generating-series route through the closed form of the lower
    incomplete gamma at integer order, checked exactly against its defining
    integral first, then assembled as an exact series and divided out."""
    lam = as_fraction(lam)
    _require(p >= 1, f"the incomplete-gamma form needs p >= 1, got {p}")
    _validate_incgamma(p)
    z = deg_exp(Fraction(1), lam, order + p) - 1
    gamma, zpow = _incgamma_closed(p, z)
    # z has valuation 1, so dividing by z**p raises if the numerator's is below p
    series = (z.exp() * gamma).scale(Fraction(p)) / zpow
    col = _Collector()
    col.meta(f"closed-form incomplete-gamma guard: exact against the integral through t^{2 * p}")
    col.scalars([series.egf_coeff(n) for n in range(order + 1)], _truncated(lam, p, order))
    return col.verdict("P5b", _params(lam, p=p, order=order))


def check_T6(lam, p: int, n_max: int) -> list[Verdict]:
    """Weighted convolution with higher-order degenerate Bernoulli numbers.

    The correction sum exists in two superscript readings; one call builds
    the left side and the convolution once per n and subtracts each
    reading's correction sum, so the runtime outcome adjudicates between
    them. The first verdict keeps the exponent at p as stated (id T6,
    variant 'fixed'), the second lets it follow the summation index (id T6k,
    variant 'running')."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    cols = {"fixed": _Collector(), "running": _Collector()}
    x = Poly.x()
    for n in range(n_max + 1):
        lhs = x**p * seq.trunc_bell_deg(n, p, lam)
        inv = Fraction(1, comb(n + p, n))
        conv = lincomb((comb(n + p, m), inv, seq.deg_bernoulli_num(n + p - m, p, lam),
                        seq.bell_deg(m, lam)) for m in range(n + p + 1))
        for variant, col in cols.items():
            # the correction term of index k sits at power p - k
            correction = Poly(Fraction(comb(p, k), comb(n + k, n))
                              * seq.deg_bernoulli_num(n + k, p if variant == "fixed" else k, lam)
                              for k in range(p, 0, -1))
            col.poly(n, lhs, conv - correction)
    return [col.verdict(check_id, _params(lam, p=p, n_max=n_max, variant=variant))
            for check_id, (variant, col) in zip(("T6", "T6k"), cols.items())]


@lru_cache(maxsize=seq.MEMO_MAXSIZE)
def _operator_core(a: int, b: int, order: int) -> tuple[Fps, Fps]:
    """The p-independent part of the operator route at lam = a/b: exp(z) and
    the entire series sum_m (-1)^m z^m/(m+1)! = (1 - e^(-z))/z, z the
    deformed exponential minus one. z is built one order deeper, because
    dividing by it (valuation 1) costs one order; the closed form shares no
    code with P5b's incomplete gamma, so T7 stays independent of P5b."""
    z = deg_exp(1, Fraction(a, b), order + 1) - 1
    return z.exp(), (1 - (-z).exp()) / z


def _operator_route(lam: Fraction, p: int, order: int) -> Fps:
    """Right side of the differential-operator representation: the core
    series hit p-1 times with the weighted derivative, then multiplied by
    exp(z) and signed."""
    exp_z, cur = _operator_core(lam.numerator, lam.denominator, order)
    for _ in range(p - 1):
        cur = apply_Dlambda(cur, lam)
    return (exp_z * cur).scale(Fraction((-1) ** (p - 1) * p))


def check_T7(lam, p: int, order: int) -> Verdict:
    """Iterated weighted-derivative representation of the generating
    series; each application of the operator costs one order of depth, so
    coefficients are compared through order-(p-1)."""
    lam = as_fraction(lam)
    _require(p >= 1, f"the operator form needs p >= 1, got {p}")
    _require(order >= p, f"order {order} too small for p = {p}")
    series = _operator_route(lam, p, order)
    col = _Collector()
    col.scalars([series.egf_coeff(n) for n in range(series.order + 1)],
                _truncated(lam, p, series.order))
    col.meta(f"coefficients compared through n = {series.order}")
    return col.verdict("T7", _params(lam, p=p, order=order))


def _convolution_route(lam: Fraction, rows: list, p: int) -> list[Fraction]:
    """T8 over the triangle rows:
    p * sum_m C(n, m) [sum_l (-1)^l S2deg(m, l) / (p+l)] Bell_{n-m}(1)."""
    inner = _stirling_sums(rows, [Fraction((-1) ** l, p + l) for l in range(len(rows))])
    bell_at_1 = [seq.bell_deg(j, lam)(Fraction(1)) for j in range(len(rows))]
    return [dot((p, comb(n, m), inner[m], bell_at_1[n - m]) for m in range(n + 1))
            for n in range(len(rows))]


def check_T8(lam, p: int, n_max: int) -> Verdict:
    """Finite double sum mixing the degenerate Stirling triangle with plain
    family values."""
    lam = as_fraction(lam)
    _require(p >= 1, f"the double-sum convolution needs p >= 1, got {p}")
    col = _Collector()
    col.scalars(_convolution_route(lam, _triangle(lam, n_max), p), _truncated(lam, p, n_max))
    return col.verdict("T8", _params(lam, p=p, n_max=n_max))


# --------------------------------------------------------------------------
# numeric checks


def check_T4(lam, p: int, n_max: int, cfg: NumericConfig) -> Verdict:
    """Double-series representation evaluated in floating point under
    explicit cutoffs, with a per-row tail heuristic."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    ncol = _Collector(cfg)
    targets = _truncated(lam, p, n_max)
    for n, approx, tail in double_series(lam, p, n_max, cfg):
        ncol.compare(n, approx, targets[n], tail=tail)
    return ncol.verdict("T4", _series_params(lam, cfg, p=p, n_max=n_max))


def _require_contour_grid(n_max: int, cfg: NumericConfig) -> None:
    """Contour coefficients through n_max neither alias nor overflow n!."""
    _require(2 * n_max < cfg.quad_nodes,
             f"contour checks need 2*n_max < quad_nodes = {cfg.quad_nodes}, got n_max = {n_max}")
    _require(n_max <= _FLOAT_FACTORIAL_MAX,
             f"contour checks need n_max <= {_FLOAT_FACTORIAL_MAX}, where n! fits in a float, "
             f"got n_max = {n_max}")


def _contour_check(check_id: str, lam: Fraction, n_max: int, cfg: NumericConfig, integrand,
                   rows, **extra) -> Verdict:
    """Contour quadrature on the unit circle, for n >= 1 and |lam| < 1:
    rows(c) yields (n, k, approx, exact) from c, n! times the n-th
    coefficient, n = 0..n_max, of the function whose values at the
    trapezoid nodes are integrand(z), z = e_lam(u) - 1. When the floor
    min |1 + lam*u| over the nodes is under the branch guard, the verdict
    is one inconclusive meta row."""
    _require(n_max >= 1, _CONTOUR_N_MIN)
    _require(abs(lam) < 1, f"contour checks need |lambda| < 1, got {lam}")
    _require_contour_grid(n_max, cfg)
    z, floor = circle_data(lam, cfg.quad_nodes)
    ncol = _Collector(cfg)
    if floor < _BRANCH_FLOOR:
        ncol.ok = False
        ncol.meta(
            "inconclusive-fail: contour approaches the branch point, "
            f"min |1 + lambda*u| = {floor:.3e}"
        )
    else:
        for n, k, approx, exact in rows(contour_coeffs(integrand(z), n_max)):
            ncol.compare(n, approx, float(exact), k=k)
    params = _num_params(lam, cfg, n_max=n_max, quad_nodes=cfg.quad_nodes, **extra)
    return ncol.verdict(check_id, params)


def check_L9(lam, n_max: int, k: int | None, cfg: NumericConfig) -> Verdict:
    """Contour quadrature of the degenerate Stirling triangle, one transform
    per column: k fixes a single column, None probes every k <= n."""
    lam = as_fraction(lam)
    _require(k is None or k >= 0, f"column index must be >= 0, got {k}")
    _require(k is None or k <= _FLOAT_FACTORIAL_MAX,
             f"column index must be <= {_FLOAT_FACTORIAL_MAX}, where k! fits in a float, got {k}")
    cols = range(n_max + 1) if k is None else (k,)

    def rows(c):
        for n in range(1, n_max + 1):
            for i, j in enumerate(range(n + 1) if k is None else cols):
                yield n, j, c[i, n], seq.stirling2_deg(n, j, lam)

    return _contour_check("L9", lam, n_max, cfg,
                          lambda z: np.array([z**j / float(factorial(j)) for j in cols]),
                          rows, k=k)


def check_C10(lam, n_max: int, cfg: NumericConfig) -> Verdict:
    """Contour quadrature of the plain family at x = 1."""
    lam = as_fraction(lam)

    def rows(c):
        return [(n, -1, c[n], seq.bell_deg(n, lam)(Fraction(1))) for n in range(1, n_max + 1)]

    return _contour_check("C10", lam, n_max, cfg, np.exp, rows)


def check_T11(lam, p: int, n_max: int, cfg: NumericConfig) -> Verdict:
    """Contour quadrature of the truncated numbers through the entire
    series bracket, at truncation p >= 1."""
    lam = as_fraction(lam)
    _require(p >= 1, "the truncated contour form needs p >= 1")

    def rows(c):
        targets = _truncated(lam, p, n_max)
        return [(n, -1, c[n], targets[n]) for n in range(1, n_max + 1)]

    return _contour_check("T11", lam, n_max, cfg, lambda z: contour_bracket(z, p), rows, p=p)


# --------------------------------------------------------------------------
# recurrences and the modified family


def check_T12(lam, p: int, n_max: int) -> Verdict:
    """One-step recurrence for the truncated numbers, stated for n >= 2.

    The middle term admits two superscript readings, the truncation index
    kept (the printed form) or raised by one. The raised-index form is
    counted, fixed before the check runs: it holds on every grid point
    measured, while the printed form holds only at p = 0, where the weight
    p/(p+1) vanishes and the two forms are equal. The printed form is
    reported informationally wherever it differs, as are the out-of-range
    rows n in {0, 1}."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    col = _Collector()

    # exact values the loop below reuses, each computed once per call
    val = _truncated(lam, p, n_max + 1)
    val_raised = _truncated(lam, p + 1, n_max)
    shift = lam - 1
    ff = [deg_falling_factorial(shift, j, lam) for j in range(n_max + 2)]
    weight = Fraction(-p, p + 1)

    for n in range(n_max + 1):
        lhs = val[n + 1]
        # each form is one dot over its terms: (n+1 - n lam) val[n], minus
        # p/(p+1) times its middle value, minus sum_m C(n, m) val[m+1] ff[n-m]
        base = [(n + 1, val[n]), (-n, lam, val[n])]
        tail = [(-comb(n, m), val[m + 1], ff[n - m]) for m in range(n - 1)]
        printed = dot([*base, (weight, val[n]), *tail])
        raised = dot([*base, (weight, val_raised[n]), *tail])
        if n < 2:
            col.info(
                n, -1, lhs, raised,
                "informational, below stated range: printed-form match="
                f"{printed == lhs}, raised-index match={raised == lhs}",
            )
            continue
        col.scalar(n, lhs, raised, note="counted variant: raised-index")
        if printed != raised:
            col.info(n, -1, lhs, printed, "printed middle-term form, not counted (informational)")
    col.meta("middle-term form fixed in advance: raised-index counted over n >= 2, "
             "printed form informational")
    return col.verdict("T12", _params(lam, p=p, n_max=n_max))


def check_T13(lam, n_max: int) -> Verdict:
    """Shifted-argument Stirling polynomials: finite-sum construction
    against the generating-series construction, for every pair l <= n."""
    lam = as_fraction(lam)
    col = _Collector()
    for n in range(n_max + 1):
        for l in range(n + 1):
            col.poly(
                n,
                seq.stirling2_deg_poly(n, l, lam),
                seq.stirling2_deg_poly_egf(n, l, lam, n_max),
                note=f"l={l}",
            )
    return col.verdict("T13", _params(lam, n_max=n_max))


def check_T14(lam, p: int, n_max: int) -> Verdict:
    """The modified truncated family: basis construction against its
    generating series, built through t^n_max as T1's is, and against its
    convolution expansion over the plain truncated numbers with the raised
    series index; the printed constant index is probed and reported
    informationally."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    const = _truncated(lam, p, n_max)
    col = _Collector()
    literal_bad = 0
    for n in range(n_max + 1):
        target = seq.trunc_mod_bell_deg(n, p, lam)
        col.poly(n, target, seq.trunc_mod_bell_deg_egf(n, p, lam, n_max))
        ffs = [(comb(n, m), seq.deg_falling_factorial_poly(n - m, lam)) for m in range(n + 1)]
        corrected = lincomb((w, const[m], ff) for m, (w, ff) in enumerate(ffs))
        literal = lincomb(ffs) * const[n]
        col.poly(n, target, corrected, note="convolution route, raised series index")
        if literal != target:
            literal_bad += 1
            col.info(n, -1, target.to_string(), literal.to_string(),
                     "convolution route, printed constant index (informational)")
    col.meta(
        f"printed-index convolution variant mismatches on {literal_bad} of "
        f"{n_max + 1} rows (informational)"
    )
    return col.verdict("T14", _params(lam, p=p, n_max=n_max))


def check_T15(lam, p: int, n_max: int, cfg: NumericConfig, x_points=None) -> Verdict:
    """Double-series evaluation of the modified truncated family at fixed
    rational points (default _T15_X_POINTS) against the basis construction."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    x_points = tuple(Fraction(x) for x in (_T15_X_POINTS if x_points is None else x_points))
    targets = [seq.trunc_mod_bell_deg(n, p, lam) for n in range(n_max + 1)]
    ncol = _Collector(cfg)
    for x in x_points:
        for n, approx, tail in double_series(lam, p, n_max, cfg, float(x)):
            ncol.compare(n, approx, float(targets[n](x)), label=f"x={x}", tail=tail)
    return ncol.verdict("T15", _series_params(lam, cfg, p=p, n_max=n_max,
                                              x_points=[str(x) for x in x_points]))


def check_T16(lam, p: int, n_max: int) -> Verdict:
    """One-step recurrence of the modified truncated family, which reads
    the family at truncation index p and p+1."""
    lam = as_fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    # exact values the loop below reuses, each computed once per call
    mod_p = [seq.trunc_mod_bell_deg(j, p, lam) for j in range(n_max + 2)]
    mod_p1 = [seq.trunc_mod_bell_deg(j, p + 1, lam) for j in range(n_max + 1)]
    ff1 = [deg_falling_factorial(Fraction(1), j, lam) for j in range(n_max + 1)]
    q = Fraction(-p, p + 1)
    col = _Collector()
    for n in range(n_max + 1):
        terms = [(1, (Poly.x() - Fraction(n) * lam) * mod_p[n])]
        for j in range(n + 1):
            w = comb(n, j)
            terms += [(w, ff1[n - j], q, mod_p1[j]), (w, ff1[n - j], mod_p[j])]
        col.poly(n, mod_p[n + 1], lincomb(terms))
    return col.verdict("T16", _params(lam, p=p, n_max=n_max))


def check_S3(lam, p: int, n_max: int, cfg: NumericConfig) -> list[Verdict]:
    """Moment identity for the unit-interval distribution with density
    p(1-x)^(p-1): exactly through its moments E[X^k] = p B(k+1, p), which
    are P3's weights, so the exact half is P3's route (_beta_route); then
    numerically over the centred lattice of numeric.lattice_moments with
    N = cfg.moment_nodes, the independent evidence. Both halves read one
    copy of the triangle.

    Row n is E[g(X)] for g(x) = sum_k c_k x^k, c_k = S2deg(n, k). The
    variation of g on [0, 1] is at most V = sum_{k>=1} |c_k|, so the
    lattice mean c.m misses E[g(X)] by at most V/(2N) (Koksma-Hlawka, see
    lattice_moments), and rounding adds at most lattice_rounding(N, n_max)
    times W = sum_k |c_k| (see there). V and W are summed exactly. A row
    passes when |c.m - exact| is within that bound, so a failing row
    disproves the identity up to the rounding model stated there."""
    lam = as_fraction(lam)
    _require(p >= 1, f"the moment identity needs p >= 1, got {p}")
    rows = _triangle(lam, n_max)
    targets = _truncated(lam, p, n_max)
    col = _Collector()
    col.scalars(_beta_route(rows, p), targets)
    v_exact = col.verdict("S3", _params(lam, p=p, n_max=n_max))

    nodes = cfg.moment_nodes
    moments = lattice_moments(p, nodes, n_max)
    gamma = lattice_rounding(nodes, n_max)
    ncol = _Collector(cfg)
    for n, coeffs in enumerate(rows):
        total = dot((abs(c), 1) for c in coeffs)
        bound = float(total - abs(coeffs[0])) / (2 * nodes) + gamma * float(total)
        ncol.bounded(n, np.array(coeffs, dtype=float) @ moments[:n + 1], targets[n], bound)
    return [v_exact, ncol.verdict("S3", _params(lam, p=p, n_max=n_max, moment_nodes=nodes))]


# --------------------------------------------------------------------------
# the six-expression composite


_CSIX_ROUTES = {
    1: "unit-interval integral of the plain polynomial family",
    3: "alternating finite double sum",
    4: "convolution with plain-family values",
}


def check_CSIX(lam, p: int, n_max: int) -> Verdict:
    """The exact closing expressions for the truncated numbers, routes 1, 3
    and 4, against the basis construction, each route computed by the row
    function its own check uses over one read of the triangle. Route 2 is
    T4's verdict, route 5 T11's, and route 6 is route 1 (see the module
    docstring); one meta row says so. The detail k field carries the route
    number."""
    lam = as_fraction(lam)
    _require(p >= 1, f"the six-expression display needs p >= 1, got {p}")
    rows = _triangle(lam, n_max)
    routes = {1: _beta_route(rows, p), 3: _alternating_route(rows, p),
              4: _convolution_route(lam, rows, p)}
    col = _Collector()
    col.meta("route 2 is checked by T4, route 5 by T11, and route 6, the moment sum, "
             "is route 1")
    for n, ref in enumerate(_truncated(lam, p, n_max)):
        for route, values in routes.items():
            col.scalar(n, values[n], ref, route, _CSIX_ROUTES[route])
    return col.verdict("C-SIX", _params(lam, p=p, n_max=n_max))


# --------------------------------------------------------------------------
# the check registry


@dataclass(frozen=True)
class CheckSpec:
    """One registry entry: the ids its check emits, the check function, the
    least truncation index p the check takes, whether it is a contour check
    and whether it is counted. Contour entries need |lambda| < 1 and n_max
    >= 1 and are recorded as skipped otherwise. Uncounted entries report on
    a statement/derivation conflict and never decide an exit code.

    The function's parameters after lambda are what the check reads, each
    one of p, n_max, order, cfg, k and x_points, and _run_entry passes it
    the values so named, positionally. The suite runs an entry once per
    grid p >= p_min when its function has a p parameter, else once per
    lambda. The names are read from the function given here, but the call
    goes through its module-level name, so rebinding a check (as a tracer
    does, with a (lam, *args) wrapper) reaches every caller."""

    ids: tuple
    function: Callable
    p_min: int = 0
    contour: bool = False
    counted: bool = True

    @cached_property
    def arg_names(self) -> tuple:
        """The function's parameter names after lambda."""
        return tuple(inspect.signature(self.function).parameters)[1:]


CHECKS = (
    CheckSpec(("T1",), check_T1),
    CheckSpec(("T2",), check_T2),
    CheckSpec(("P3",), check_P3),
    CheckSpec(("T4",), check_T4),
    CheckSpec(("P5a",), check_P5a, 1),
    CheckSpec(("P5b",), check_P5b, 1),
    CheckSpec(("T6", "T6k"), check_T6, counted=False),
    CheckSpec(("T7",), check_T7, 1),
    CheckSpec(("T8",), check_T8, 1),
    CheckSpec(("L9",), check_L9, contour=True),
    CheckSpec(("C10",), check_C10, contour=True),
    CheckSpec(("T11",), check_T11, 1, contour=True),
    CheckSpec(("T12",), check_T12),
    CheckSpec(("T13",), check_T13),
    CheckSpec(("T14",), check_T14),
    CheckSpec(("T15",), check_T15),
    CheckSpec(("T16",), check_T16),
    CheckSpec(("S3",), check_S3, 1),
    CheckSpec(("C-SIX",), check_CSIX, 1),
)

KNOWN_CHECK_IDS = tuple(i for c in CHECKS for i in c.ids)
ADJUDICATION_IDS = frozenset(i for c in CHECKS if not c.counted for i in c.ids)
_CHECK_BY_ID = {i: c for c in CHECKS for i in c.ids}


# --------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class SuiteGrid:
    lambdas: tuple = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3))
    ps: tuple = (0, 1, 2, 3, 4)
    n_max: int = 10
    order: int = 24
    x_points: tuple = _T15_X_POINTS


def default_grid(**overrides) -> SuiteGrid:
    return SuiteGrid(**overrides)


@dataclass
class SuiteReport:
    verdicts: list
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "summary": self.summary,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }

    def exit_code(self) -> int:
        return 0 if self.summary["required_pass"] else 1


def _verdict_sort_key(v: Verdict):
    return (v.check_id, v.mode, json.dumps(v.params, sort_keys=True))


def _adjudication_record(verdicts: list[Verdict]) -> dict | None:
    outcomes = {}
    for vid in sorted(ADJUDICATION_IDS):
        statuses = {v.status for v in verdicts if v.check_id == vid}
        if statuses:
            outcomes[vid] = statuses.pop() if len(statuses) == 1 else "mixed"
    if not outcomes:
        return None
    clean = [vid for vid, o in outcomes.items() if o == "pass"]
    if len(clean) == len(outcomes) and len(outcomes) > 1:
        selected = "both"
    elif len(clean) == 1:
        selected = clean[0]
    else:
        selected = "neither"
    return {
        "subject": "exponent variant in the correction sum of the "
                   "weighted-convolution identity",
        "checked": sorted(outcomes),
        "outcomes": outcomes,
        "selected": selected,
        "note": "variant ids are excluded from exit accounting",
    }


def exit_code_for(verdicts: list[Verdict]) -> int:
    ok = all(v.status == "pass" for v in verdicts if v.check_id not in ADJUDICATION_IDS)
    return 0 if ok else 1


def _summarize(verdicts, skipped, grid: SuiteGrid, cfg: NumericConfig) -> dict:
    by_id: dict[str, dict] = {}
    for v in verdicts:
        slot = by_id.setdefault(v.check_id, {"pass": 0, "fail": 0})
        slot[v.status] += 1
    passed = sum(1 for v in verdicts if v.status == "pass")
    record = _adjudication_record(verdicts)
    return {
        "total": len(verdicts),
        "passed": passed,
        "failed": len(verdicts) - passed,
        "skipped": len(skipped),
        "skipped_checks": skipped,
        "required_pass": exit_code_for(verdicts) == 0,
        "counts_by_id": by_id,
        "adjudication": [record] if record else [],
        "grid": {
            "lambdas": [str(Fraction(x)) for x in grid.lambdas],
            "ps": list(grid.ps),
            "n_max": grid.n_max,
            "order": grid.order,
            "x_points": [str(Fraction(x)) for x in grid.x_points],
        },
        "config": cfg.as_dict(),
    }


def _run_unit(check: CheckSpec, lam: Fraction, ps, given: dict) -> tuple[list, list]:
    """One unit of the suite, one registry entry at one lambda: its verdicts
    and its skip records, over every grid p the entry takes."""
    check_ps = [p for p in ps if p >= check.p_min] if "p" in check.arg_names else (None,)
    skip = None
    if check.contour and abs(lam) >= 1:
        skip = "|lambda| >= 1 is outside the contour domain"
    elif check.contour and given["n_max"] < 1:
        skip = _CONTOUR_N_MIN
    if skip:
        return [], [{"id": check.ids[0], **_params(lam, p=p), "reason": skip} for p in check_ps]
    return [v for p in check_ps for v in _run_entry(check, lam, {**given, "p": p})], []


# the queue record: the next unit from the front, and one past the next
# unit from the back
_RECORD = struct.Struct("<QQ")


def _run_units(units: list, queue: tuple[int, int], ps, given: dict,
               from_back: bool = False) -> tuple[list, tuple | None]:
    """Run the units the queue hands this process, taken from the back of
    the unit list if from_back, else from the front: (index, verdicts,
    skips) for each, and (index, exception) for the first unit that raised,
    after which this process takes no more; None if none raised. The queue
    is a pipe holding one record, two indices (_RECORD): a taker reads it,
    blocking while another process holds it, and writes it back with its own
    end moved one unit inward before it runs the unit, so each index goes to
    exactly one process. Once the two indices meet they stay so, and every
    taker stops."""
    read_end, write_end = queue
    done = []
    while True:
        record = os.read(read_end, _RECORD.size)
        front, back = _RECORD.unpack(record)
        if front == back:
            os.write(write_end, record)
            return done, None
        if from_back:
            back = index = back - 1
        else:
            index, front = front, front + 1
        os.write(write_end, _RECORD.pack(front, back))
        try:
            done.append((index, *_run_unit(*units[index], ps, given)))
        except Exception as exc:
            return done, (index, exc)


def _given(n_max: int, order: int, cfg: NumericConfig, k=None, x_points=None) -> dict:
    """The values a check parameter may name, but lambda and p."""
    _require(n_max >= 0, f"n_max must be >= 0, got {n_max}")
    _require(order >= 0, f"order must be >= 0, got {order}")
    return {"n_max": n_max, "order": order, "cfg": cfg, "k": k, "x_points": x_points}


def _run_entry(check: CheckSpec, lam: Fraction, given: dict) -> list[Verdict]:
    """The entry's verdicts at one point: its function, called through its
    module-level name, takes lambda and then the values of `given` its
    parameters name. A float overflow is a domain error naming the point:
    lambda and each of p, k and x_points that the check takes and is set."""
    try:
        out = globals()[check.function.__name__](lam, *(given[name] for name in check.arg_names))
    except OverflowError as exc:
        xs = given["x_points"]
        shown = {"p": given["p"], "k": given["k"],
                 "x_points": None if xs is None else ",".join(str(Fraction(x)) for x in xs)}
        named = ", ".join(f"{name} = {shown[name]}" for name in check.arg_names
                          if shown.get(name) is not None)
        rest = f" (with {named})" if named else ""
        raise ValueError(f"check {'/'.join(check.ids)} at lambda = {lam} leaves the float "
                         f"range{rest}: {exc}") from None
    return out if isinstance(out, list) else [out]


def run_suite(grid: SuiteGrid | None = None, cfg: NumericConfig | None = None) -> SuiteReport:
    """Run every registered check over the grid. Failures are data, not
    errors; ordering of the verdict list is deterministic.

    The work is split into units, one registry entry at one lambda, in
    lambda-major registry order, handed out by one queue with two ends
    (_run_units). On Linux this process forks one child per usable CPU, up
    to the number of units, and only waits: each child takes units until
    the two ends of the queue meet, even-numbered children from the front
    and odd-numbered ones from the back, then writes its results, or the
    exception of its first failing unit, pickled to an unnamed file and
    exits. So the units of one lambda, which share its memos, run in one
    child, except at the lambda where the ends meet; with one end, the units
    of each lambda went to the children in turn and each child filled its
    memos again. With one usable CPU or on another platform this process
    takes every unit itself, from the front. It waits on one pidfd per child
    and reaps whichever child ends first, so a child that dies raises
    RuntimeError at once, even one killed while it holds the queue record,
    which leaves the other children blocked on the empty queue; it never
    waits on a pid it did not fork (os.waitpid(-1) would reap a library
    caller's own children). Results are joined in unit order; of several
    failing units the lowest one's exception is raised, as the serial loop
    raises it, with the child's traceback text as its __cause__. Children
    are killed and reaped on every way out, an interrupt included.

    No check draws a random number and every memo returns a pure function
    of its key, so a unit's verdicts do not depend on the process that runs
    it, and the report is byte-identical to the serial loop's.
    Memos fill inside the children: this process keeps its memos as they
    were, every child fills the memos keyed without lambda again, and memo
    memory is at most the child count times sequences.MEMO_MAXSIZE entries.
    Children are forked, so they start without re-importing numpy. Python
    3.12+ warns when a process with more than one OS thread forks, and
    numpy's BLAS library may start a thread at import; only Python 3.11.7
    was measured.

    Designs measured against this one with perfbench/run.py --seconds 10,
    in alternating pairs on 2 vCPUs, and rejected:
    - units striped statically over the children: suite_default wall_s
      about 20% slower, in 7 of 10 pairs;
    - ProcessPoolExecutor.map over the units: about 20% slower in 10 of 10
      pairs, and about 2 MB more peak RSS;
    - this process taking units too: wall_s unchanged, peak_rss_mb 38.7 ->
      45.1 (+16%);
    - a pipe the caller feeds and closes, so that takers stop at EOF, which
      a killed child cannot empty: suite_default was slower in 6 of 8 pairs
      (median wall_s 0.224 s, against 0.210 s with this queue);
    - every unit index written in advance to a memfd, read through the
      shared file offset: units were handed out twice, since memfd reads
      do not serialize the offset;
    - one unit per lambda, every registry entry at that lambda in one unit,
      against this queue: suite_deep wall_s slower in 6 of 6 pairs (median
      +15%), suite_default within noise (faster in 3 of 6), and a grid of
      one lambda would run in one child."""
    grid = grid or SuiteGrid()
    cfg = cfg or NumericConfig()
    for p in grid.ps:
        _require(p >= 0, f"truncation index p must be >= 0, got {p}")
    if grid.n_max >= 1 and any(abs(Fraction(lam)) < 1 for lam in grid.lambdas):
        _require_contour_grid(grid.n_max, cfg)  # before any exact work, not after it
    given = _given(grid.n_max, grid.order, cfg, x_points=grid.x_points)
    units = [(check, lam) for lam in map(as_fraction, grid.lambdas) for check in CHECKS]
    children = min(len(units), len(os.sched_getaffinity(0))) if sys.platform == "linux" else 1
    queue = os.pipe()
    os.write(queue[1], _RECORD.pack(0, len(units)))
    outs, pids, pidfds, results = [], [], {}, []
    try:
        if children < 2:
            results.append(_run_units(units, queue, grid.ps, given))
        else:
            for child in range(children):
                out = open(os.memfd_create("truncbell-suite"), "w+b")
                outs.append(out)
                pid = os.fork()
                if pid == 0:  # the child: run units, write them, never return
                    status = 1
                    try:
                        done, failure = _run_units(units, queue, grid.ps, given, child % 2 == 1)
                        if failure:  # a traceback does not pickle, so its text goes along
                            import traceback

                            failure += ("".join(traceback.format_exception(failure[1])),)
                        pickle.dump((done, failure), out)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
                pidfds[os.pidfd_open(pid)] = pid, out
            poller = select.poll()
            for fd in pidfds:
                poller.register(fd, select.POLLIN)
            while pidfds:  # each child's results are read while later ones run
                for fd, _ in poller.poll():
                    pid, out = pidfds.pop(fd)
                    poller.unregister(fd)
                    os.close(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    pids.remove(pid)
                    if code > 0:
                        raise RuntimeError(f"suite child process {pid} exited with status {code}")
                    if code < 0:
                        raise RuntimeError(f"suite child process {pid} was killed by signal {-code}")
                    out.seek(0)
                    results.append(pickle.load(out))
    finally:
        for fd in pidfds:
            os.close(fd)
        if pids:
            import signal  # imported here: a run that ends cleanly kills nothing

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for out in outs:
            out.close()
        os.close(queue[0])
        os.close(queue[1])
    failures = [failure for _, failure in results if failure]
    if failures:
        _, exc, *child_traceback = min(failures, key=lambda failure: failure[0])
        if child_traceback:
            exc.__cause__ = RuntimeError(f"in a suite child process:\n{child_traceback[0]}")
        raise exc
    done = sorted((unit for finished, _ in results for unit in finished), key=lambda unit: unit[0])
    verdicts = [v for _, unit_verdicts, _ in done for v in unit_verdicts]
    skipped = [s for _, _, unit_skipped in done for s in unit_skipped]
    verdicts.sort(key=_verdict_sort_key)
    return SuiteReport(verdicts=verdicts, summary=_summarize(verdicts, skipped, grid, cfg))


# --------------------------------------------------------------------------
# single-check dispatch (used by the command line)


def run_check(check_id: str, lam, *, p=None, k=None, n_max=SuiteGrid.n_max,
              order=SuiteGrid.order, cfg: NumericConfig | None = None,
              x_points=None) -> list[Verdict]:
    """Run the registry entry that emits check_id at one point. The stated
    id of an uncounted (adjudicated) entry returns every variant it emits;
    any other id returns only its own verdicts. A p, k or x_points the
    check has no parameter for is an error, not silently dropped, and so is
    a cfg other than NumericConfig() for a check without a cfg parameter."""
    cfg = cfg or NumericConfig()
    lam = as_fraction(lam)
    check = _CHECK_BY_ID.get(check_id)
    if check is None:
        raise ValueError(f"unknown identity id: {check_id}")
    if "p" in check.arg_names and p is None:
        raise ValueError(f"check {check_id} requires p")
    given = _given(n_max, order, cfg, k, x_points)
    for name, value in (("p", p), ("k", k), ("x_points", x_points)):
        if value is not None and name not in check.arg_names:
            raise ValueError(f"check {check_id} does not take {name}")
    if cfg != NumericConfig() and "cfg" not in check.arg_names:
        raise ValueError(f"check {check_id} does not take numeric settings")
    verdicts = _run_entry(check, lam, {**given, "p": p})
    if not check.counted and check_id == check.ids[0]:
        return verdicts
    return [v for v in verdicts if v.check_id == check_id]


def verdicts_to_json_text(verdicts: list[Verdict]) -> str:
    return json.dumps([v.to_json_dict() for v in verdicts], sort_keys=True, indent=2) + "\n"


def report_to_json_text(report: SuiteReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"

"""Identity verification engine.

Each registered check compares two independently constructed computations
of the same quantity. Exact checks demand coefficient-for-coefficient
equality of rationals or rational-coefficient polynomials and carry no
tolerance: one unequal coefficient is a fail, and max_residual reports the
mismatch count. Numeric checks evaluate an analytic representation
(truncated double series, contour quadrature, Monte Carlo sampling) in
double precision and compare against the exact rational value, which is
converted to float only at comparison time.

Verdicts are plain data with a stable JSON rendering; identical parameters
(seed included) must reproduce a suite report byte for byte.

Two statement-versus-derivation conflicts are adjudicated at runtime
rather than assumed. One call of the weighted-convolution check builds
its left side and convolution once and emits a verdict for each exponent
variant of its correction sum (ids T6 and T6k; excluded from exit
accounting and summarized in the suite's single adjudication record).
The one-step recurrence check probes both superscript readings of its
middle term, counts whichever variant holds on the stated range, and
reports the other one informationally.

Every check is one entry of the CHECKS registry, which states the ids it
emits, how to run it, its lowest truncation index p, whether it needs
|lambda| < 1 and whether it is counted; the id lists, the suite loop and
single-check dispatch are read off it, so adding a check means adding its
function and one CHECKS entry. Every verdict, the Monte Carlo one
included, is built by one _Collector.

The exact routes of the six-expression composite C-SIX belong to the checks
P3, P5a, T8 and S3, and each is a row function: one call returns the
route's values for n = 0..n_max and computes every factor that depends on
k or m alone (beta values, alternating weights, T8's inner sums, the plain
family at x = 1) once. C-SIX calls each row function once and compares its
rows. Route functions keep no memo of their own and read the sequences
layer through its public functions, one entry at a time, so a perturbed
public function reaches every check that reads it however warm the caches
are (see the sequences docstring).

On Linux, run_suite runs its lambda slices in min(#lambdas, usable CPUs)
forked workers, with a report byte-identical to the serial loop's; the
memos fill, each within its own bound, inside the workers (see run_suite).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, pi

import numpy as np

from . import sequences as seq
from .exactnum import beta_exact, binomial
from .fps import Fps, Poly, apply_Dlambda, deg_exp

_BRANCH_FLOOR = 1e-9
_BRACKET_TERMS = 60  # series depth for the entire-function contour bracket


@dataclass(frozen=True)
class NumericConfig:
    """Knobs for every non-exact comparison, all explicit and serialized
    into verdict params so reports are self-describing."""

    tol_rel: float = 1e-7
    tol_abs: float = 1e-9
    quad_nodes: int = 2048
    series_cutoff_k: int = 80
    series_cutoff_l: int = 80
    mc_samples: int = 200_000
    seed: int = 42

    def __post_init__(self):
        if self.tol_rel <= 0 or self.tol_abs <= 0:
            raise ValueError("tolerances must be positive")
        if self.series_cutoff_k < 1 or self.series_cutoff_l < 1:
            raise ValueError("series cutoffs must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2 for a standard error")
        if self.quad_nodes < 2 or self.quad_nodes % 2:
            raise ValueError("quad_nodes must be a positive even panel count")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def as_dict(self) -> dict:
        return {
            "tol_rel": float(self.tol_rel),
            "tol_abs": float(self.tol_abs),
            "quad_nodes": int(self.quad_nodes),
            "series_cutoff_k": int(self.series_cutoff_k),
            "series_cutoff_l": int(self.series_cutoff_l),
            "mc_samples": int(self.mc_samples),
            "seed": int(self.seed),
        }


@dataclass
class Verdict:
    check_id: str
    mode: str  # exact | numeric | monte_carlo
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
    mismatches; rows added with counted=False are informational probes
    (variant forms, indices outside a stated range) and never move the
    verdict. A collector given a NumericConfig makes a numeric verdict:
    compare() checks a float approximation against an exact target within
    its tolerances and records every probed row, not only the failures.
    band() records a Monte Carlo estimate against its four-standard-error
    band and makes the verdict a monte_carlo one. Any counted mismatch
    fails the verdict and becomes its max_residual (as a count); otherwise
    max_residual is the largest numeric residual."""

    def __init__(self, cfg: NumericConfig | None = None):
        self.cfg = cfg
        self.mode = "exact" if cfg is None else "numeric"
        self.rows: list[dict] = []
        self.counted = 0
        self.max_residual = 0.0
        self.ok = True

    def scalar(self, n, lhs, rhs, k=-1, note=None, counted=True):
        if lhs != rhs:
            self.rows.append(_row(n, k, lhs, rhs, note))
            if counted:
                self.counted += 1

    def poly(self, n, lhs: Poly, rhs: Poly, note=None, counted=True):
        if lhs == rhs:
            return
        for power in range(max(lhs.degree, rhs.degree) + 1):
            self.scalar(n, lhs.coeff(power), rhs.coeff(power), power, note, counted)

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

    def band(self, n, est: float, exact, se: float):
        exact = float(exact)
        self.mode = "monte_carlo"
        if abs(est - exact) > 4.0 * se:
            self.ok = False
        self.rows.append(_row(n, -1, est, exact, f"se={se:.6e}; acceptance band=4*se"))
        self.max_residual = max(self.max_residual, _resid(est, exact))

    def meta(self, note: str):
        self.rows.append(_meta_row(note))

    def verdict(self, check_id: str, params: dict) -> Verdict:
        status = "pass" if self.ok and not self.counted else "fail"
        residual = self.counted if self.counted else self.max_residual
        return Verdict(check_id, self.mode, params, status, float(residual), self.rows)


# --------------------------------------------------------------------------
# numeric building blocks


def _simpson_weights(panels: int, length: float) -> np.ndarray:
    # composite Simpson over a uniform grid with `panels` subintervals
    if panels < 2 or panels % 2:
        raise ValueError("Simpson rule needs a positive even panel count")
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (length / panels / 3.0)


def _simpson_integral(f, a: float, b: float, panels: int) -> float:
    x = np.linspace(a, b, panels + 1)
    return float(_simpson_weights(panels, b - a) @ f(x))


@lru_cache(maxsize=seq.MEMO_MAXSIZE)
def _circle_data(lam: Fraction, panels: int):
    """Deformed exponential minus one on the unit circle, with Simpson
    weights. Principal branch throughout; callers must keep |lam| < 1 so
    1 + lam*u stays clear of the negative real axis on the contour."""
    theta = np.linspace(0.0, 2.0 * pi, panels + 1)
    u = np.exp(1j * theta)
    if lam == 0:
        w = np.exp(u)
        floor = 1.0
    else:
        lf = float(lam)
        base = 1.0 + lf * u
        floor = float(np.abs(base).min())
        w = np.exp(np.log(base) / lf)
    weights = _simpson_weights(panels, 2.0 * pi)
    z = w - 1.0
    for arr in (theta, z, weights):
        arr.setflags(write=False)
    return theta, z, weights, floor


def _contour_bracket(z: np.ndarray, p: int) -> np.ndarray:
    """The integrand bracket exp(z)/z^p minus the first p inverse-power
    terms, evaluated as the entire series sum_m z^m/(m+p)! to dodge the
    cancellation the literal form suffers."""
    acc = np.zeros_like(z)
    for m in range(_BRACKET_TERMS, -1, -1):
        acc = acc * z + 1.0 / float(factorial(m + p))
    return acc


@lru_cache(maxsize=seq.MEMO_MAXSIZE)
def _series_weight_matrix(p: int, kmax: int, lmax: int):
    """Double-series weights w[k,l] = (-1)^l / (k! l! C(k+l+p,p)) shared by
    the plain and modified double-series checks, plus row sums over l."""
    top = kmax + lmax + p
    lnfact = np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(1, top + 1, dtype=np.float64))))
    )
    ks = np.arange(kmax + 1)[:, None]
    ls = np.arange(lmax + 1)[None, :]
    ln_binom = lnfact[ks + ls + p] - lnfact[ks + ls] - lnfact[p]
    mag = np.exp(-(lnfact[ks] + lnfact[ls] + ln_binom))
    sign = np.where(np.arange(lmax + 1)[None, :] % 2 == 0, 1.0, -1.0)
    m = sign * mag
    rowsums = m.sum(axis=1)
    m.setflags(write=False)
    rowsums.setflags(write=False)
    return m, rowsums


def _double_series(lam: Fraction, p: int, n_max: int, cfg: NumericConfig, x: float = 0.0):
    """Double-series value of the modified truncated family at x under the
    configured cutoffs (at x = 0 the truncated numbers), yielding
    (n, approx, tail) for n = 0..n_max; tail is the size of the last kept
    row and column, a heuristic for what the cutoffs dropped."""
    m, rowsums = _series_weight_matrix(p, cfg.series_cutoff_k, cfg.series_cutoff_l)
    lamf = float(lam)
    ks = np.arange(cfg.series_cutoff_k + 1, dtype=np.float64)
    fall = np.ones_like(ks)
    for n in range(n_max + 1):
        if n > 0:
            fall = fall * (x + ks - (n - 1) * lamf)
        tail = abs(float(fall[-1] * rowsums[-1])) + abs(float(fall @ m[:, -1]))
        yield n, float(fall @ rowsums), tail


def _contour_coeff(theta: np.ndarray, w: np.ndarray, f: np.ndarray, n: int,
                   scale: int = 1) -> float:
    """scale * n!/pi times the quadrature of Im f * sin(n theta) over the
    unit circle: the contour form of the n-th coefficient, n >= 1, of the
    function whose values on the contour are f."""
    return factorial(n) * scale / pi * float(w @ (np.imag(f) * np.sin(n * theta)))


def _series_params(lam, cfg: NumericConfig, **rest) -> dict:
    # parameters of a verdict that evaluates _double_series
    return _num_params(lam, cfg, series_cutoff_k=cfg.series_cutoff_k,
                       series_cutoff_l=cfg.series_cutoff_l, **rest)


def _incgamma_closed(p: int, zv: float) -> float:
    # closed form of the lower incomplete gamma at integer order p >= 1,
    # obtained by repeated integration by parts of the defining integral
    partial = sum(zv**j / factorial(j) for j in range(p))
    return factorial(p - 1) * (1.0 - float(np.exp(-zv)) * partial)


def _validate_incgamma(p: int) -> float:
    """Guard required before the closed form is trusted: compare it with a
    direct quadrature of the defining integral at sample points."""
    worst = 0.0
    for zv in (0.3, 1.0, 2.7):
        direct = _simpson_integral(lambda t: np.exp(-t) * t ** (p - 1), 0.0, zv, 512)
        closed = _incgamma_closed(p, zv)
        worst = max(worst, abs(direct - closed) / max(1.0, abs(direct)))
    if worst > 1e-9:
        raise RuntimeError(
            f"closed-form lower incomplete gamma failed its quadrature guard: {worst:.3e}"
        )
    return worst


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _falling_row(x: Fraction, lam: Fraction, length: int) -> list[Fraction]:
    """x (x-lam) ... (x-(j-1) lam) for j = 0..length-1, as running products."""
    row = [Fraction(1)]
    for j in range(1, length):
        row.append(row[-1] * (x - (j - 1) * lam))
    return row


def _stirling_sums(lam: Fraction, weights: list) -> list[Fraction]:
    """sum_k S2deg(n, k) weights[k] for n = 0..len(weights)-1, reading the
    triangle through the public function one entry at a time."""
    return [sum((seq.stirling2_deg(n, k, lam) * weights[k] for k in range(n + 1)), Fraction(0))
            for n in range(len(weights))]


# --------------------------------------------------------------------------
# exact checks


def check_T1(lam, p: int, n_max: int, order: int) -> Verdict:
    """Basis construction of the truncated family against its generating
    series, as polynomial equality for every n up to n_max."""
    lam = Fraction(lam)
    _require(order >= n_max, f"order {order} must be at least n_max {n_max}")
    col = _Collector()
    for n in range(n_max + 1):
        col.poly(n, seq.trunc_bell_deg(n, p, lam), seq.trunc_bell_deg_egf(n, p, lam, order))
    return col.verdict("T1", _params(lam, p=p, n_max=n_max, order=order))


def check_T2(lam, n_max: int, order: int) -> Verdict:
    """First-truncation family written as a weighted convolution of the
    degenerate Bernoulli numbers with the plain family, checked as a
    polynomial identity and again at x = 1."""
    lam = Fraction(lam)
    _require(order >= n_max + 1, f"order {order} must be at least n_max+1 = {n_max + 1}")
    col = _Collector()
    x = Poly.x()
    for n in range(n_max + 1):
        lhs = x * seq.trunc_bell_deg(n, 1, lam)
        rhs = Poly.zero()
        for m in range(n + 1):
            w = binomial(n, m) * seq.deg_bernoulli_num(n - m, 1, lam) / (m + 1)
            rhs = rhs + seq.bell_deg(m + 1, lam) * w
        col.poly(n, lhs, rhs)
        col.scalar(n, lhs(Fraction(1)), rhs(Fraction(1)), note="evaluation at x = 1")
    return col.verdict("T2", _params(lam, n_max=n_max, order=order))


def _beta_route(lam: Fraction, p: int, n_max: int) -> list[Fraction]:
    """P3 for p >= 1 and n = 0..n_max: p * sum_k S2deg(n, k) B(k+1, p)."""
    return _stirling_sums(lam, [p * beta_exact(k + 1, p) for k in range(n_max + 1)])


def check_P3(lam, p: int, n_max: int) -> Verdict:
    """Unit-interval integral of the plain polynomial family against the
    weight (1-x)^(p-1), done exactly through beta values."""
    lam = Fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    col = _Collector()
    if p == 0:
        for n in range(n_max + 1):
            col.poly(n, seq.trunc_bell_deg(n, 0, lam), seq.bell_deg(n, lam),
                     note="p = 0 reduces to the plain family")
    else:
        for n, route in enumerate(_beta_route(lam, p, n_max)):
            col.scalar(n, route, seq.trunc_bell_deg(n, p, lam)(Fraction(1)))
    return col.verdict("P3", _params(lam, p=p, n_max=n_max))


def _alternating_route(lam: Fraction, p: int, n_max: int) -> list[Fraction]:
    """P5a for n = 0..n_max: sum_k S2deg(n, k) sum_{m<p} (m+1) C(p, m+1) (-1)^m / (k+m+1)."""
    weights = [
        sum(((-1) ** m * (m + 1) * binomial(p, m + 1) / (k + m + 1) for m in range(p)),
            Fraction(0))
        for k in range(n_max + 1)
    ]
    return _stirling_sums(lam, weights)


def check_P5a(lam, p: int, n_max: int) -> Verdict:
    """Alternating finite double sum for the truncated numbers, obtained by
    expanding the integral weight binomially."""
    lam = Fraction(lam)
    _require(p >= 1, f"the double-sum form needs p >= 1, got {p}")
    col = _Collector()
    for n, route in enumerate(_alternating_route(lam, p, n_max)):
        col.scalar(n, route, seq.trunc_bell_deg(n, p, lam)(Fraction(1)))
    return col.verdict("P5a", _params(lam, p=p, n_max=n_max))


def check_P5b(lam, p: int, order: int) -> Verdict:
    """Generating-series route through the closed form of the lower
    incomplete gamma at integer order, validated against quadrature first,
    then assembled as an exact series and divided out."""
    lam = Fraction(lam)
    _require(p >= 1, f"the incomplete-gamma form needs p >= 1, got {p}")
    guard = _validate_incgamma(p)
    depth = order + p
    z = deg_exp(Fraction(1), lam, depth) - 1
    partial = Fps.constant(Fraction(0), depth)
    zpow = Fps.constant(Fraction(1), depth)
    for j in range(p):
        partial = partial + zpow.scale(Fraction(1, factorial(j)))
        zpow = zpow * z
    dser = (Fps.constant(Fraction(1), depth) - (-z).exp() * partial).scale(
        Fraction(factorial(p - 1))
    )
    num = (z.exp() * dser).scale(Fraction(p))
    v = num.valuation()
    if v is not None and v < p:
        raise ValueError(f"assembled numerator has valuation {v}, below the required {p}")
    series = num / zpow  # zpow is z**p after the loop
    col = _Collector()
    col.meta(f"closed-form incomplete-gamma guard: max quadrature deviation {guard:.3e}")
    for n in range(order + 1):
        col.scalar(n, series.egf_coeff(n), seq.trunc_bell_deg(n, p, lam)(Fraction(1)))
    return col.verdict("P5b", _params(lam, p=p, order=order))


def check_T6(lam, p: int, n_max: int, order: int) -> list[Verdict]:
    """Weighted convolution with higher-order degenerate Bernoulli numbers.

    The correction sum exists in two superscript readings; one call builds
    the left side and the convolution once per n and subtracts each
    reading's correction sum, so the runtime outcome adjudicates between
    them. The first verdict keeps the exponent at p as stated (id T6,
    variant 'fixed'), the second lets it follow the summation index (id T6k,
    variant 'running')."""
    lam = Fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    _require(order >= n_max + p, f"order {order} must be at least n_max+p = {n_max + p}")
    cols = {"fixed": _Collector(), "running": _Collector()}
    x = Poly.x()
    for n in range(n_max + 1):
        lhs = x**p * seq.trunc_bell_deg(n, p, lam)
        conv = Poly.zero()
        for m in range(n + p + 1):
            w = binomial(n + p, m) / binomial(n + p, n) * seq.deg_bernoulli_num(n + p - m, p, lam)
            conv = conv + seq.bell_deg(m, lam) * w
        for variant, col in cols.items():
            rhs = conv
            for k in range(1, p + 1):
                r = p if variant == "fixed" else k
                w = binomial(p, k) / binomial(n + k, n) * seq.deg_bernoulli_num(n + k, r, lam)
                rhs = rhs - Poly.monomial(p - k, w)
            col.poly(n, lhs, rhs)
    return [col.verdict(check_id, _params(lam, p=p, n_max=n_max, order=order, variant=variant))
            for check_id, (variant, col) in zip(("T6", "T6k"), cols.items())]


@lru_cache(maxsize=seq.MEMO_MAXSIZE)
def _operator_core(lam: Fraction, order: int) -> tuple[Fps, Fps]:
    """The p-independent part of the operator route: exp(z) and the entire
    series sum_m (-1)^m z^m/(m+1)!, z the deformed exponential minus one."""
    z = deg_exp(Fraction(1), lam, order) - 1
    core = Fps.constant(Fraction(0), order)
    zpow = Fps.constant(Fraction(1), order)
    for m in range(order + 1):
        core = core + zpow.scale(Fraction((-1) ** m, factorial(m + 1)))
        if m < order:
            zpow = zpow * z
    return z.exp(), core


def _operator_route(lam: Fraction, p: int, order: int) -> Fps:
    """Right side of the differential-operator representation: the core
    series hit p-1 times with the weighted derivative, then multiplied by
    exp(z) and signed."""
    exp_z, cur = _operator_core(lam, order)
    for _ in range(p - 1):
        cur = apply_Dlambda(cur, lam)
    return (exp_z * cur).scale(Fraction((-1) ** (p - 1) * p))


def check_T7(lam, p: int, order: int) -> Verdict:
    """Iterated weighted-derivative representation of the generating
    series; each application of the operator costs one order of depth, so
    coefficients are compared through order-(p-1)."""
    lam = Fraction(lam)
    _require(p >= 1, f"the operator form needs p >= 1, got {p}")
    _require(order >= p, f"order {order} too small for p = {p}")
    series = _operator_route(lam, p, order)
    col = _Collector()
    for n in range(series.order + 1):
        col.scalar(n, series.egf_coeff(n), seq.trunc_bell_deg(n, p, lam)(Fraction(1)))
    col.meta(f"coefficients compared through n = {series.order}")
    return col.verdict("T7", _params(lam, p=p, order=order))


def _convolution_route(lam: Fraction, p: int, n_max: int) -> list[Fraction]:
    """T8 for n = 0..n_max: p * sum_m C(n, m) [sum_l (-1)^l S2deg(m, l) / (p+l)] Bell_{n-m}(1)."""
    inner = _stirling_sums(lam, [Fraction((-1) ** l, p + l) for l in range(n_max + 1)])
    bell_at_1 = [seq.bell_deg(j, lam)(Fraction(1)) for j in range(n_max + 1)]
    return [
        p * sum((binomial(n, m) * inner[m] * bell_at_1[n - m] for m in range(n + 1)), Fraction(0))
        for n in range(n_max + 1)
    ]


def check_T8(lam, p: int, n_max: int, order: int | None = None) -> Verdict:
    """Finite double sum mixing the degenerate Stirling triangle with plain
    family values."""
    lam = Fraction(lam)
    _require(p >= 1, f"the double-sum convolution needs p >= 1, got {p}")
    col = _Collector()
    for n, route in enumerate(_convolution_route(lam, p, n_max)):
        col.scalar(n, route, seq.trunc_bell_deg(n, p, lam)(Fraction(1)))
    return col.verdict("T8", _params(lam, p=p, n_max=n_max, order=order))


# --------------------------------------------------------------------------
# numeric checks


def check_T4(lam, p: int, n_max: int, cfg: NumericConfig) -> Verdict:
    """Double-series representation evaluated in floating point under
    explicit cutoffs, with a per-row tail heuristic."""
    lam = Fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    ncol = _Collector(cfg)
    for n, approx, tail in _double_series(lam, p, n_max, cfg):
        ncol.compare(n, approx, float(seq.trunc_bell_deg(n, p, lam)(Fraction(1))), tail=tail)
    return ncol.verdict("T4", _series_params(lam, cfg, p=p, n_max=n_max))


def check_trig(lam, n_max: int, k_or_p, which: str, cfg: NumericConfig) -> Verdict:
    """Contour quadrature checks on the unit circle.

    which='L9' targets the degenerate Stirling triangle (k_or_p fixes a
    single column, None probes all k <= n), which='C10' the plain family,
    which='T11' the truncated family at truncation k_or_p >= 1. All three
    representations need n >= 1 and |lam| < 1."""
    lam = Fraction(lam)
    _require(which in ("L9", "C10", "T11"), f"unknown contour check {which!r}")
    _require(abs(lam) < 1, f"contour checks need |lambda| < 1, got {lam}")
    _require(n_max >= 1, "contour representations hold for n >= 1 only")
    theta, z, w, floor = _circle_data(lam, cfg.quad_nodes)
    params = _num_params(lam, cfg, n_max=n_max, quad_nodes=cfg.quad_nodes)
    ncol = _Collector(cfg)
    if floor < _BRANCH_FLOOR:
        ncol.ok = False
        ncol.meta(
            "inconclusive-fail: contour approaches the branch point, "
            f"min |1 + lambda*u| = {floor:.3e}"
        )
        return ncol.verdict(which, params)
    if which == "L9":
        if k_or_p is not None:
            _require(k_or_p >= 0, f"column index must be >= 0, got {k_or_p}")
            params["k"] = int(k_or_p)
        for n in range(1, n_max + 1):
            cols = range(n + 1) if k_or_p is None else (k_or_p,)
            for k in cols:
                approx = _contour_coeff(theta, w, z**k / float(factorial(k)), n)
                ncol.compare(n, approx, float(seq.stirling2_deg(n, k, lam)), k=k)
    elif which == "C10":
        f = np.exp(z)
        for n in range(1, n_max + 1):
            approx = _contour_coeff(theta, w, f, n)
            ncol.compare(n, approx, float(seq.bell_deg(n, lam)(Fraction(1))))
    else:
        p = k_or_p
        _require(p is not None and p >= 1, "the truncated contour form needs p >= 1")
        params["p"] = int(p)
        bracket = _contour_bracket(z, p)
        for n in range(1, n_max + 1):
            approx = _contour_coeff(theta, w, bracket, n, factorial(p))
            ncol.compare(n, approx, float(seq.trunc_bell_deg(n, p, lam)(Fraction(1))))
    return ncol.verdict(which, params)


# --------------------------------------------------------------------------
# recurrences and the modified family


def check_T12(lam, p: int, n_max: int, order: int | None = None) -> Verdict:
    """One-step recurrence for the truncated numbers, stated for n >= 2.

    The middle term admits two superscript readings (the truncation index
    kept, or raised by one); both are computed for every n, the variant
    that holds on the stated range is counted, and the other is reported
    informationally, as are the out-of-range rows n in {0, 1}. For p = 0
    the rewritten corollary form with the vanishing lower-bound term is
    checked as well."""
    lam = Fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    col = _Collector()

    # exact values the loops below reuse, each computed once per call
    val = [seq.trunc_bell_deg(j, p, lam)(Fraction(1)) for j in range(n_max + 2)]
    val_raised = [seq.trunc_bell_deg(j, p + 1, lam)(Fraction(1)) for j in range(n_max + 1)]
    ff = _falling_row(lam - 1, lam, n_max + 2)

    results = []
    printed_ok = True
    raised_ok = True
    for n in range(n_max + 1):
        lhs = val[n + 1]
        base = (Fraction(n + 1) - Fraction(n) * lam) * val[n]
        tail = Fraction(0)
        for m in range(n - 1):
            tail += binomial(n, m) * val[m + 1] * ff[n - m]
        r_printed = base - Fraction(p, p + 1) * val[n] - tail
        r_raised = base - Fraction(p, p + 1) * val_raised[n] - tail
        results.append((n, lhs, r_printed, r_raised))
        if n >= 2:
            printed_ok = printed_ok and r_printed == lhs
            raised_ok = raised_ok and r_raised == lhs
    counted_variant = "printed" if printed_ok or not raised_ok else "raised-index"
    for n, lhs, r_printed, r_raised in results:
        counted_rhs = r_printed if counted_variant == "printed" else r_raised
        other_rhs = r_raised if counted_variant == "printed" else r_printed
        if n < 2:
            col.info(
                n, -1, lhs, counted_rhs,
                "informational, below stated range: printed-form match="
                f"{r_printed == lhs}, raised-index match={r_raised == lhs}",
            )
            continue
        col.scalar(n, lhs, counted_rhs, note=f"counted variant: {counted_variant}")
        if other_rhs != counted_rhs:
            col.info(n, -1, lhs, other_rhs, "non-counted middle-term variant (informational)")
    col.meta(
        f"middle-term exponent probe over n >= 2: printed form holds={printed_ok}, "
        f"raised-index form holds={raised_ok}; counted variant: {counted_variant}"
    )
    if p == 0:
        for n in range(n_max + 1):
            lhs = val[n + 1]
            rhs = (Fraction(n + 1) - Fraction(n) * lam) * val[n]
            for m in range(n):
                # the m = 0 term carries a binomial at lower index -1,
                # taken as 0 by convention
                rhs -= binomial(n, m - 1) * val[m] * ff[n - m + 1]
            note = "rewritten corollary form"
            if n < 2:
                note += " (informational, below stated range)"
            col.scalar(n, lhs, rhs, note=note, counted=n >= 2)
    return col.verdict("T12", _params(lam, p=p, n_max=n_max, order=order))


def check_T13(lam, n_max: int) -> Verdict:
    """Shifted-argument Stirling polynomials: finite-sum construction
    against the generating-series construction, for every pair l <= n."""
    lam = Fraction(lam)
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


def check_T14_T15_T16(lam, p: int, n_max: int, order: int, cfg: NumericConfig,
                      x_points=None) -> list[Verdict]:
    """The modified truncated family: dual construction plus the printed
    and corrected convolution variants (T14), the double-series evaluation
    at fixed rational points (T15), and the one-step recurrence (T16)."""
    lam = Fraction(lam)
    _require(p >= 0, f"p must be >= 0, got {p}")
    _require(order >= n_max, f"order {order} must be at least n_max {n_max}")
    if x_points is None:
        x_points = (Fraction(0), Fraction(1), Fraction(1, 2))
    x_points = tuple(Fraction(x) for x in x_points)

    # exact values the loops below reuse, each computed once per call
    mod_p = [seq.trunc_mod_bell_deg(j, p, lam) for j in range(n_max + 2)]
    mod_p1 = [seq.trunc_mod_bell_deg(j, p + 1, lam) for j in range(n_max + 1)]
    const = [seq.trunc_bell_deg(m, p, lam)(Fraction(1)) for m in range(n_max + 1)]

    c14 = _Collector()
    literal_bad = 0
    for n in range(n_max + 1):
        target = mod_p[n]
        c14.poly(n, target, seq.trunc_mod_bell_deg_egf(n, p, lam, order))
        corrected = Poly.zero()
        literal = Poly.zero()
        for m in range(n + 1):
            w = binomial(n, m)
            ff = seq.deg_falling_factorial_poly(n - m, lam)
            corrected = corrected + ff * (w * const[m])
            literal = literal + ff * (w * const[n])
        c14.poly(n, target, corrected, note="convolution route, raised series index")
        if literal != target:
            literal_bad += 1
            c14.info(n, -1, target.to_string(), literal.to_string(),
                     "convolution route, printed constant index (informational)")
    c14.meta(
        f"printed-index convolution variant mismatches on {literal_bad} of "
        f"{n_max + 1} rows (informational)"
    )
    v14 = c14.verdict("T14", _params(lam, p=p, n_max=n_max, order=order))

    c15 = _Collector(cfg)
    # x-independent inner sums sum_k S2deg(m2, k) / C(p+k, k)
    inner = _stirling_sums(lam, [1 / binomial(p + k, k) for k in range(n_max + 1)])
    for x in x_points:
        ffx = _falling_row(x, lam, n_max + 1)
        for n, approx, tail in _double_series(lam, p, n_max, cfg, float(x)):
            exact = Fraction(0)
            for m2 in range(n + 1):
                ff = ffx[n - m2]
                if ff == 0:
                    continue
                exact += binomial(n, m2) * inner[m2] * ff
            c15.compare(n, approx, float(exact), label=f"x={x}", tail=tail)
    v15 = c15.verdict("T15", _series_params(lam, cfg, p=p, n_max=n_max,
                                            x_points=[str(x) for x in x_points]))

    c16 = _Collector()
    ff1 = _falling_row(Fraction(1), lam, n_max + 1)
    for n in range(n_max + 1):
        lhs = mod_p[n + 1]
        rhs = (Poly.x() - Fraction(n) * lam) * mod_p[n]
        for j in range(n + 1):
            w = binomial(n, j) * ff1[n - j]
            if w == 0:
                continue
            rhs = rhs - (mod_p1[j] * Fraction(p, p + 1) - mod_p[j]) * w
        c16.poly(n, lhs, rhs)
    v16 = c16.verdict("T16", _params(lam, p=p, n_max=n_max))
    return [v14, v15, v16]


def _moment_route(lam: Fraction, p: int, n_max: int) -> list[Fraction]:
    """Exact half of S3 for n = 0..n_max: sum_k S2deg(n, k) E[X^k], with
    E[X^k] = B(k+1, p) / B(1, p)."""
    b0 = beta_exact(1, p)
    return _stirling_sums(lam, [beta_exact(k + 1, p) / b0 for k in range(n_max + 1)])


def check_S3(lam, p: int, n_max: int, cfg: NumericConfig) -> list[Verdict]:
    """Moment identity for the unit-interval distribution with density
    p(1-x)^(p-1): exactly through beta values, then by seeded Monte Carlo
    with inverse-transform sampling and a four-standard-error band."""
    lam = Fraction(lam)
    _require(p >= 1, f"the moment identity needs p >= 1, got {p}")
    targets = [seq.trunc_bell_deg(n, p, lam)(Fraction(1)) for n in range(n_max + 1)]
    col = _Collector()
    for n, route in enumerate(_moment_route(lam, p, n_max)):
        col.scalar(n, route, targets[n])
    v_exact = col.verdict("S3", _params(lam, p=p, n_max=n_max))

    entropy = int.from_bytes(hashlib.sha256(b"S3").digest()[:8], "big")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, entropy])))
    u = rng.random(cfg.mc_samples)
    x = 1.0 - u ** (1.0 / p)
    pows = [np.ones_like(x)]
    for _ in range(n_max):
        pows.append(pows[-1] * x)
    mc = _Collector()
    for n in range(n_max + 1):
        y = np.zeros_like(x)
        for k in range(n + 1):
            c = float(seq.stirling2_deg(n, k, lam))
            if c:
                y = y + c * pows[k]
        mc.band(n, float(y.mean()), targets[n], float(y.std(ddof=1) / np.sqrt(cfg.mc_samples)))
    params = _params(lam, p=p, n_max=n_max, mc_samples=cfg.mc_samples, seed=cfg.seed)
    return [v_exact, mc.verdict("S3", params)]


# --------------------------------------------------------------------------
# the six-expression composite


_CSIX_ROUTES = {
    1: "unit-interval integral of the plain polynomial family",
    2: "double-series representation (numeric)",
    3: "alternating finite double sum",
    4: "convolution with plain-family values",
    5: "contour quadrature (numeric)",
    6: "distribution-moment sum",
}


def check_CSIX(lam, p: int, n_max: int, cfg: NumericConfig) -> Verdict:
    """All six closing expressions for the truncated numbers against the
    basis construction, each route computed by the function its own check
    uses: exact routes must match exactly, numeric routes within tolerance.
    The detail k field carries the route number."""
    lam = Fraction(lam)
    _require(p >= 1, f"the six-expression display needs p >= 1, got {p}")
    ncol = _Collector(cfg)
    bracket = None
    if abs(lam) < 1:
        theta, z, w, floor = _circle_data(lam, cfg.quad_nodes)
        if floor < _BRANCH_FLOOR:
            ncol.meta("route 5 skipped: contour approaches the branch point")
        else:
            bracket = _contour_bracket(z, p)
            ncol.meta("route 5 evaluated for n >= 1 only: the contour form needs positive n")
    else:
        ncol.meta("route 5 skipped: |lambda| >= 1 keeps the contour off the principal branch")

    beta = _beta_route(lam, p, n_max)
    alternating = _alternating_route(lam, p, n_max)
    convolution = _convolution_route(lam, p, n_max)
    moment = _moment_route(lam, p, n_max)
    for n, series, tail in _double_series(lam, p, n_max, cfg):
        ref = seq.trunc_bell_deg(n, p, lam)(Fraction(1))
        ncol.scalar(n, beta[n], ref, 1, _CSIX_ROUTES[1])
        ncol.compare(n, series, ref, k=2, label=_CSIX_ROUTES[2], tail=tail)
        ncol.scalar(n, alternating[n], ref, 3, _CSIX_ROUTES[3])
        ncol.scalar(n, convolution[n], ref, 4, _CSIX_ROUTES[4])
        if bracket is not None and n >= 1:
            contour = _contour_coeff(theta, w, bracket, n, factorial(p))
            ncol.compare(n, contour, ref, k=5, label=_CSIX_ROUTES[5])
        ncol.scalar(n, moment[n], ref, 6, _CSIX_ROUTES[6])

    params = _series_params(lam, cfg, p=p, n_max=n_max, quad_nodes=cfg.quad_nodes)
    return ncol.verdict("C-SIX", params)


# --------------------------------------------------------------------------
# the check registry


@dataclass(frozen=True)
class _Args:
    """What a registry runner reads besides lambda and p."""

    n_max: int
    order: int
    cfg: NumericConfig
    x_points: tuple | None = None
    k: int | None = None  # the one fixed column of the L9 triangle check


@dataclass(frozen=True)
class CheckSpec:
    """One registry entry. run(lam, p, args) returns the verdicts of the
    ids it emits. The suite runs an entry once per lambda when p_min is
    None (the check takes no p), else once per grid p >= p_min. Contour
    entries need |lambda| < 1 and are recorded as skipped outside it.
    Uncounted entries report on a statement/derivation conflict and never
    decide an exit code. Runners call checks by their module-level names,
    so rebinding a check (as a tracer does) reaches every caller."""

    ids: tuple
    run: Callable
    p_min: int | None
    contour: bool = False
    counted: bool = True


CHECKS = (
    CheckSpec(("T1",), lambda lam, p, a: [check_T1(lam, p, a.n_max, a.order)], 0),
    CheckSpec(("T2",), lambda lam, p, a: [check_T2(lam, a.n_max, a.order)], None),
    CheckSpec(("P3",), lambda lam, p, a: [check_P3(lam, p, a.n_max)], 0),
    CheckSpec(("T4",), lambda lam, p, a: [check_T4(lam, p, a.n_max, a.cfg)], 0),
    CheckSpec(("P5a",), lambda lam, p, a: [check_P5a(lam, p, a.n_max)], 1),
    CheckSpec(("P5b",), lambda lam, p, a: [check_P5b(lam, p, a.order)], 1),
    CheckSpec(("T6", "T6k"), lambda lam, p, a: check_T6(lam, p, a.n_max, a.order), 0,
              counted=False),
    CheckSpec(("T7",), lambda lam, p, a: [check_T7(lam, p, a.order)], 1),
    CheckSpec(("T8",), lambda lam, p, a: [check_T8(lam, p, a.n_max, a.order)], 1),
    CheckSpec(("L9",), lambda lam, p, a: [check_trig(lam, a.n_max, a.k, "L9", a.cfg)],
              None, contour=True),
    CheckSpec(("C10",), lambda lam, p, a: [check_trig(lam, a.n_max, None, "C10", a.cfg)],
              None, contour=True),
    CheckSpec(("T11",), lambda lam, p, a: [check_trig(lam, a.n_max, p, "T11", a.cfg)],
              1, contour=True),
    CheckSpec(("T12",), lambda lam, p, a: [check_T12(lam, p, a.n_max, a.order)], 0),
    CheckSpec(("T13",), lambda lam, p, a: [check_T13(lam, a.n_max)], None),
    CheckSpec(("T14", "T15", "T16"),
              lambda lam, p, a: check_T14_T15_T16(lam, p, a.n_max, a.order, a.cfg, a.x_points),
              0),
    CheckSpec(("S3",), lambda lam, p, a: check_S3(lam, p, a.n_max, a.cfg), 1),
    CheckSpec(("C-SIX",), lambda lam, p, a: [check_CSIX(lam, p, a.n_max, a.cfg)], 1),
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
    x_points: tuple = (Fraction(0), Fraction(1), Fraction(1, 2))


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
        statuses = [v.status for v in verdicts if v.check_id == vid]
        if not statuses:
            continue
        if all(s == "pass" for s in statuses):
            outcomes[vid] = "pass"
        elif all(s == "fail" for s in statuses):
            outcomes[vid] = "fail"
        else:
            outcomes[vid] = "mixed"
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


def _run_lambda(lam, ps, args: _Args) -> tuple[list[Verdict], list[dict]]:
    """One lambda slice of the suite: the verdicts and the skip records of
    every registry entry at lam, in registry order."""
    lam = Fraction(lam)
    verdicts: list[Verdict] = []
    skipped: list[dict] = []
    for check in CHECKS:
        check_ps = (None,) if check.p_min is None else [p for p in ps if p >= check.p_min]
        for p in check_ps:
            if check.contour and abs(lam) >= 1:
                skipped.append({"id": check.ids[0], **_params(lam, p=p),
                                "reason": "|lambda| >= 1 is outside the contour domain"})
            else:
                verdicts.extend(check.run(lam, p, args))
    return verdicts, skipped


def run_suite(grid: SuiteGrid | None = None, cfg: NumericConfig | None = None) -> SuiteReport:
    """Run every registered check over the grid. Failures are data, not
    errors; ordering of the verdict list is deterministic.

    On Linux the lambda slices run side by side in a pool of forked worker
    processes, one per lambda up to the number of CPUs this process may use;
    with one lambda, one usable CPU or on another platform they run in a
    plain loop in this process. The slices share no work (each check seeds
    its own generator and the memos are keyed by lambda) and are joined in
    grid order, so the report is byte-identical to the loop's. Memos fill
    inside the workers: a second call in the same process starts cold, and
    as each worker bounds its memos by sequences.MEMO_MAXSIZE on its own,
    memo memory is at most the worker count times that bound. Workers are
    forked rather than spawned, so they start without re-importing numpy
    and this package; only Python 3.11.7 was measured, and forking a process
    that runs threads (which Python 3.12+ warns about) is unverified."""
    grid = grid or SuiteGrid()
    cfg = cfg or NumericConfig()
    for p in grid.ps:
        _require(p >= 0, f"truncation index p must be >= 0, got {p}")
    args = _Args(grid.n_max, grid.order, cfg, grid.x_points)
    workers = min(len(grid.lambdas), len(os.sched_getaffinity(0))) if sys.platform == "linux" else 1
    if workers > 1:
        # imported here: importing the package stays free of the pool's imports
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            slices = list(pool.map(_run_lambda, grid.lambdas, repeat(grid.ps), repeat(args)))
    else:
        slices = [_run_lambda(lam, grid.ps, args) for lam in grid.lambdas]
    verdicts = [v for slice_verdicts, _ in slices for v in slice_verdicts]
    skipped = [s for _, slice_skipped in slices for s in slice_skipped]
    verdicts.sort(key=_verdict_sort_key)
    return SuiteReport(verdicts=verdicts, summary=_summarize(verdicts, skipped, grid, cfg))


# --------------------------------------------------------------------------
# single-check dispatch (used by the command line)


def run_check(check_id: str, lam, *, p=None, k=None, n_max=10, order=24,
              cfg: NumericConfig | None = None, x_points=None) -> list[Verdict]:
    """Run the registry entry that emits check_id at one point. The stated
    id of an uncounted (adjudicated) entry returns every variant it emits;
    any other id returns only its own verdicts."""
    cfg = cfg or NumericConfig()
    lam = Fraction(lam)
    check = _CHECK_BY_ID.get(check_id)
    if check is None:
        raise ValueError(f"unknown identity id: {check_id}")
    if check.p_min is not None and p is None:
        raise ValueError(f"check {check_id} requires p")
    verdicts = check.run(lam, p, _Args(n_max, order, cfg, x_points, k))
    if not check.counted and check_id == check.ids[0]:
        return verdicts
    return [v for v in verdicts if v.check_id == check_id]


def verdicts_to_json_text(verdicts: list[Verdict]) -> str:
    return json.dumps([v.to_json_dict() for v in verdicts], sort_keys=True, indent=2) + "\n"


def report_to_json_text(report: SuiteReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"

"""Double-precision kernels for the paper's analytic representations.

Contour quadrature on the unit circle, the truncated double series and the
Monte Carlo estimate of the beta-moment identity are the package's only
float code. The check engine (verify) supplies what to integrate (the
contour integrands, the coefficients of the moment sums) and judges the
results against exact values; nothing here reads the sequence families.
Equal arguments give bit-identical floats, the seeded Monte Carlo stream
included, and arrays a memo hands out are read-only. Importing this module
imports numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, pi

import numpy as np

from .sequences import MEMO_MAXSIZE

_BRACKET_TERMS = 60  # series depth for the entire-function contour bracket
_S3_ENTROPY = 4960337475862901380  # S3's stream key: sha256(b"S3")[:8], big-endian


def _simpson_weights(panels: int, length: float) -> np.ndarray:
    # composite Simpson over a uniform grid with `panels` subintervals, an
    # even count (NumericConfig validates quad_nodes)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (length / panels / 3.0)


@lru_cache(maxsize=MEMO_MAXSIZE)
def circle_data(lam: Fraction, panels: int):
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


def contour_bracket(z: np.ndarray, p: int) -> np.ndarray:
    """The integrand bracket exp(z)/z^p minus the first p inverse-power
    terms, evaluated as the entire series sum_m z^m/(m+p)! to dodge the
    cancellation the literal form suffers."""
    acc = np.zeros_like(z)
    for m in range(_BRACKET_TERMS, -1, -1):
        acc = acc * z + 1.0 / float(factorial(m + p))
    return acc


def contour_coeff(theta: np.ndarray, w: np.ndarray, f: np.ndarray, n: int,
                  scale: int = 1) -> float:
    """scale * n!/pi times the quadrature of Im f * sin(n theta) over the
    unit circle: the contour form of the n-th coefficient, n >= 1, of the
    function whose values on the contour are f."""
    return factorial(n) * scale / pi * float(w @ (np.imag(f) * np.sin(n * theta)))


@lru_cache(maxsize=MEMO_MAXSIZE)
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


def double_series(lam: Fraction, p: int, n_max: int, cfg, x: float = 0.0):
    """Double-series value of the modified truncated family at x under the
    cutoffs of cfg (a verify.NumericConfig; at x = 0 the truncated
    numbers), yielding (n, approx, tail) for n = 0..n_max; tail is the size
    of the last kept row and column, a heuristic for what the cutoffs
    dropped."""
    m, rowsums = _series_weight_matrix(p, cfg.series_cutoff_k, cfg.series_cutoff_l)
    lamf = float(lam)
    ks = np.arange(cfg.series_cutoff_k + 1, dtype=np.float64)
    fall = np.ones_like(ks)
    for n in range(n_max + 1):
        if n > 0:
            fall = fall * (x + ks - (n - 1) * lamf)
        tail = abs(float(fall[-1] * rowsums[-1])) + abs(float(fall @ m[:, -1]))
        yield n, float(fall @ rowsums), tail


def beta_moments(seed: int, p: int, samples: int, coeffs: list):
    """Monte Carlo estimates of E[sum_k c[k] X^k] for X with density
    p(1-x)^(p-1) on [0, 1], one per coefficient row c of coeffs, row n
    holding c[0..n]: inverse-transform samples X = 1 - U^(1/p) from S3's
    stream, keyed by (seed, _S3_ENTROPY). Yields (mean, standard error)
    per row."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _S3_ENTROPY])))
    u = rng.random(samples)
    x = 1.0 - u ** (1.0 / p)
    pows = [np.ones_like(x)]
    for _ in range(len(coeffs) - 1):
        pows.append(pows[-1] * x)
    for row in coeffs:
        y = np.zeros_like(x)
        for c, power in zip(row, pows):
            if c:
                y = y + c * power
        yield float(y.mean()), float(y.std(ddof=1) / np.sqrt(samples))

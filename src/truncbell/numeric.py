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


@lru_cache(maxsize=MEMO_MAXSIZE)
def circle_data(lam: Fraction, nodes: int):
    """Deformed exponential minus one at the trapezoid nodes e^(2 pi i j/nodes),
    j = 0..nodes-1, of the unit circle, and min |1 + lam*u| over them.
    Principal branch throughout; callers must keep |lam| < 1 so 1 + lam*u
    stays clear of the negative real axis on the contour."""
    u = np.exp(2j * pi * np.arange(nodes) / nodes)
    base = 1.0 + float(lam) * u
    z = (np.exp(u) if lam == 0 else np.exp(np.log(base) / float(lam))) - 1.0
    z.setflags(write=False)
    return z, float(np.abs(base).min())


def contour_bracket(z: np.ndarray, p: int) -> np.ndarray:
    """p! times the integrand bracket exp(z)/z^p minus the first p
    inverse-power terms, evaluated as the entire series
    sum_m z^m p!/(m+p)! to dodge the cancellation the literal form suffers,
    nested as 1 + z/(p+1) (1 + z/(p+2) (...)) so that no factorial is formed."""
    acc = np.ones_like(z)
    for m in range(_BRACKET_TERMS, 0, -1):
        acc = 1.0 + acc * z / (p + m)
    return acc


def contour_coeffs(f: np.ndarray, n_max: int) -> np.ndarray:
    """n! times the n-th Taylor coefficient, n = 0..n_max, of a function
    real on the real axis whose values at the nodes of circle_data are f
    (along the last axis), by the trapezoid rule: coefficient n >= 1 is
    -(2/N) Im F[n] for F the real FFT of Im f, and coefficient 0 is the
    mean of Re f. Coefficients alias unless 2*n_max < N."""
    out = np.fft.rfft(np.imag(f))[..., :n_max + 1].imag * (-2.0 / f.shape[-1])
    out[..., 0] = np.real(f).mean(axis=-1)
    return out * np.array([float(factorial(n)) for n in range(n_max + 1)])


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

"""Double-precision kernels for the paper's analytic representations.

Contour quadrature on the unit circle, the truncated double series and the
Monte Carlo estimate of the beta-moment identity are the package's only
float code. The check engine (verify) supplies what to integrate (the
contour integrands, the coefficients of the moment sums) and judges the
results against exact values; nothing here reads the sequence families.
Equal arguments give bit-identical floats, the seeded Monte Carlo stream
included, and arrays a memo hands out are read-only. The Monte Carlo
estimate reads every row from one memoized vector of sample moments, keyed
by (seed, p, samples) and not by lambda, so the samples are drawn once per
key and never kept. Importing this module imports numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isfinite, pi, sqrt

import numpy as np

from .sequences import MEMO_MAXSIZE

_BRACKET_TERMS = 60  # series depth for the entire-function contour bracket
_S3_ENTROPY = 4960337475862901380  # S3's stream key: sha256(b"S3")[:8], big-endian
_EPS = float(np.finfo(np.float64).eps)
_HANKEL_MARGIN = 1e6  # a trusted Hankel variance has a relative rounding error under 1e-6


@lru_cache(maxsize=MEMO_MAXSIZE)
def circle_data(lam: Fraction, nodes: int):
    """Deformed exponential minus one at the trapezoid nodes e^(2 pi i j/nodes),
    j = 0..nodes-1, of the unit circle, and min |1 + lam*u| over them.
    Principal branch throughout; callers must keep |lam| < 1 so 1 + lam*u
    stays clear of the negative real axis on the contour. The real part of
    log(1 + lam*u), which lam divides, is log1p(t)/2 where |t| < 1/2, with
    t = |1 + lam*u|^2 - 1 formed as a(2 + a) + b^2 from lam*u = a + ib, free
    of the rounding of 1 + a; a lam that is 0 as a float takes exp(u)."""
    u = np.exp(2j * pi * np.arange(nodes) / nodes)
    w = float(lam) * u
    base = 1.0 + w
    t = w.real * (2.0 + w.real) + w.imag**2
    near = np.abs(t) < 0.5
    log_abs = np.log(np.abs(base), where=~near, out=np.empty(nodes))
    log_abs[near] = 0.5 * np.log1p(t[near])
    log_base = log_abs + 1j * np.angle(base)
    z = (np.exp(u) if float(lam) == 0 else np.exp(log_base / float(lam))) - 1.0
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
    dropped. A row whose value or tail is not finite raises OverflowError."""
    m, rowsums = _series_weight_matrix(p, cfg.series_cutoff_k, cfg.series_cutoff_l)
    lamf = float(lam)
    ks = np.arange(cfg.series_cutoff_k + 1, dtype=np.float64)
    fall = np.ones_like(ks)
    for n in range(n_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or nan
            if n > 0:
                fall = fall * (x + ks - (n - 1) * lamf)
            approx = float(fall @ rowsums)
            tail = abs(float(fall[-1] * rowsums[-1])) + abs(float(fall @ m[:, -1]))
        if not (isfinite(approx) and isfinite(tail)):
            raise OverflowError(f"double-series row n = {n} is not finite")
        yield n, approx, tail


def _samples(seed: int, p: int, samples: int) -> np.ndarray:
    """S3's inverse-transform samples X = 1 - U^(1/p) of the density
    p(1-x)^(p-1) on [0, 1], from the stream keyed by (seed, _S3_ENTROPY)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _S3_ENTROPY])))
    return 1.0 - rng.random(samples) ** (1.0 / p)


@lru_cache(maxsize=MEMO_MAXSIZE)
def _sample_moments(seed: int, p: int, samples: int, kmax: int) -> np.ndarray:
    """m[k] = mean of X^k over S3's samples, k = 0..kmax, from one draw of
    them; only the moments are kept, never the samples."""
    x = _samples(seed, p, samples)
    power = np.ones_like(x)
    m = np.empty(kmax + 1)
    m[0] = 1.0
    for k in range(1, kmax + 1):
        power *= x
        m[k] = power.mean()
    m.setflags(write=False)
    return m


def beta_moments(seed: int, p: int, samples: int, coeffs: list):
    """Monte Carlo estimates of E[sum_k c[k] X^k] for X with density
    p(1-x)^(p-1) on [0, 1], one per coefficient row c of coeffs, row n
    holding c[0..n]. Yields (mean, standard error) per row, the standard
    error being the sample standard deviation (ddof=1) over sqrt(samples).

    By linearity both come from the sample moments m of _sample_moments,
    memoized by (seed, p, samples) and the longest row: the mean is c.m
    and the second moment c^T H c with H[j, k] = m[j + k]. That quadratic
    form can cancel, so its variance is used only when it is finite and
    exceeds _HANKEL_MARGIN times its rounding bound
    8 (d + log2(samples) + 16) eps |c|^T H |c| for a row of length d (H is
    entrywise >= 0, as X lies in [0, 1]). Any other row is summed directly
    over the samples, drawn again from the same seeded stream, so a
    cancelling row is never clipped. A row with c[1:] all zero is a
    constant and has no spread."""
    d_max = max(map(len, coeffs), default=1)
    m = _sample_moments(seed, p, samples, 2 * (d_max - 1))
    x = None
    for row in coeffs:
        c = np.asarray(row, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf
            est = _hankel_estimate(c, m, samples)
            if est is None:
                if x is None:
                    x = _samples(seed, p, samples)
                y = np.polynomial.polynomial.polyval(x, c)
                est = float(y.mean()), float(y.std(ddof=1) / np.sqrt(samples))
        yield est


def _hankel_estimate(c: np.ndarray, m: np.ndarray, samples: int):
    """(mean, standard error) of the row c from the sample moments m, or
    None when the Hankel variance is not finite or does not clear its
    rounding bound by _HANKEL_MARGIN (see beta_moments)."""
    d = len(c)
    mean = float(c @ m[:d])
    if not c[1:].any():
        return mean, 0.0
    h = m[np.add.outer(np.arange(d), np.arange(d))]
    var = float(c @ h @ c) - mean * mean
    bound = 8 * (d + samples.bit_length() + 16) * _EPS * float(np.abs(c) @ h @ np.abs(c))
    if isfinite(var) and var > _HANKEL_MARGIN * bound:
        return mean, sqrt(var / (samples - 1))
    return None

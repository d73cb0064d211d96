"""Double-precision kernels for the paper's analytic representations.

Contour quadrature on the unit circle, the truncated double series and the
lattice moments of the beta-moment identity are the package's only float
code. The check engine (verify) supplies what to integrate (the contour
integrands, the coefficients of the moment sums) and judges the results
against exact values; nothing here reads the sequence families. No kernel
draws a random number: equal arguments give bit-identical floats, and
arrays a memo hands out are read-only. Importing this module imports numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isfinite, pi

import numpy as np

from .sequences import MEMO_MAXSIZE

_BRACKET_TERMS = 60  # series depth for the entire-function contour bracket
_UNIT_ROUNDOFF = 2.0**-53
_TINY = float(np.finfo(np.float64).tiny)  # the least normal double


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


def lattice_moments(p: int, nodes: int, kmax: int) -> np.ndarray:
    """m[k] = (1/N) sum_i X_i^k, k = 0..kmax, over the N = nodes points of
    the centred lattice u_i = (i - 1/2)/N mapped by the inverse distribution
    function X = 1 - u^(1/p) of the density p(1-x)^(p-1) on [0, 1].

    The lattice's star discrepancy is 1/(2N), and the map is monotone, so
    for g of bounded variation V(g) on [0, 1] the Koksma-Hlawka inequality
    gives |(1/N) sum_i g(X_i) - E[g(X)]| <= V(g)/(2N) (Niederreiter, Random
    Number Generation and Quasi-Monte Carlo Methods, SIAM 1992, Thm 2.11).
    A node power below the normal range raises OverflowError: the rounding
    model of lattice_rounding assumes that none underflows."""
    x = 1.0 - ((np.arange(nodes) + 0.5) / nodes) ** (1.0 / p)
    power = np.ones_like(x)
    m = np.empty(kmax + 1)
    m[0] = 1.0
    for k in range(1, kmax + 1):
        power *= x
        if power[-1] < _TINY:  # the last node is the smallest
            raise OverflowError(f"lattice node power X^{k} at p = {p} underflows the "
                                f"normal float range over {nodes} nodes")
        m[k] = power.mean()
    return m


def lattice_rounding(nodes: int, kmax: int) -> float:
    """gamma_M = M u / (1 - M u) for M = N + (kmax + 1)(b + 14), with
    u = 2^-53, N = nodes and b = (2N).bit_length(): a bound, relative to
    W = sum_k |c_k|, on every rounding error between the float comparison
    that verify's S3 makes of c.m with an exact value E and the same
    comparison in exact arithmetic over the exact lattice moments.

    Model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    SIAM 2002, ch. 2-3): each operation rounds with relative error <= u, no
    value over- or underflows (lattice_moments refuses an underflow, the
    float conversions refuse an overflow), numpy's power is within 4 ulps
    (relative error 8u), and a sum or dot product of d terms in any order
    is within gamma_d of the exact one, relative to its absolute terms.
    - Node: (i - 1/2)/N and 1/p carry relative error u each. As
      t >= 1/(2N), the exponent's error is scaled by |ln t| <= ln 2N, so
      y = t^(1/p) in [0, 1] is off by at most (10 + ln 2N)u and X = 1 - y
      adds u: the float node Xf has |Xf - X| <= a u, a = 11 + b > 11 + ln 2N.
    - Moment k <= kmax: on [0, 1], |Xf^k - X^k| <= k a u; the k - 1
      products, the N - 1 additions and the division by N add gamma_(N+k-1)
      relative to a mean of numbers in [0, 1], so the float moment is within
      gamma_(N + (a+1)k) of the exact one, and itself in [0, 1].
    - Row of d = kmax + 1 terms: converting each c_k to float (u), the dot
      product with the float moments (gamma_(d+1)), the moments' own error,
      converting E to float (u|E| <= uW, as |E| <= W when the identity
      holds), the subtraction and the bound's own evaluation (6u of a bound
      that is below W) add up to gamma_(N + (a+1)kmax + d + 9) W, within
      gamma_M W."""
    m = nodes + (kmax + 1) * ((2 * nodes).bit_length() + 14)
    return m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)

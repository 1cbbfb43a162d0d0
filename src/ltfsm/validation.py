"""Statistical machinery for the Monte Carlo validation protocol.

Scale convention: a symmetric alpha-stable variate with scale ``sigma`` has
``|E exp(i u X)| = exp(-(sigma |u|)**alpha)`` (so a centered Gaussian with
variance 2 has sigma = 1 at alpha = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import _check_stable_alpha

__all__ = [
    "CfEstimate",
    "empirical_cf",
    "linreg_r2",
    "ks_distance",
    "fit_scale_by_cf",
    "holder_exponent_estimate",
]

# Points per block of the KS statistic's CDF gaps (``ks_distance``).
_KS_BLOCK = 1 << 14


@dataclass(frozen=True)
class CfEstimate:
    """Empirical characteristic function of a path ensemble at one frequency.

    ``stderr`` is the per-time Monte Carlo standard error of the modulus
    (delta method on the mean cosine/sine pair).
    """

    u: float
    re: np.ndarray
    im: np.ndarray
    stderr: np.ndarray

    @property
    def modulus(self) -> np.ndarray:
        return np.hypot(self.re, self.im)


def empirical_cf(samples: np.ndarray, u: float) -> CfEstimate:
    """Empirical CF of ``samples`` (rows = paths, columns = time points).

    A 1-d input is treated as a single time point.  Requires at least two
    paths.  Works in three arrays of the input's size: the cosines and
    sines are centred and squared in place, by the ufuncs that
    ``ndarray.var(ddof=1)`` runs, in its order, so the result is bitwise
    that of ``var``.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("samples must be a matrix with at least 2 paths (rows)")
    n = x.shape[0]
    sin = u * x
    cos = np.cos(sin)
    np.sin(sin, out=sin)
    re = cos.mean(axis=0)
    im = sin.mean(axis=0)
    np.subtract(cos, re, out=cos)
    np.subtract(sin, im, out=sin)
    cov = (cos * sin).sum(axis=0) / (n - 1) / n
    var_c = np.square(cos, out=cos).sum(axis=0) / (n - 1) / n
    var_s = np.square(sin, out=sin).sum(axis=0) / (n - 1) / n
    mod = np.hypot(re, im)
    safe = np.maximum(mod, 1e-300)
    stderr = np.sqrt(
        np.maximum(re**2 * var_c + im**2 * var_s + 2.0 * re * im * cov, 0.0)
    ) / safe
    return CfEstimate(u=float(u), re=re, im=im, stderr=stderr)


def _sum_of_squares(v: np.ndarray, name: str) -> float:
    """``sum(v**2)``; ``ValueError`` naming ``name`` when it leaves the float
    range, where a line fit would report a slope of 0 and R^2 = 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(v**2))
    if not math.isfinite(total):
        raise ValueError(f"the sum of squares of {name} leaves the float range")
    return total


def linreg_r2(x, y) -> tuple[float, float, float]:
    """Ordinary least squares of y on x: (slope, intercept, r_squared).

    Conventions: constant ``x`` is a domain error, and so is a sum of
    squares that is not finite (``x`` or ``y`` spread over more than about
    ``1e154``); constant ``y`` gives r_squared = 1 when the residuals
    vanish, else 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("x and y must be equal-length 1-d arrays, length >= 2")
    xm = x.mean()
    ym = y.mean()
    sxx = _sum_of_squares(x - xm, "x")
    if sxx == 0.0:
        raise ValueError("x must not be constant")
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    residuals = y - (slope * x + intercept)
    ss_res = _sum_of_squares(residuals, "the residuals")
    ss_tot = _sum_of_squares(y - ym, "y")
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    The supremum is attained at a sample point, so the CDF gap is evaluated
    over each sample's own sorted points, ``_KS_BLOCK`` at a time: besides
    the two sorted copies, the statistic holds only one block's indices and
    gaps (bitwise the gap over the pooled points)."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    gap = 0.0
    for points in (a, b):
        for start in range(0, len(points), _KS_BLOCK):
            block = points[start : start + _KS_BLOCK]
            cdf = np.searchsorted(a, block, side="right") / len(a)
            cdf -= np.searchsorted(b, block, side="right") / len(b)
            gap = max(gap, float(np.max(np.abs(cdf, out=cdf))))
    return gap


def fit_scale_by_cf(samples, alpha: float) -> float:
    """Scale of a symmetric alpha-stable sample by CF matching.

    Least-squares fit of ``log(-log |empirical CF(u)|)`` against
    ``alpha * log u`` with unit slope; the intercept is ``alpha * log sigma``.
    The frequencies are ``(0.2, 0.4, 0.6, 0.8, 1.0)`` divided by the median
    absolute sample value, which keeps the moduli well inside (0, 1).
    """
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    _check_stable_alpha(alpha)
    base = float(np.median(np.abs(x), overwrite_input=True))
    if base <= 0.0:
        raise ValueError("degenerate sample: median absolute value is 0")
    u_grid = np.array([0.2, 0.4, 0.6, 0.8, 1.0]) / base
    work = np.empty_like(x)
    mods = np.empty(len(u_grid))
    for i, u in enumerate(u_grid):
        np.multiply(u, x, out=work)
        re = np.cos(work).mean()
        mods[i] = np.hypot(re, np.sin(work, out=work).mean())
    usable = (mods < 1.0 - 1e-12) & (mods > 1e-12)
    if not np.any(usable):
        raise ValueError("empirical CF degenerate on the whole u-grid")
    y = np.log(-np.log(mods[usable]))
    z = alpha * np.log(u_grid[usable])
    return float(np.exp(np.mean(y - z) / alpha))


def holder_exponent_estimate(times, values) -> float:
    """Descriptive Holder-exponent diagnostic of one discretized path.

    Slope of ``log sup_i |v_{i+lag} - v_i|`` against ``log(lag * dt)`` over a
    dyadic lag ladder.  Reported as a diagnostic only; no inference is
    attached.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or len(t) < 5:
        raise ValueError("need equal-length 1-d arrays with at least 5 points")
    m = len(v) - 1
    dt = (t[-1] - t[0]) / m
    lags, sups = [], []
    lag = 1
    while lag <= m // 4:
        sup = float(np.max(np.abs(v[lag:] - v[:-lag])))
        if sup > 0.0:
            lags.append(lag * dt)
            sups.append(sup)
        lag *= 2
    if len(lags) < 2:
        raise ValueError("path has too few usable lags for the diagnostic")
    slope, _, _ = linreg_r2(np.log(lags), np.log(sups))
    return slope

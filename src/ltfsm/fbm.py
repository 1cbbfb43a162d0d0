"""Fractional Brownian motion on a uniform grid.

The generator targets the exact closed-form covariance

    Cov(B_s, B_t) = (|s|**2H + |t|**2H - |t - s|**2H) / 2

by synthesizing fractional Gaussian noise (the increment process) and taking
cumulative sums, by circulant embedding of the increment autocovariance: exact
in distribution, as the even embedding of fGn is nonnegative definite for
every H in (0, 1) (Dietrich & Newsam 1997).  An embedding that comes out
non-definite in floating point raises :class:`EmbeddingError` (there is no
fallback route); negative eigenvalues are never truncated silently.

The embedding of length ``2 m`` is real and symmetric, so its eigenvalues come
from a real FFT of its first row, and the random spectrum it is driven by is
Hermitian: only its ``m + 1`` independent coefficients are formed, and one
real inverse FFT of length ``2 m`` returns the fGn.  No complex transform of
the full ``2 m`` points is ever computed.

One step, ``_fgn_into``, synthesizes fGn into memory its caller owns:
:func:`fgn_from_noise` (on a copy of the caller's noise, where the inverse
FFT would overwrite it), :func:`fbm_path` (on its freshly drawn noise,
straight into the path) and the series kernel of :mod:`ltfsm.process` (in
its work array) all run it.

Noise convention: a path with ``points = m`` increments always consumes one
block of ``2 m`` standard normals, in order (the embedding needs all ``2 m``;
the Hurst-1/2 shortcut uses the first ``m``).  Fixed block sizes keep
counter-based streams aligned across Hurst indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .streams import _guarded_cache

__all__ = [
    "EmbeddingError",
    "FbmPath",
    "fbm_covariance",
    "increment_autocovariance",
    "fgn_from_noise",
    "fbm_path",
]

# Relative tolerance under which embedding eigenvalues count as zero.
_EIG_RTOL = 1e-12


class EmbeddingError(RuntimeError):
    """Raised when a grid's circulant embedding is not nonnegative definite."""


def _check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")


def _check_alpha(alpha: float) -> None:
    """Refuse a stability index outside (0, 2), where the shot-noise series
    converges (NaN fails the comparison too); the stable laws it is checked
    against allow alpha = 2 as well (``oracle._check_stable_alpha``)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")


def _check_positive(name: str, value: float) -> None:
    """Refuse, by name, a ``value`` that is not finite and > 0 (NaN fails
    the comparison too)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0")


def _check_counts(least: int = 1, **counts: int) -> None:
    """Reject, by name, the first count that is not an integer >= ``least``,
    before anything is drawn."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}")


def fbm_covariance(s, t, hurst: float):
    """Closed-form covariance of fractional Brownian motion at times s, t."""
    _check_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("times must be >= 0")
    h2 = 2.0 * hurst
    out = 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)
    return out if out.ndim else float(out)


def increment_autocovariance(hurst: float, lags, spacing: float = 1.0):
    """Autocovariance of the increment process at integer lags."""
    _check_hurst(hurst)
    _check_positive("spacing", spacing)
    j = np.abs(np.asarray(lags, dtype=float))
    c = _autocovariance_into(hurst, j, np.empty_like(j))
    c *= spacing ** (2.0 * hurst)
    return c if c.ndim else float(c)


def _autocovariance_into(hurst: float, j: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``0.5 ((j + 1)**2H - 2 j**2H + |j - 1|**2H)``, the unit-spacing
    autocovariance at the nonnegative float lags ``j``, written into
    ``out`` (returned) with one temporary; ``j`` is overwritten.  The terms
    are formed and summed in the order of that expression, so the result is
    bitwise the out-of-place one."""
    h2 = 2.0 * hurst
    np.add(j, 1.0, out=out)
    out **= h2
    far = np.subtract(j, 1.0, out=np.empty_like(out))
    np.abs(far, out=far)
    far **= h2
    j **= h2
    j *= 2.0
    out -= j
    out += far
    out *= 0.5
    return out


@_guarded_cache
def _embedding_coefficients(hurst: float, points: int):
    """Unit-spacing synthesis coefficients; :class:`EmbeddingError` if the
    embedding is not nonnegative definite.

    For the even circulant embedding of length ``L = 2 * points`` with first
    row ``[c_0 .. c_m, c_{m-1} .. c_1]`` the eigenvalues are the FFT of the
    row.  The row is real and symmetric, so they are real with
    ``lambda_j = lambda_{L - j}``, and the ``m + 1`` values of its ``rfft``
    hold them all (definiteness is checked on those).  The returned array
    ``a`` of length ``m + 1`` holds ``a_0 = sqrt(lambda_0 / L)``,
    ``a_m = sqrt(lambda_m / L)`` and ``a_j = sqrt(lambda_j / (2 L))`` in
    between.

    Buffers: the autocovariance is written into the first ``m + 1``
    entries of one ``2 m`` row buffer (besides it, only the lags and one
    temporary of that length), and the mirror is copied in place.  The row
    is dropped once its ``rfft`` is formed, and the complex spectrum once
    its clipped real part is; the divide and the ``sqrt`` run in the memory
    of that part, which is returned.  So at most two of the row, the
    spectrum and the coefficients are alive at once.

    Cached by :func:`ltfsm.streams._guarded_cache`: at most 64
    ``(hurst, points)`` pairs, ``(m + 1) * 8`` bytes each, built at first
    use; of several threads that need one pair at once, one builds it and
    the others wait for it.  ``__wrapped__`` is the uncached build.
    """
    m = points
    length = 2 * m
    row = np.empty(length)
    _autocovariance_into(hurst, np.arange(m + 1, dtype=float), row[: m + 1])
    row[m + 1 :] = row[m - 1 : 0 : -1]
    spectrum = np.fft.rfft(row)
    del row
    lam = spectrum.real
    tol = _EIG_RTOL * float(lam.max(initial=0.0))
    if lam.min() < -tol:
        raise EmbeddingError(
            f"circulant embedding is not nonnegative definite for hurst={hurst}, points={m}"
        )
    coef = np.clip(lam, 0.0, None)
    del spectrum, lam
    ends = coef[0] / length, coef[m] / length
    coef /= 2.0 * length
    coef[0], coef[m] = ends
    return np.sqrt(coef, out=coef)


def fgn_from_noise(
    hurst: float, points: int, spacing: float, noise: np.ndarray
) -> np.ndarray:
    """Map a block of ``2 * points`` standard normals to one fGn vector.

    ``noise`` may be ``(2m,)`` or batched ``(r, 2m)``; the transform is linear
    and applied row-wise.  At H = 1/2 the fGn is the first ``m`` normals
    scaled by ``spacing**(1/2)``.

    Otherwise the halves ``g1 = noise[:m]`` and
    ``g2 = noise[m:]`` drive the Hermitian spectrum ``w`` of length ``2 m``:
    ``w_0 = a_0 g1_0``, ``w_m = a_m g2_0``, ``w_j = a_j (g1_j + i g2_j)`` for
    ``0 < j < m`` and ``w_{2m-j} = conj(w_j)``.  The fGn is the first ``m``
    entries of ``FFT(w)``, which is real.  Only ``w_0 .. w_m`` are formed, and
    ``FFT(w)`` is computed as the unnormalized inverse real FFT of their
    conjugates.
    """
    _check_hurst(hurst)
    _check_counts(points=points)
    _check_positive("spacing", spacing)
    noise = np.asarray(noise, dtype=float)
    if noise.shape[-1] != 2 * points:
        raise ValueError("noise block must have length 2 * points")
    if hurst != 0.5:  # the inverse FFT runs in the memory of its input
        noise = noise.copy()
    return _fgn_into(hurst, spacing, noise, None, np.empty(noise.shape[:-1] + (points,)))


def _fgn_into(
    hurst: float, spacing: float, noise: np.ndarray, half: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """:func:`fgn_from_noise` of the rows of ``noise`` (``2 m`` normals each;
    at H = 1/2 the first ``m`` suffice), written into the rows of ``out``
    (length ``m``), which is returned.

    At H != 1/2 the half spectrum goes into the complex rows ``half``
    (length ``m + 1``; allocated here when ``None``), and the inverse FFT
    overwrites ``noise``, which must be C-contiguous; at H = 1/2 ``noise`` is
    only read (``out`` may be the same memory) and ``half`` is not used."""
    m = out.shape[-1]
    if hurst == 0.5:
        z = noise
    else:
        if half is None:
            half = np.empty(noise.shape[:-1] + (m + 1,), dtype=complex)
        z = np.fft.irfft(
            _half_spectrum(hurst, noise, half), n=2 * m, axis=-1, norm="forward", out=noise
        )
    return np.multiply(z[..., :m], spacing**hurst, out=out)


def _half_spectrum(hurst: float, noise: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Write ``conj(w_0 .. w_m)`` of :func:`fgn_from_noise` for the rows of
    ``noise`` (length ``2 m``) into the complex rows ``half`` (length
    ``m + 1``) and return ``half``; ``noise`` is only read."""
    m = noise.shape[-1] // 2
    coef = _embedding_coefficients(hurst, m)
    # the imaginary parts of the DC and Nyquist terms are zero; rounding is
    # sign-symmetric, so the product with -coef is bitwise the negated
    # product, and negating m coefficients is cheaper than a strided pass
    # over every row
    np.multiply(noise[..., :m], coef[:m], out=half.real[..., :m])
    half.real[..., m] = coef[m] * noise[..., m]
    np.multiply(noise[..., m + 1 :], -coef[1:m], out=half.imag[..., 1:m])
    half.imag[..., 0] = 0.0
    half.imag[..., m] = 0.0
    return half


def _grid_times(horizon: float, grid_points: int) -> np.ndarray:
    """The closed grid ``i * (horizon / grid_points)``, ``i = 0 ..
    grid_points``: an fBm path's times, and every output grid."""
    return np.arange(grid_points + 1) * (horizon / grid_points)


@dataclass(frozen=True)
class FbmPath:
    """One fBm sample on the closed uniform grid 0 = t_0 < ... < t_m = T."""

    hurst: float
    horizon: float
    values: np.ndarray

    @property
    def points(self) -> int:
        return len(self.values) - 1

    @property
    def spacing(self) -> float:
        return self.horizon / self.points

    @property
    def times(self) -> np.ndarray:
        return _grid_times(self.horizon, self.points)


def fbm_path(hurst: float, horizon: float, points: int, stream) -> FbmPath:
    """Sample one fBm path with ``points`` increments on [0, horizon].

    Consumes exactly ``2 * points`` normals from ``stream``; the first value
    is exactly 0.
    """
    _check_hurst(hurst)
    _check_positive("horizon", horizon)
    _check_counts(points=points)
    values = np.empty(points + 1)
    values[0] = 0.0
    fgn = _fgn_into(hurst, horizon / points, stream.gaussian(2 * points), None, values[1:])
    np.cumsum(fgn, out=fgn)
    return FbmPath(hurst=hurst, horizon=horizon, values=values)


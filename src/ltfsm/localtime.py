"""Mollified occupation functionals of a discretized path.

The triangular kernel ``phi(x) = max(0, 1 - |x|)`` is rescaled to bandwidth
``1/k`` via ``phi_k(x) = k * phi(k * x)`` (unit mass, support ``[-1/k, 1/k]``).
For a path sampled at ``m + 1`` grid values ``v_0 .. v_m`` on ``[0, T]`` the
discretized occupation functional at level ``x`` is the rectangle sum

    I_k(x, t) = (T / m) * sum_{i = 0}^{floor(m t / T)} phi_k(v_i - x),

a step function in t that is nonnegative and nondecreasing.  The rectangle
weight is ``T / m`` so the sum approximates the time integral of
``phi_k(B_s - x)`` for any horizon; at t = 0 the sum contains exactly the
i = 0 rectangle.

``occupation_oracle`` is the independent histogram route used to cross-check
the kernel route: time spent within a symmetric bin around ``x``, divided by
the bin width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath

__all__ = [
    "kernel_phi",
    "kernel_phi_k",
    "OccupationCurve",
    "discretized_occupation",
    "occupation_oracle",
]

# Absolute guard added before flooring fractional grid indices: float error of
# m*t/T is far below it for any m this library can hold in memory, while
# genuinely fractional indices sit at least ~1/m above their floor.
_INDEX_GUARD = 1e-9


def kernel_phi(x):
    """Triangular bump ``max(0, 1 - |x|)``."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(0.0, 1.0 - np.abs(x))
    return out if out.ndim else float(out)


def _check_bandwidth(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("bandwidth k must be an integer")
    if k < 1:
        raise ValueError("bandwidth k must be >= 1")


def kernel_phi_k(k: int, x):
    """Rescaled kernel ``k * phi(k x)``: unit mass, support ``[-1/k, 1/k]``."""
    _check_bandwidth(k)
    x = np.asarray(x, dtype=float)
    out = k * np.maximum(0.0, 1.0 - np.abs(k * x))
    return out if out.ndim else float(out)


def _phi_k_in_place(k: int, x: np.ndarray) -> np.ndarray:
    """:func:`kernel_phi_k` computed in the memory of the float array ``x``
    (overwritten and returned), bitwise equal: ``|k x| = k |x|`` and
    ``1 + (-a) = 1 - a`` hold exactly in floating point."""
    np.abs(x, out=x)
    x *= -k
    x += 1.0
    np.maximum(x, 0.0, out=x)
    x *= k
    return x


def grid_index(points: int, horizon: float, times) -> np.ndarray:
    """Indices ``floor(points * t / horizon)`` with a roundoff guard."""
    t = np.asarray(times, dtype=float)
    idx = np.floor(points * t / horizon + _INDEX_GUARD).astype(np.int64)
    return np.clip(idx, 0, points)


@dataclass(frozen=True)
class OccupationCurve:
    """Occupation functional of one path at a fixed spatial center."""

    center: float
    times: np.ndarray
    values: np.ndarray


def discretized_occupation(
    path: FbmPath, k: int, x: float, eval_times
) -> OccupationCurve:
    """Rectangle-sum occupation functional of ``path`` at level ``x``.

    ``eval_times`` must lie within ``[0, horizon]``.  The result values are
    nonnegative and nondecreasing when ``eval_times`` is increasing.
    """
    _check_bandwidth(k)
    t = np.asarray(eval_times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("eval_times must be a nonempty 1-d array")
    if t.min() < 0.0 or t.max() > path.horizon * (1.0 + 1e-12):
        raise ValueError("eval_times must lie within [0, horizon]")
    m = path.points
    weights = kernel_phi_k(k, path.values - x)
    prefix = np.cumsum(weights) * (path.horizon / m)
    idx = grid_index(m, path.horizon, t)
    return OccupationCurve(center=float(x), times=t, values=prefix[idx])


def occupation_oracle(path: FbmPath, bin_width: float, x: float, t: float) -> float:
    """Histogram estimate of the occupation density of ``path`` at ``x``.

    Time spent (rectangle weight ``T / m``) at grid values within
    ``bin_width / 2`` of ``x`` up to time ``t``, divided by ``bin_width``.
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be > 0")
    if not 0.0 <= t <= path.horizon * (1.0 + 1e-12):
        raise ValueError("t must lie within [0, horizon]")
    m = path.points
    stop = int(grid_index(m, path.horizon, np.asarray([t]))[0])
    inside = np.abs(path.values[: stop + 1] - x) <= 0.5 * bin_width
    measure = (path.horizon / m) * float(np.count_nonzero(inside))
    return measure / bin_width

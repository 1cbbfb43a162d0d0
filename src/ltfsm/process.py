"""The local-time fractional stable motion and its tuned simulation.

The target process is the shot-noise series

    Z(t) = sum_n Gamma_n**(-1/alpha) * G_n * w(X_n) * l(X_n, t),

where ``Gamma_n`` are unit-rate Poisson arrivals, ``G_n`` standard normals,
``l(x, t)`` the local time of an independent fractional Brownian motion, and
``(X_n, w)`` one of two equivalent-in-law importance pairs:

* Laplace form: ``X_n`` Laplace(0, 1/2) (density ``exp(-2|x|)``) with weight
  ``w(x) = exp(2 |x| / alpha)``;
* Gaussian form: ``X_n`` standard normal with weight
  ``w(x) = (2 pi)**(1/(2 alpha)) * exp(x**2 / (2 alpha))``.

The ``(2 pi)**(1/(2 alpha))`` factor makes ``density(x) * w(x)**alpha = 1``
exactly, matching the Laplace form, so the two simulators agree in law.

The simulator replaces ``l`` with the rectangle-sum occupation functional of a
discretized fBm path (see :mod:`ltfsm.localtime`): term ``n`` uses ``m_{n,k}``
increments and kernel bandwidth ``k``.  :func:`tune` derives ``(P, N, k)`` and
the per-term grid rules from a target accuracy ``epsilon``:

* ``P = max(ceil(c_p * epsilon**(-2 eta alpha / (2 - alpha))), N + 1)``,
* ``k = max(1, ceil(c_k * epsilon**(-eta / delta)))``,
* ``N`` the smallest integer with ``(N + 1) * alpha > q``,
* head terms (n <= N): ``m = floor(Gamma_n**(-1/(delta' alpha)) *
  k**((2 + delta)/delta'))``,
* tail terms (n > N): ``m = floor(k**((2 + delta)/delta') * n**(-beta/delta'))``,

each clamped below by 1 and above by ``max_points`` (the head rule has
infinite expected cost whenever ``delta' * alpha < 1``, so an explicit,
manifest-recorded cap is the only way to keep desk runs bounded; a
RuntimeWarning fires whenever it binds, and ``max_points = 0`` disables it).

Draw order for one path (one stream, strictly sequential): P exponentials
(arrivals), P normals (weights), P location variates, then per term
``n = 1 .. P`` one block of ``2 * m_{n,k}`` normals for the fBm increments.

:class:`TuningParams` is plain data: ``P``, ``N``, ``k``, ``k_power =
k**((2 + delta)/delta')``, ``head_exp = 1/(delta' alpha)``, ``tail_exp =
beta/delta'`` and ``max_points``; :func:`flat_params` is the rule with
``N = 0``, ``k_power = points`` and no cap.  One kernel, ``_occupation_curves``
(fGn, cumulative path, kernel prefix sums), serves the simulators here with
one row per term and :func:`ltfsm.experiments.series_path_ensemble` with one
row per term and replicate; each caller sums its terms in arrival order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .fbm import fgn_from_noise
from .localtime import grid_index, kernel_phi_k
from .streams import poisson_arrivals

__all__ = [
    "ConfigError",
    "SeriesConfig",
    "TuningParams",
    "tune",
    "flat_params",
    "SamplePath",
    "simulate_ltfsm",
    "simulate_ltfsm_gaussian_density",
    "simulate_rwrr_baseline",
    "gaussian_density_weight",
    "laplace_weight",
]


class ConfigError(ValueError):
    """A configuration inequality is violated (CLI exit code 2)."""


@dataclass(frozen=True)
class SeriesConfig:
    """Validated parameter set for the tuned series simulation.

    Constraints (all checked at construction; violations raise
    :class:`ConfigError` listing every failed inequality):

    * ``0 < alpha < 2``; ``0 < hurst < 1``; ``horizon > 0``;
      ``grid_points >= 1``; ``epsilon > 0``;
    * ``eta > 1`` (probability-decay exponent);
    * ``p >= 1`` and ``q > max(p, 2)`` (moment orders);
    * ``0 < delta < 1/(2 hurst) - 1/2`` (kernel-rate exponent);
    * ``0 < delta_prime < hurst`` (path-regularity exponent; the strictly
      weaker reading ``delta' < 1/hurst`` is rejected -- exponents above the
      Hurst index are not Holder exponents of the motion);
    * ``0 <= beta < 1/alpha - 1/2`` (per-term error growth; 0 is always
      admissible);
    * ``c_p > 0``, ``c_k > 0``, ``max_points >= 0``;
    * every float field is finite.
    """

    alpha: float
    hurst: float
    epsilon: float = 0.5
    horizon: float = 1.0
    grid_points: int = 200
    eta: float = 1.5
    q: float = 2.5
    p: float = 2.0
    delta: float = 0.4
    delta_prime: float = 0.25
    beta: float = 0.0
    c_p: float = 1.0
    c_k: float = 1.0
    max_points: int = 262144

    def __post_init__(self) -> None:
        bad = [
            f"{name} must be finite"
            for name in _FLOAT_FIELDS
            if not math.isfinite(getattr(self, name))
        ]
        if not 0.0 < self.alpha < 2.0:
            bad.append("alpha must lie in (0, 2)")
        if not 0.0 < self.hurst < 1.0:
            bad.append("hurst must lie in (0, 1)")
        if not self.epsilon > 0.0:
            bad.append("epsilon must be > 0")
        if not self.horizon > 0.0:
            bad.append("horizon must be > 0")
        if self.grid_points < 1:
            bad.append("grid_points must be >= 1")
        if not self.eta > 1.0:
            bad.append("eta must be > 1")
        if not self.p >= 1.0:
            bad.append("p must be >= 1")
        if not self.q > max(self.p, 2.0):
            bad.append("q must exceed max(p, 2)")
        if 0.0 < self.hurst < 1.0:
            delta_cap = 1.0 / (2.0 * self.hurst) - 0.5
            if not 0.0 < self.delta < delta_cap:
                bad.append(
                    f"delta must lie in (0, 1/(2*hurst) - 1/2) = (0, {delta_cap:g})"
                )
            if not 0.0 < self.delta_prime < self.hurst:
                bad.append(f"delta_prime must lie in (0, hurst) = (0, {self.hurst:g})")
        if 0.0 < self.alpha < 2.0:
            beta_cap = 1.0 / self.alpha - 0.5
            if not 0.0 <= self.beta < beta_cap:
                bad.append(
                    f"beta must lie in [0, 1/alpha - 1/2) = [0, {beta_cap:g})"
                )
        if not self.c_p > 0.0:
            bad.append("c_p must be > 0")
        if not self.c_k > 0.0:
            bad.append("c_k must be > 0")
        if self.max_points < 0:
            bad.append("max_points must be >= 0 (0 disables the cap)")
        if bad:
            raise ConfigError("; ".join(bad))

    @property
    def grid_times(self) -> np.ndarray:
        return np.arange(self.grid_points + 1) * (self.horizon / self.grid_points)


_FLOAT_FIELDS = tuple(f.name for f in fields(SeriesConfig) if f.type == "float")


@dataclass(frozen=True)
class TuningParams:
    """Realized simulation sizes: truncation ``P``, head length ``N``,
    bandwidth ``k``, and the numbers of the per-term grid rule."""

    P: int
    N: int
    k: int
    k_power: float
    head_exp: float = 0.0
    tail_exp: float = 0.0
    max_points: int = 0

    def __post_init__(self) -> None:
        if self.P < 1 or self.k < 1 or self.N < 0:
            raise ConfigError("TuningParams requires P >= 1, k >= 1, N >= 0")

    def points_for(self, n: int, gamma: float) -> int:
        """Grid size of term ``n`` (1-based) with arrival time ``gamma``, by
        the head/tail rule in the module docstring."""
        if n <= self.N:
            try:
                value = gamma ** (-self.head_exp) * self.k_power
            except OverflowError:  # an early arrival at a small alpha
                value = math.inf
        else:
            value = self.k_power * float(n) ** (-self.tail_exp)
        return _clamp_points(value, self.max_points)


def _clamp_points(value: float, max_points: int) -> int:
    # stacklevel 3: a cap warning names the line that called points_for
    if math.isinf(value) or value >= 2**62:
        if max_points <= 0:
            raise ValueError(
                "tuned grid size overflows; set max_points to cap per-term grids"
            )
        warnings.warn(
            f"tuned per-term grid size {value:g} capped at max_points={max_points}",
            RuntimeWarning,
            stacklevel=3,
        )
        return max(1, int(max_points))
    m = max(1, int(value))
    if max_points > 0 and m > max_points:
        warnings.warn(
            f"tuned per-term grid size {m} capped at max_points={max_points}",
            RuntimeWarning,
            stacklevel=3,
        )
        m = max_points
    return m


def tune(config: SeriesConfig) -> TuningParams:
    """Derive (P, N, k) and the per-term grid rules from the target epsilon."""
    alpha, q = config.alpha, config.q
    N = 1
    while (N + 1) * alpha <= q:
        N += 1
    try:
        p_formula = math.ceil(
            config.c_p * config.epsilon ** (-2.0 * config.eta * alpha / (2.0 - alpha))
        )
        k = max(
            1, math.ceil(config.c_k * config.epsilon ** (-config.eta / config.delta))
        )
        k_power = float(k) ** ((2.0 + config.delta) / config.delta_prime)
    except OverflowError:
        raise ConfigError(
            "tuned sizes overflow the float range (truncation P, bandwidth k or "
            "its grid power); raise epsilon or lower c_p / c_k"
        ) from None
    return TuningParams(
        P=max(p_formula, N + 1),
        N=N,
        k=k,
        k_power=k_power,
        head_exp=1.0 / (config.delta_prime * alpha),
        tail_exp=config.beta / config.delta_prime,
        max_points=config.max_points,
    )


def flat_params(terms: int, bandwidth: int, points: int) -> TuningParams:
    """Fixed-size parameters (every term uses the same grid).

    This is the desk-scale alternative to :func:`tune` used by the Monte
    Carlo drivers: the tuned per-term grids are far beyond laptop budgets for
    any honest epsilon, while the statistical checks only need fixed sizes.
    """
    if terms < 1 or bandwidth < 1 or points < 1:
        raise ConfigError("terms, bandwidth and points must all be >= 1")
    return TuningParams(P=int(terms), N=0, k=int(bandwidth), k_power=float(points))


@dataclass(frozen=True)
class SamplePath:
    """One simulated path on a uniform closed time grid."""

    times: np.ndarray
    values: np.ndarray


def laplace_weight(x: np.ndarray, alpha: float) -> np.ndarray:
    """Importance weight ``exp(2|x|/alpha)`` for Laplace(0, 1/2) locations."""
    return np.exp(2.0 * np.abs(x) / alpha)


def gaussian_density_weight(x: np.ndarray, alpha: float) -> np.ndarray:
    """Importance weight ``(2 pi)**(1/(2 alpha)) * exp(x^2/(2 alpha))`` for
    standard-normal locations (the ``2 pi`` factor makes the law match the
    Laplace form exactly)."""
    return (2.0 * np.pi) ** (0.5 / alpha) * np.exp(x * x / (2.0 * alpha))


def _occupation_curves(hurst, m, horizon, bandwidth, noise, centers, idx):
    """Row ``r``: the occupation functional at level ``centers[r]`` of the fBm
    path with ``m`` increments driven by row ``r`` of ``noise`` (``2 * m``
    normals; at H = 1/2 the first ``m`` suffice), at path indices ``idx`` --
    bitwise :func:`~ltfsm.localtime.discretized_occupation`.  Each
    intermediate is released before the next one is formed."""
    spacing = horizon / m
    if hurst == 0.5:  # the Hurst-1/2 branch of fgn_from_noise
        fgn = noise[:, :m] * spacing**0.5
    else:
        fgn = fgn_from_noise(hurst, m, spacing, noise)
    del noise
    paths = np.empty((len(fgn), m + 1))
    paths[:, 0] = 0.0
    np.cumsum(fgn, axis=1, out=paths[:, 1:])
    del fgn
    paths -= centers
    prefix = np.cumsum(kernel_phi_k(bandwidth, paths), axis=1)
    del paths
    prefix *= horizon / m
    return prefix[:, idx]


def _simulate_series_path(
    config: SeriesConfig, params: TuningParams, stream, location_kind: str
) -> SamplePath:
    alpha = config.alpha
    gammas = poisson_arrivals(params.P, stream)
    gauss_weights = stream.gaussian(params.P)
    if location_kind == "laplace":
        locations = stream.laplace_half(params.P)
        weights = gauss_weights * laplace_weight(locations, alpha)
    else:
        locations = stream.gaussian(params.P)
        weights = gauss_weights * gaussian_density_weight(locations, alpha)
    times = config.grid_times
    hurst, k, horizon = config.hurst, params.k, config.horizon
    total = np.zeros(len(times))
    for n in range(params.P):  # increasing-arrival order, one term in memory
        gamma = float(gammas[n])
        m = params.points_for(n + 1, gamma)
        idx = grid_index(m, horizon, times)
        curve = _occupation_curves(
            hurst, m, horizon, k, stream.gaussian(2 * m)[None], locations[n], idx
        )[0]
        total += gamma ** (-1.0 / alpha) * (float(weights[n]) * curve)
    total[0] = 0.0
    return SamplePath(times=times, values=total)


def simulate_ltfsm(config: SeriesConfig, params: TuningParams, stream) -> SamplePath:
    """Simulate one path of the Laplace-form series on the output grid.

    The value at t = 0 is exactly 0 (the grid's first point overrides the
    i = 0 rectangle of the occupation sums).
    """
    return _simulate_series_path(config, params, stream, "laplace")


def simulate_ltfsm_gaussian_density(
    config: SeriesConfig, params: TuningParams, stream
) -> SamplePath:
    """Simulate one path of the Gaussian-form series (equal in law to
    :func:`simulate_ltfsm`)."""
    return _simulate_series_path(config, params, stream, "gaussian")


def simulate_rwrr_baseline(
    alpha: float,
    steps: int,
    grid_points: int,
    stream,
    horizon: float = 1.0,
) -> SamplePath:
    """Random walk with heavy-tailed site rewards, the discrete benchmark.

    A simple symmetric walk takes ``steps`` unit steps; every visited site
    carries an i.i.d. standard symmetric alpha-stable reward; the partial sums

        S(t) = sum_{j = 1}^{floor(steps * t / horizon)} reward(walk_j)

    are normalized by ``steps**(1/2 + 1/(2 alpha))``.  Draw order: ``steps``
    sign draws, then one reward per site of the visited range in ascending
    site order.  The value at t = 0 is exactly 0 (empty sum).
    """
    from .oracle import sample_stable_oracle

    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    signs = stream.rademacher(steps)
    positions = np.cumsum(signs.astype(np.int64))
    lo = int(positions.min())
    hi = int(positions.max())
    rewards = np.asarray(sample_stable_oracle(alpha, stream, hi - lo + 1))
    partial = np.cumsum(rewards[positions - lo])
    norm = float(steps) ** (0.5 + 0.5 / alpha)
    times = np.arange(grid_points + 1) * (horizon / grid_points)
    values = np.zeros(grid_points + 1)
    for i in range(1, grid_points + 1):
        j = (steps * i) // grid_points
        if j >= 1:
            values[i] = partial[j - 1] / norm
    return SamplePath(times=times, values=values)

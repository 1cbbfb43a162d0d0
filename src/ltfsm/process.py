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
``_series_head`` maps the first ``3 P`` uniforms (one path or a block of
rows) through ``_DENSITIES``, the one table of the two importance pairs.

:class:`TuningParams` is plain data: ``P``, ``N``, ``k``, ``k_power =
k**((2 + delta)/delta')``, ``head_exp = 1/(delta' alpha)``, ``tail_exp =
beta/delta'`` and ``max_points``; :func:`flat_params` is the rule with
``N = 0``, ``k_power = points`` and no cap.  One kernel, ``_occupation_curves``
(fGn, cumulative path, kernel prefix sums), serves :func:`simulate_ltfsm`
with one row per term and :func:`ltfsm.experiments.series_path_ensemble`
with one row per term and replicate; each caller sums its terms in arrival
order.  The kernel works in one path-sized buffer and evaluates the tent
kernel in place, bitwise :func:`~ltfsm.localtime.kernel_phi_k`.

:func:`simulate_rwrr_baseline` and
:func:`ltfsm.experiments.rwrr_path_ensemble` share the walk kernel:
``_walk_sites`` (positions in place), the caller's reward draw, then
``_rwrr_values`` (one gather, one ``cumsum``, one fancy index).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import oracle
from .fbm import _check_horizon, fgn_from_noise
from .localtime import _check_bandwidth, _phi_k_in_place, grid_index
from .streams import uniform_to_exponential, uniform_to_gaussian, uniform_to_laplace_half

__all__ = [
    "ConfigError",
    "SeriesConfig",
    "TuningParams",
    "tune",
    "flat_params",
    "SamplePath",
    "simulate_ltfsm",
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
    # a size past 2**62, or one that overflowed to inf, can only be capped
    m = max(1, int(value)) if value < 2**62 else math.inf
    if max_points > 0 and m > max_points:
        # stacklevel 3: a cap warning names the line that called points_for
        warnings.warn(
            f"tuned per-term grid size {m} capped at max_points={max_points}",
            RuntimeWarning,
            stacklevel=3,
        )
        return int(max_points)
    if m == math.inf:
        raise ValueError("tuned grid size overflows; set max_points to cap per-term grids")
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
    bitwise :func:`~ltfsm.localtime.discretized_occupation`.  One path-sized
    buffer holds the path, then the tent kernel, then its prefix sums; only
    the columns ``idx`` are scaled by ``horizon / m``.  ``noise`` is read,
    never written."""
    _check_bandwidth(bandwidth)
    spacing = horizon / m
    if hurst == 0.5:  # the Hurst-1/2 branch of fgn_from_noise, in the path
        paths = np.empty((len(noise), m + 1))
        fgn = np.multiply(noise[:, :m], spacing**0.5, out=paths[:, 1:])
    else:  # the path is allocated after the synthesis's memory peak
        fgn = fgn_from_noise(hurst, m, spacing, noise)
        paths = np.empty((len(fgn), m + 1))
    del noise
    paths[:, 0] = 0.0
    np.cumsum(fgn, axis=1, out=paths[:, 1:])
    del fgn
    paths -= centers
    _phi_k_in_place(bandwidth, paths)
    np.cumsum(paths, axis=1, out=paths)  # the kernel prefix sums
    sampled = paths[:, idx]
    sampled *= horizon / m
    return sampled


# density name -> (uniform -> location transform, importance weight): the only
# place that knows the two importance pairs
_DENSITIES = {
    "laplace": (uniform_to_laplace_half, laplace_weight),
    "gaussian": (uniform_to_gaussian, gaussian_density_weight),
}


def _check_density(density: str) -> None:
    if density not in _DENSITIES:
        raise ValueError(f"density must be {' or '.join(map(repr, _DENSITIES))}")


def _series_head(u: np.ndarray, alpha: float, density: str):
    """``gammas, locations, weights`` from the ``3 P`` head uniforms on the
    last axis of ``u`` (one path, or one row per path): ``P`` arrival
    exponentials, ``P`` normal weights, ``P`` location variates."""
    to_location, weight = _DENSITIES[density]
    p = u.shape[-1] // 3
    gammas = np.cumsum(uniform_to_exponential(u[..., :p]), axis=-1)
    locations = to_location(u[..., 2 * p :])
    weights = uniform_to_gaussian(u[..., p : 2 * p]) * weight(locations, alpha)
    return gammas, locations, weights


def simulate_ltfsm(
    config: SeriesConfig, params: TuningParams, stream, density: str = "laplace"
) -> SamplePath:
    """Simulate one path of the series on the output grid, with Laplace
    (``density="laplace"``) or Gaussian (``"gaussian"``) locations; the two
    forms agree in law.

    The value at t = 0 is exactly 0 (the grid's first point overrides the
    i = 0 rectangle of the occupation sums).
    """
    _check_density(density)
    alpha = config.alpha
    gammas, locations, weights = _series_head(stream.uniform(3 * params.P), alpha, density)
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
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    _check_horizon(horizon)
    positions = stream.rademacher(steps).astype(np.int64)
    sites = _walk_sites(positions)
    rewards = np.asarray(oracle.sample_stable_oracle(alpha, stream, sites))
    values = _rwrr_values(alpha, positions, rewards, grid_points)
    times = np.arange(grid_points + 1) * (horizon / grid_points)
    return SamplePath(times=times, values=values)


def _walk_sites(moves: np.ndarray) -> int:
    """Overwrite the ``+-1`` steps ``moves`` (``int64``) with the walk's
    positions, shifted so that the lowest visited site is 0, and return the
    number of visited sites."""
    np.cumsum(moves, out=moves)
    moves -= int(moves.min())
    return int(moves.max()) + 1


def _rwrr_values(alpha, positions, rewards, grid_points) -> np.ndarray:
    """The ``grid_points + 1`` values of one :func:`simulate_rwrr_baseline`
    path from the shifted ``positions`` of :func:`_walk_sites` and the
    ``rewards`` of the visited sites in ascending site order.

    Grid point ``i`` reads the partial sum after ``floor(steps * i /
    grid_points)`` steps, and the empty sum before the first step is
    exactly 0.
    """
    steps = len(positions)
    partial = np.empty(steps + 1)
    partial[0] = 0.0
    np.cumsum(rewards[positions], out=partial[1:])
    columns = (steps * np.arange(grid_points + 1, dtype=np.int64)) // grid_points
    return partial[columns] / float(steps) ** (0.5 + 0.5 / alpha)

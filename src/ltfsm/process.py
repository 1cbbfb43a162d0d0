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

Chunk memory has one rule: ``_run_chunks`` is the only code that allocates
it.  Before any block runs, the calling thread makes one buffer set, in the
caller's layouts, per block that can run at once (``min(threads,
blocks)``); a block borrows a free set and gives it back, so later blocks
reuse memory that is already faulted in.

Given the head, the terms are independent, and the stream is counter-based,
so :func:`simulate_ltfsm` runs one block of consecutive terms per thread
(``threads=``, else ``LTFSM_THREADS``, else the CPUs this process may use,
at most as many as add 32 MB of working memory to the first; see
:func:`resolve_threads`), each on a (noise words, work) set sized at the
largest ``m``.  The calling thread first works out every term's ``m`` (so
the cap warnings fire there, in term order), the word offset of its noise
block (``3 P + sum_{j<n} 2 m_j`` from the path's first word) and the
embedding coefficients of every distinct ``m``.  A worker seats one Philox
at each term's offset (:func:`ltfsm.streams._seek`) and draws the words the
term uses (at H = 1/2 the first ``m`` of its ``2 m``).  Each thread peaks
near ``64 m`` bytes at H != 1/2 (``24 m`` at H = 1/2; ``_term_bytes``), and
the curves take ``8 P (grid_points + 1)`` bytes.  A path whose largest term
alone needs more than the machine's physical memory (an uncapped tune at
small ``epsilon`` asks for billions of points) is refused with
``ValueError`` before any embedding coefficient, buffer or noise word
(``_check_memory``; no check where ``os.sysconf`` cannot tell the size).

:class:`TuningParams` is plain data: ``P``, ``N``, ``k``, ``k_power =
k**((2 + delta)/delta')``, ``head_exp = 1/(delta' alpha)``, ``tail_exp =
beta/delta'`` and ``max_points``; :func:`flat_params` is the rule with
``N = 0``, ``k_power = points`` and no cap.  The two series drivers,
:func:`simulate_ltfsm` (one row per term) and
:func:`ltfsm.experiments.series_path_ensemble` (one row per term and
replicate), share the kernel ``_occupation_curves`` (fGn, cumulative path,
kernel prefix sums) and the arrival-order sum ``_arrival_order_sum``; they
differ only in scheduling, per-term sizes and how they form the
coefficients ``Gamma_n**(-1/alpha)``.  So the path is bitwise that of the
sequential term loop for any thread count, and the stream is left just
past the last noise block.  The kernel works in memory its caller owns: the
noise rows, which the inverse FFT overwrites at H != 1/2, and one work
array that holds the half spectrum, then the path, the tent kernel (in
place, bitwise :func:`~ltfsm.localtime.kernel_phi_k`) and its prefix sums.

:func:`simulate_rwrr_baseline` and
:func:`ltfsm.experiments.rwrr_path_ensemble` share the walk kernel:
``_walk_sites`` (positions in place), the caller's reward draw, then
``_rwrr_values`` (one gather, one ``cumsum``, one fancy index).
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np
from numpy.random import Philox

from . import oracle
from .fbm import _check_horizon, _embedding_coefficients, _half_spectrum
from .localtime import _check_bandwidth, _phi_k_in_place, grid_index
from .streams import (
    _cursor,
    _seek,
    _uniform_in_place,
    uniform_to_exponential,
    uniform_to_gaussian,
    uniform_to_laplace_half,
)

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
    "resolve_threads",
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


def _work_row(hurst: float, m: int) -> int:
    """``float64`` entries of ``_occupation_curves``'s work array per row: the
    complex half spectrum (``m + 1`` values) at H != 1/2, the path at H = 1/2."""
    return (m + 1) * (1 if hurst == 0.5 else 2)


def _term_bytes(hurst: float, m: int) -> int:
    """Peak working bytes of one :func:`simulate_ltfsm` thread at grid size
    ``m``: its noise words and work array, plus the larger transient of a
    term, the raw words drawn (``8 m`` at H = 1/2) or the inverse FFT's own
    scratch (about ``32 m`` at H != 1/2; a thread at m = 2**18 measured 16 MiB
    of peak RSS, ``64 m`` bytes in all)."""
    used = 1 if hurst == 0.5 else 2
    return 8 * (used * m + _work_row(hurst, m)) + (8 if hurst == 0.5 else 32) * m


def _physical_bytes() -> int | None:
    """Physical memory of this machine in bytes; ``None`` where
    ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(what: str, need: int, remedy: str) -> None:
    """Refuse with ``ValueError`` a run whose ``what`` alone needs ``need``
    working bytes, more than the machine's physical memory; no check where
    :func:`_physical_bytes` cannot tell the size."""
    memory = _physical_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB of working memory, more than "
            f"the {memory / 2**30:.1f} GiB of this machine; {remedy}"
        )


def _occupation_curves(hurst, m, horizon, bandwidth, noise, centers, idx, work):
    """Row ``r``: the occupation functional at level ``centers[r]`` of the fBm
    path with ``m`` increments driven by row ``r`` of ``noise`` (``2 * m``
    normals; at H = 1/2 the first ``m`` suffice), at path indices ``idx`` --
    bitwise :func:`~ltfsm.localtime.discretized_occupation`.

    The caller owns the memory: ``work`` is a 1-d ``float64`` array of at
    least ``rows * _work_row(hurst, m)`` entries.  At H != 1/2 it first holds
    the half spectrum, the inverse FFT overwrites ``noise``, and the scaled
    fGn goes from there into ``work``; at H = 1/2 ``noise`` is only read.
    ``work`` then holds the path, the tent kernel and its prefix sums; only
    the columns ``idx`` are copied out and scaled by ``horizon / m``."""
    _check_bandwidth(bandwidth)
    rows = len(noise)
    spacing = horizon / m
    paths = work[: rows * (m + 1)].reshape(rows, m + 1)
    if hurst == 0.5:  # the Hurst-1/2 branch of fgn_from_noise, in the path
        np.multiply(noise[:, :m], spacing**0.5, out=paths[:, 1:])
    else:  # fgn_from_noise, its spectrum and transform in the caller's memory
        half = work[: 2 * rows * (m + 1)].view(complex).reshape(rows, m + 1)
        z = np.fft.irfft(
            _half_spectrum(hurst, noise, half), n=2 * m, axis=-1, norm="forward", out=noise
        )
        np.multiply(z[:, :m], spacing**hurst, out=paths[:, 1:])
    paths[:, 0] = 0.0
    np.cumsum(paths[:, 1:], axis=1, out=paths[:, 1:])
    paths -= centers
    _phi_k_in_place(bandwidth, paths)
    np.cumsum(paths, axis=1, out=paths)  # the kernel prefix sums
    sampled = paths[:, idx]
    sampled *= horizon / m
    return sampled


def _arrival_order_sum(coef: np.ndarray, curves: np.ndarray) -> np.ndarray:
    """``sum_n coef[:, n] * curves[:, n, :]`` in increasing-arrival order,
    bitwise the loop ``out = zeros; out += coef[:, n:n+1] * curves[:, n, :]``,
    as a fresh C-ordered array; ``curves`` is overwritten.

    ``cumsum`` adds the terms one by one, as the loop does; ``+ 0.0`` turns
    a column whose every term is -0.0 into +0.0, as the sum from zeros does.
    """
    curves *= coef[:, :, None]
    np.cumsum(curves, axis=1, out=curves)
    return np.add(curves[:, -1, :], 0.0, out=np.empty((len(curves), curves.shape[2])))


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


def _check_counts(**counts: int) -> None:
    """Reject, by name, the first count that is not an integer >= 1, before
    anything is drawn."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1")


# Working bytes that the threads of the default count may add to those of the
# first thread.
_THREAD_BYTES = 32_000_000


def _requested_threads(threads: int | None) -> int | None:
    """Explicit ``threads``, else ``LTFSM_THREADS``, checked; ``None`` when
    neither is set."""
    if threads is not None:
        _check_counts(threads=threads)
        return int(threads)
    env = os.environ.get("LTFSM_THREADS")
    if env is not None and not (env.strip().isdecimal() and int(env) >= 1):
        raise ValueError(f"LTFSM_THREADS must be an integer >= 1, got {env!r}")
    return None if env is None else int(env)


def resolve_threads(threads: int | None = None, thread_bytes: int = _THREAD_BYTES) -> int:
    """Worker count: explicit ``threads``, else ``LTFSM_THREADS``, else the
    CPUs this process may run on, but no more threads than add
    ``_THREAD_BYTES`` (32 MB) of working memory to the first when each holds
    ``thread_bytes`` (by default all 32 MB, so at most 2; the series and
    LePage ensembles pass their 8 MB chunk budget, so at most 5)."""
    requested = _requested_threads(threads)
    if requested is not None:
        return requested
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 1 + _THREAD_BYTES // thread_bytes))


def _run_chunks(worker, total: int, chunk_rows: int, threads: int, layouts=()) -> np.ndarray:
    """``worker(start, rows, *buffers)`` on consecutive blocks of at most
    ``chunk_rows`` of ``total`` rows, on ``threads`` workers; the results
    concatenated in row order.

    The only place that allocates chunk memory: before any block runs, the
    calling thread makes one set of ``np.empty(shape, dtype)`` buffers, one
    per ``(shape, dtype)`` in ``layouts``, for each block that can run at
    once (``min(threads, blocks)``).  A block takes a free set, gets it
    whole as ``buffers`` and gives it back when it returns, so every later
    block reuses memory that is already faulted in, and no two running
    blocks share a set."""
    starts = range(0, total, chunk_rows)
    rows = [min(chunk_rows, total - start) for start in starts]
    threads = min(threads, len(rows))
    # at most ``threads`` blocks run at once, so a block always finds a free
    # set; ``list.pop`` and ``list.append`` are atomic
    free = [[np.empty(shape, dtype) for shape, dtype in layouts] for _ in range(threads)]

    def run(start: int, count: int) -> np.ndarray:
        buffers = free.pop()
        try:
            return worker(start, count, *buffers)
        finally:
            free.append(buffers)

    if threads == 1:
        return np.concatenate(list(map(run, starts, rows)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(run, starts, rows)))


def simulate_ltfsm(
    config: SeriesConfig,
    params: TuningParams,
    stream,
    density: str = "laplace",
    threads: int | None = None,
) -> SamplePath:
    """Simulate one path of the series on the output grid, with Laplace
    (``density="laplace"``) or Gaussian (``"gaussian"``) locations; the two
    forms agree in law.

    The terms run on ``threads`` workers (see :func:`resolve_threads`), one
    block of consecutive terms each; the path is bitwise the same for any
    count, and ``stream`` is left just past the last noise block.  The value
    at t = 0 is exactly 0 (the grid's first point overrides the i = 0
    rectangle of the occupation sums).
    """
    _check_density(density)
    requested = _requested_threads(threads)
    alpha, hurst, k, horizon = config.alpha, config.hurst, params.k, config.horizon
    gammas, locations, weights = _series_head(stream.uniform(3 * params.P), alpha, density)
    times = config.grid_times
    # before any noise is drawn, in this thread: the grid sizes (so the cap
    # warnings fire here, in term order, and an overflow before any work),
    # the memory check, the word offset of every noise block and the embedding
    # coefficients (the cache has no lock; ascending, so the largest stay cached)
    points = [params.points_for(n + 1, float(gamma)) for n, gamma in enumerate(gammas)]
    largest = max(points)
    term_bytes = _term_bytes(hurst, largest)
    _check_memory(f"the largest term (m = {largest})", term_bytes,
                  "cap the grid size with max_points")
    key, head_end = _cursor(stream)
    offsets = list(accumulate((2 * m for m in points), initial=head_end))
    if hurst != 0.5:
        for m in sorted(set(points)):
            _embedding_coefficients(hurst, m)
    # at H = 1/2 a term reads only the first m words of its 2m-word block
    used = 1 if hurst == 0.5 else 2
    threads = resolve_threads(requested, term_bytes)

    def worker(start: int, count: int, words: np.ndarray, work: np.ndarray) -> np.ndarray:
        bitgen = Philox(key=0)
        curves = np.empty((count, len(times)))
        for n in range(start, start + count):
            m = points[n]
            _seek(bitgen, key, offsets[n])
            words[: used * m] = bitgen.random_raw(used * m)
            noise = _uniform_in_place(words[: used * m])
            uniform_to_gaussian(noise, out=noise)
            idx = grid_index(m, horizon, times)
            curves[n - start] = _occupation_curves(
                hurst, m, horizon, k, noise[None], locations[n], idx, work
            )[0]
        return curves

    layouts = [((used * largest,), np.uint64), ((_work_row(hurst, largest),), np.float64)]
    curves = _run_chunks(worker, params.P, -(-params.P // threads), threads, layouts)
    _seek(stream._bitgen, key, offsets[-1])
    curves *= weights[:, None]
    # Python's scalar power: numpy's vector power may differ in the last ulp
    coef = np.array([float(gamma) ** (-1.0 / alpha) for gamma in gammas])
    total = _arrival_order_sum(coef[None], curves[None])[0]
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

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

Where each rule lives:

* words in, curves out: the drivers only seat streams and draw raw words.
  The head kernel ``_series_head`` (through ``_DENSITIES``, the one table of
  the two importance pairs) and the curve kernel ``_occupation_curves``
  turn them into variates in their own memory, and ``_arrival_order_sum``
  sums the terms.  Both series drivers, :func:`simulate_ltfsm` and
  :func:`ltfsm.experiments.series_path_ensemble`, run these three; they
  differ only in scheduling, per-term sizes and how they form the
  coefficients ``Gamma_n**(-1/alpha)``;
* a term's buffers: ``_term_layout``;
* chunk memory and threads: ``_run_chunks``, on :func:`resolve_threads`
  workers;
* memory refusals: ``_check_memory``, with the models ``_term_bytes`` and
  ``_path_bytes``;
* the random-walk baseline: ``_check_rwrr`` and the row kernel ``_rwrr_row``.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import fbm, oracle
from .fbm import _check_counts, _check_positive, _fgn_into, _grid_times
from .localtime import _check_bandwidth, _phi_k_in_place, grid_index
from .streams import (
    Philox,
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
        return _grid_times(self.horizon, self.grid_points)


_FLOAT_FIELDS = tuple(f.name for f in fields(SeriesConfig) if f.type == "float")


@dataclass(frozen=True)
class TuningParams:
    """Realized simulation sizes, plain data: truncation ``P``, head length
    ``N``, bandwidth ``k``, and the numbers of the per-term grid rule,
    ``k_power = k**((2 + delta)/delta')``, ``head_exp = 1/(delta' alpha)``,
    ``tail_exp = beta/delta'`` and ``max_points``."""

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
            value = _power(gamma, -self.head_exp) * self.k_power
        else:
            value = self.k_power * float(n) ** (-self.tail_exp)
        return _clamp_points(value, self.max_points)


def _power(base: float, exponent: float) -> float:
    """Python's scalar ``base ** exponent`` (numpy's vector power may differ
    in the last ulp), ``inf`` where it overflows, as numpy's does."""
    try:
        return base**exponent
    except OverflowError:  # an early arrival at a small alpha
        return math.inf


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
    """Fixed-size parameters (every term uses the same grid): the grid rule
    with ``N = 0``, ``k_power = points`` and no cap.

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


def _term_layout(hurst: float, m: int) -> tuple[int, int]:
    """The buffers of one term at grid size ``m``: its ``uint64`` noise word
    slots and the ``float64`` entries of ``_occupation_curves``'s work array.

    At H != 1/2 the slots hold all ``2 m`` words of its block, and the work
    array the complex half spectrum (``m + 1`` values), then the path.  At
    H = 1/2 the fGn step reads only the first ``m`` words; they fill slots
    ``1 .. m``, and the path is built in the slots' own memory, slot 0
    holding its exact 0, so there is no work array.  Every memory model,
    both drivers' buffer layouts and the per-term draw read it."""
    if hurst == 0.5:
        return m + 1, 0
    return 2 * m, 2 * (m + 1)


def _noise_lead(hurst: float) -> int:
    """The first of a term's noise word slots (``_term_layout``) that takes a
    drawn word: 1 at H = 1/2, where slot 0 becomes the path's exact 0, else 0."""
    return int(hurst == 0.5)


def _term_bytes(hurst: float, m: int) -> int:
    """Peak working bytes of one :func:`simulate_ltfsm` thread at grid size
    ``m``: its noise words and work array, plus the larger transient of a
    term, the raw words drawn (``8 m`` at H = 1/2, ``16 m`` in all) or, at
    H != 1/2, the inverse FFT's own scratch (about ``32 m``; a thread at
    m = 2**18 measured 16 MiB of peak RSS, ``64 m`` bytes in all) or the
    first build of the embedding coefficients (``32 m``, their ``8 m``
    kept in the cache included)."""
    return 8 * sum(_term_layout(hurst, m)) + (8 if hurst == 0.5 else 32) * m


def _path_bytes(terms: int, grid_points: int) -> int:
    """A bound on the working bytes of :func:`simulate_ltfsm` besides its
    term buffers: 128 B per term for the head (its three words, the three
    arrays ``_series_head`` makes from them, their transients, and each
    term's size, running total and coefficient, 8 B each in arrays), and the
    curves, ``8 (grid_points + 1)`` B per term, which the terms fill in
    place.  At P = 2 000, m = 4, grid 1, the path peaked at 82 B per term
    with the fixed costs; at grid 200, 8.4 B per curve value."""
    return terms * (128 + 8 * (grid_points + 1))


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


def _occupation_curves(hurst, m, horizon, bandwidth, words, centers, idx, work):
    """Row ``r``: the occupation functional at level ``centers[r]`` of the fBm
    path with ``m`` increments driven by the raw words of row ``r`` of
    ``words`` (a term's noise word slots, see ``_term_layout``), at path
    indices ``idx`` -- bitwise :func:`~ltfsm.localtime.discretized_occupation`
    of the path that :func:`~ltfsm.fbm.fbm_path` draws from those words.

    The caller owns the memory.  ``words`` is a C-contiguous ``uint64``
    array; it becomes uniforms, then normals, in its own memory.  At
    H != 1/2 ``work`` is a 1-d ``float64`` array of at least
    ``rows * _term_layout(hurst, m)[1]`` entries: ``fbm._fgn_into`` writes
    the half spectrum into it, the inverse FFT overwrites the normals, and
    the fGn goes back into ``work``.  At H = 1/2 ``work`` is not used: the
    fGn is the normals of slots ``1 .. m`` scaled in place, and slot 0
    (whatever it held) becomes the path's 0.  The path's array then holds
    the tent kernel and its prefix sums; only the columns ``idx`` are copied
    out and scaled by ``horizon / m``."""
    _check_bandwidth(bandwidth)
    rows = len(words)
    u = _uniform_in_place(words)
    if hurst == 0.5:  # the path in the words' own memory, after its 0 slot
        paths, noise, half = u, u[:, 1:], None
    else:
        paths = work[: rows * (m + 1)].reshape(rows, m + 1)
        noise, half = u, work[: 2 * paths.size].view(complex).reshape(rows, m + 1)
    uniform_to_gaussian(noise, out=noise)
    _fgn_into(hurst, horizon / m, noise, half, paths[:, 1:])
    paths[:, 0] = 0.0
    np.cumsum(paths[:, 1:], axis=1, out=paths[:, 1:])
    paths -= centers
    _phi_k_in_place(bandwidth, paths)
    np.cumsum(paths, axis=1, out=paths)  # the kernel prefix sums
    sampled = paths[:, idx]
    sampled *= horizon / m
    return sampled


def _arrival_order_sum(coef: np.ndarray, curves: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = sum_n coef[:, n] * curves[:, n, :]`` in increasing-arrival
    order, bitwise the loop ``out = zeros; out += coef[:, n:n+1] * curves[:,
    n, :]``; ``curves`` is overwritten.

    ``cumsum`` adds the terms one by one, as the loop does; ``+ 0.0`` turns
    a column whose every term is -0.0 into +0.0, as the sum from zeros does.
    """
    curves *= coef[:, :, None]
    np.cumsum(curves, axis=1, out=curves)
    np.add(curves[:, -1, :], 0.0, out=out)


# density name -> (uniform -> location transform, importance weight): the only
# place that knows the two importance pairs
_DENSITIES = {
    "laplace": (uniform_to_laplace_half, laplace_weight),
    "gaussian": (uniform_to_gaussian, gaussian_density_weight),
}


def _check_density(density: str) -> None:
    if density not in _DENSITIES:
        raise ValueError(f"density must be {' or '.join(map(repr, _DENSITIES))}")


def _series_head(words: np.ndarray, alpha: float, density: str):
    """``gammas, locations, weights`` from the ``3 P`` head words on the last
    axis of the C-contiguous ``uint64`` array ``words`` (one path, or one row
    per path), which become uniforms in their own memory: ``P`` arrival
    exponentials, ``P`` normal weights, ``P`` location variates."""
    to_location, weight = _DENSITIES[density]
    u = _uniform_in_place(words)
    p = u.shape[-1] // 3
    gammas = np.cumsum(uniform_to_exponential(u[..., :p]), axis=-1)
    locations = to_location(u[..., 2 * p :])
    weights = uniform_to_gaussian(u[..., p : 2 * p]) * weight(locations, alpha)
    return gammas, locations, weights


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
    LePage ensembles pass their 2 MB chunk budget, so at most 17)."""
    requested = _requested_threads(threads)
    if requested is not None:
        return requested
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 1 + _THREAD_BYTES // thread_bytes))


def _run_chunks(worker, out: np.ndarray, chunk_rows: int, threads: int, layouts=()) -> np.ndarray:
    """``worker(start, out[start : start + chunk_rows], bitgen, *arrays)`` on
    consecutive blocks of at most ``chunk_rows`` rows of ``out``, on
    ``threads`` workers; returns ``out``, which each worker fills in the
    view it is handed, so the result is allocated once, by the caller.

    The only place that allocates chunk memory: before any block runs, the
    calling thread makes one buffer set for each worker thread
    (``min(threads, blocks)``): a ``Philox`` for the block to seat, and
    ``np.empty(shape, dtype)`` arrays, one per ``(shape, dtype)`` in
    ``layouts``.  Sets that together need more than physical memory are
    refused with ``ValueError`` before any is made (``_check_memory``), at
    any thread count, explicit or not.  A thread keeps its set, passed whole
    after the block's rows, and takes the next block in row order until none
    is left, so every later block reuses memory that is already faulted in,
    and no two running blocks share a set.  Every block runs on a plain
    ``threading.Thread`` that the calling thread starts and joins, at one
    thread too (a block run in the calling thread faulted its temporaries
    back in from the main heap at every block), so no executor (nor its
    ``concurrent.futures``, ``logging`` and ``queue`` imports) is loaded.
    Each thread runs in its own copy of the caller's context, so a caller's
    ``np.errstate`` holds in every block.  Blocks are handed out one at a
    time: after the first block that raises, no thread starts another, and
    that error is raised once the running blocks have returned.  An error in
    the calling thread while it waits (a ``KeyboardInterrupt``) stops the
    hand-out the same way and is raised at once; the running blocks finish
    on their own."""
    starts = range(0, len(out), chunk_rows)
    threads = min(threads, len(starts))
    set_bytes = sum(int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in layouts)
    _check_memory(f"one buffer set per thread (threads = {threads})", threads * set_bytes,
                  "lower the thread count (threads= or LTFSM_THREADS)")
    sets = [(Philox(key=0), *(np.empty(shape, dtype) for shape, dtype in layouts))
            for _ in range(threads)]
    blocks = iter(starts)
    lock = threading.Lock()
    errors = []  # ``list.append`` is atomic

    def run(buffers) -> None:
        while not errors:
            with lock:
                s = next(blocks, None)
            if s is None:
                return
            try:
                worker(s, out[s : s + chunk_rows], *buffers)
            except BaseException as error:  # re-raised in the calling thread
                errors.append(error)

    # one copy of the caller's context per thread: two cannot enter one
    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, buffers))
               for buffers in sets]
    for thread in workers:
        thread.start()
    try:
        for thread in workers:
            thread.join()
    except BaseException as error:  # an interrupt while waiting: start no more blocks
        errors.append(error)
        raise
    if errors:
        raise errors[0]
    return out


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

    The terms run on ``threads`` workers (see :func:`resolve_threads`), which
    take them one at a time, each thread on one (noise words, work) set
    sized at the largest ``m``; the path is bitwise that of the sequential
    term loop for any count, and ``stream`` is left just past the last noise
    block.  The value at t = 0 is exactly 0 (the grid's first point
    overrides the i = 0 rectangle of the occupation sums).

    The calling thread first works out every term's ``m`` into an ``int64``
    array (so the cap warnings fire there, in term order) and their running
    total.  Term ``n``'s noise block starts ``2 sum_{j<n} m_j`` words past
    the head's end; its worker adds that end as a Python int, so the offset
    is exact at any stream position.  At H != 1/2 the worker first asks for
    the embedding coefficients of its ``m`` (built at first use, see
    ``fbm._embedding_coefficients``), so the build's transient never sits
    beside the term's own noise words, then seats its set's Philox at the offset
    (:func:`ltfsm.streams._seek`) and draws the words the term keeps.  Terms
    run in order, and the grid rule's sizes fall with ``n`` within the head
    and within the tail, so a path builds each size once unless 64 other
    sizes come between two of its terms.

    Two runs are refused with ``ValueError`` (``_check_memory``): one whose
    head and curves together need more than physical memory, before the
    head is drawn (at alpha = 1.2 a tune at ``epsilon = 0.01`` asks for
    10**9 terms); and one whose largest term alone does (an uncapped tune at
    small ``epsilon`` asks for billions of points), before any embedding
    coefficient, buffer or noise word.  So are the threads' buffer sets
    (``_run_chunks``), and the workers run only after that check, so a
    refused run builds no coefficient.
    """
    _check_density(density)
    requested = _requested_threads(threads)
    alpha, hurst, k, horizon = config.alpha, config.hurst, params.k, config.horizon
    _check_memory(f"the head and curves of {params.P} terms on {config.grid_points + 1} times",
                  _path_bytes(params.P, config.grid_points),
                  "raise epsilon or lower the grid size")
    gammas, locations, weights = _series_head(stream.raw(3 * params.P), alpha, density)
    times = config.grid_times
    # before any noise is drawn, in this thread: the grid sizes (an overflow
    # before any work) and the memory check
    points = np.fromiter(
        (params.points_for(n + 1, float(gamma)) for n, gamma in enumerate(gammas)),
        np.int64, params.P,
    )
    largest = int(points.max())
    term_bytes = _term_bytes(hurst, largest)
    _check_memory(f"the largest term (m = {largest})", term_bytes,
                  "cap the grid size with max_points")
    key, head_end = _cursor(stream)
    threads = resolve_threads(requested, term_bytes)
    lead = _noise_lead(hurst)
    # the running total of the points in int64: the noise block of term
    # ``n`` (0-based) starts ``2 (ends[n] - points[n])`` words past the head
    ends = np.cumsum(points)

    def worker(n: int, out: np.ndarray, bitgen, words: np.ndarray, work: np.ndarray) -> None:
        m = int(points[n])
        kept = _term_layout(hurst, m)[0]
        if hurst != 0.5:  # built before the term's words are drawn, not beside them
            fbm._embedding_coefficients(hurst, m)
        _seek(bitgen, key, head_end + 2 * (int(ends[n]) - m))
        words[lead:kept] = bitgen.random_raw(kept - lead)
        idx = grid_index(m, horizon, times)
        out[:] = _occupation_curves(hurst, m, horizon, k, words[None, :kept], locations[n],
                                    idx, work)

    # one term per block
    layouts = list(zip(_term_layout(hurst, largest), (np.uint64, np.float64)))
    curves = _run_chunks(worker, np.empty((params.P, len(times))), 1, threads, layouts)
    _seek(stream._bitgen, key, head_end + 2 * int(ends[-1]))
    curves *= weights[:, None]
    coef = np.fromiter((_power(float(gamma), -1.0 / alpha) for gamma in gammas),
                       np.float64, params.P)
    total = np.empty(len(times))
    _arrival_order_sum(coef[None], curves[None], total[None])
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

    are normalized by ``steps**(1/2 + 1/(2 alpha))``.  Draw order, in raw
    words of ``stream``: ``steps`` sign words, then the rewards of the
    visited range in ascending site order, two words per site (first all the
    sites' oracle angles, then their exponentials; see :mod:`ltfsm.oracle`).
    The value at t = 0 is exactly 0 (empty sum).
    """
    _check_rwrr(alpha, steps, grid_points, horizon)
    values = _rwrr_row(alpha, stream.raw, steps, grid_points)
    return SamplePath(times=_grid_times(horizon, grid_points), values=values)


def _check_rwrr(alpha, steps, grid_points, horizon, n_paths=1) -> None:
    """Reject, by name, random-walk arguments out of range, and a walk that
    alone needs more than physical memory, before anything is drawn."""
    oracle._check_stable_alpha(alpha)
    _check_counts(n_paths=n_paths, steps=steps, grid_points=grid_points)
    _check_positive("horizon", horizon)
    _check_memory(f"one walk ({steps} steps)", _rwrr_row_bytes(steps), "lower steps")


def _rwrr_row_bytes(steps: int) -> int:
    """A bound on the peak working bytes of ``_rwrr_row``, 48 B per step.

    A walk that never turns visits one site per step and peaks there: 8 B
    of positions per step and 40 B per site, its two words and the oracle
    transform's three float arrays (after the transform, the rewards, the
    gathered rewards and the partial sums hold as much).  A walk visits at
    most ``steps + 1`` sites; a typical one visits about ``steps**(1/2)``
    and peaks near 24 B per step (positions, gathered rewards, partial
    sums)."""
    return 48 * (steps + 1)


def _rwrr_row(alpha, draw, steps, grid_points) -> np.ndarray:
    """The ``grid_points + 1`` values of one :func:`simulate_rwrr_baseline`
    path, from ``draw(n)``, which returns the next ``n`` raw words as a fresh
    ``uint64`` array (``RandomStream.raw`` for the one path, a substream
    head's ``random_raw`` for each row of
    :func:`ltfsm.experiments.rwrr_path_ensemble`).

    Step ``j`` is +1 iff the top bit of sign word ``j`` is set (the sign-bit
    identity of :mod:`ltfsm.streams`).  The positions overwrite the sign
    words, shifted so that the lowest visited site is 0; the rewards of the
    visited sites, in ascending site order, are the oracle transform of the
    next ``2 * sites`` words.  Grid point ``i`` reads the partial sum after
    ``floor(steps * i / grid_points)`` steps (one gather, one ``cumsum``,
    one fancy index), and the empty sum before the first step is exactly 0.
    """
    words = draw(steps)
    words >>= np.uint64(63)  # 1 iff the step is +1
    positions = words.view(np.int64)
    positions *= 2
    positions -= 1
    np.cumsum(positions, out=positions)
    positions -= int(positions.min())
    u = _uniform_in_place(draw(2 * (int(positions.max()) + 1)))
    rewards = oracle._stable_from_uniforms(alpha, u)
    partial = np.empty(steps + 1)
    partial[0] = 0.0
    np.cumsum(rewards[positions], out=partial[1:])
    columns = (steps * np.arange(grid_points + 1, dtype=np.int64)) // grid_points
    return partial[columns] / float(steps) ** (0.5 + 0.5 / alpha)

"""Batched Monte Carlo drivers behind the validation protocol and the CLI.

Replicate ``j`` of every driver works exclusively from ``stream.substream(j)``
and consumes raw words in exactly the order documented for the corresponding
single-path operation, so results are independent of the worker count
(parallelism only distributes whole replicates) and of chunk sizes: every
driver reduces its replicates only after ``_run_chunks`` has put them back
together.

Every driver hands its chunk worker to ``_run_chunks`` (shared with
:func:`ltfsm.process.simulate_ltfsm`), the only code that allocates chunk
memory: the calling thread makes one buffer set per chunk that can run at
once, and each chunk borrows a free set and takes its leading rows.  Chunk
sizes follow from one byte budget, ``_CHUNK_BYTES`` (8 MB): each driver has
a pure model of the peak working bytes of one replicate
(``_series_row_bytes``, ``_ARRIVAL_BYTES`` per arrival), and a set holds as
many replicates as fit, or the whole call if that is smaller.  A replicate
that alone needs more than physical memory is refused with ``ValueError``
before any substream is drawn.  Chunks run on ``threads=`` workers, else
``LTFSM_THREADS``, else the CPUs, but no more than add 32 MB of buffers to
the first (:func:`resolve_threads`; at most 5 for the series and LePage
drivers); outputs are bitwise identical for any thread count.

A chunk of replicates draws its rows from one reused Philox (see
:func:`ltfsm.streams._substream_heads`) instead of building one
:class:`~ltfsm.streams.RandomStream` per replicate.  The series ensemble
copies each row's words into its chunk's ``uint64`` head and noise buffers
(at H = 1/2 only the used half of each noise block), converts them to
uniforms in place and runs ``ndtri`` into the same memory; the occupation
kernel then works in those normals and the chunk's work array, and the
terms are summed in arrival order in the curves' own memory
(``_arrival_order_sum``, shared with :func:`ltfsm.process.simulate_ltfsm`).  The
random-walk ensemble runs the walk kernel of
:func:`ltfsm.process.simulate_rwrr_baseline` row by row, so its rows equal
that function's paths bitwise; a row is a dozen short NumPy calls that hold
the interpreter lock, so more threads do not speed it up.
The arrival-series drivers (:func:`lepage_marginal_samples`,
:func:`tail_moment_sweep`) share one chunk worker, ``_arrival_sums``, that
draws each chunk into its two ``uint64`` buffers, the exponential
words and the sign words.  The exponential block becomes uniforms, arrival
times and powers in its own memory, and the Rademacher signs are applied as
sign-bit flips from the sign block (see the :mod:`ltfsm.streams` docstring),
so a chunk holds 16 B per arrival and no float temporaries; the results are
bitwise those of converting every word to a uniform.

The series drivers use fixed per-term sizes (:func:`ltfsm.process.flat_params`
style): ``terms`` series terms, kernel bandwidth ``bandwidth`` and ``points``
fBm increments per term.  The epsilon-tuned rules produce per-term grids far
beyond desk budgets, while the distributional checks here only need sizes
large enough that the remaining bias is below Monte Carlo resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import _check_horizon, _check_hurst
from .localtime import _check_bandwidth, grid_index
from .oracle import _stable_from_uniforms, sample_stable_oracle
from .process import (
    _arrival_order_sum,
    _check_counts,
    _check_density,
    _check_memory,
    _occupation_curves,
    _run_chunks,
    _rwrr_values,
    _series_head,
    _walk_sites,
    _work_row,
    resolve_threads,
)
from .streams import (
    RandomStream,
    _substream_heads,
    _uniform_in_place,
    uniform_to_gaussian,
)
from .validation import CfEstimate, empirical_cf, fit_scale_by_cf, ks_distance, linreg_r2

__all__ = [
    "series_path_ensemble",
    "rwrr_path_ensemble",
    "CfLinearityResult",
    "cf_linearity_experiment",
    "lepage_marginal_samples",
    "MarginalCheckResult",
    "stable_marginal_check",
    "tail_moment_sweep",
    "representation_cf_table",
]


# Peak working bytes of one chunk in flight (see the module docstring).
_CHUNK_BYTES = 8_000_000

# Arrival-series drivers, per arrival: the chunk holds 16 B of words (the
# exponential and at most one sign word), converted in place.  The budget is
# held at 32 B, so a chunk in flight peaks near half of ``_CHUNK_BYTES``
# (250 rows at 1 000 arrivals): budgeting the true 16 B doubles the rows, and
# it raised the peak RSS of the ``marginal`` bench workload from 62.4 to
# 65.1 MiB, with no measurable time gain.
_ARRIVAL_BYTES = 32


def _chunk_rows(bytes_per_row: int) -> int:
    """Rows per chunk for replicates of ``bytes_per_row`` peak working bytes:
    as many as ``_CHUNK_BYTES`` holds, and at least 1."""
    return max(1, _CHUNK_BYTES // bytes_per_row)


# -- flat-parameter series ensemble -------------------------------------------


def _series_row_bytes(hurst: float, terms: int, points: int) -> int:
    """Peak working bytes of one :func:`series_path_ensemble` replicate.

    The ``uint64`` head and noise buffers are converted in place and live
    throughout (at H = 1/2 only ``points`` noise words per term are kept),
    next to the occupation kernel's work array: the path at H = 1/2, the
    complex half spectrum otherwise (the inverse FFT runs into the noise).
    """
    p, m = terms, points
    noise = p * (m if hurst == 0.5 else 2 * m)
    return 8 * (3 * p + noise) + 8 * p * _work_row(hurst, m)


def series_path_ensemble(
    alpha: float,
    hurst: float,
    n_paths: int,
    terms: int,
    bandwidth: int,
    points: int,
    stream: RandomStream,
    horizon: float = 1.0,
    grid_points: int = 20,
    density: str = "laplace",
    threads: int | None = None,
) -> np.ndarray:
    """Matrix of series paths, one row per replicate, ``grid_points + 1``
    columns (t = 0 included, value exactly 0).

    Replicate ``j`` consumes, from ``stream.substream(j)``: ``terms``
    exponentials (arrivals), ``terms`` normals (weights), ``terms`` location
    variates, then ``terms`` blocks of ``2 * points`` normals (fBm noise) --
    the same order as :func:`ltfsm.process.simulate_ltfsm`.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    _check_hurst(hurst)
    _check_horizon(horizon)
    _check_density(density)
    _check_counts(n_paths=n_paths, terms=terms, points=points, grid_points=grid_points)
    _check_bandwidth(bandwidth)
    row_bytes = _series_row_bytes(hurst, terms, points)
    _check_memory(f"one replicate ({terms} terms of {points} points)", row_bytes,
                  "lower terms or points")
    threads = resolve_threads(threads, _CHUNK_BYTES)
    m = points
    p = terms
    idx = grid_index(m, horizon, np.arange(grid_points + 1) * (horizon / grid_points))

    # at H = 1/2 only the first m words of each 2m-word noise block are used:
    # every word is still drawn, but the rest are never kept
    used = m if hurst == 0.5 else 2 * m

    chunk_rows = _chunk_rows(row_bytes)
    size = min(chunk_rows, n_paths)
    layouts = [
        ((size, 3 * p), np.uint64),
        ((size, p, used), np.uint64),
        ((size, p * _work_row(hurst, m)), np.float64),
    ]

    def worker(start: int, rows: int, head, noise, work) -> np.ndarray:
        head, noise, work = head[:rows], noise[:rows], work[:rows]
        for r, bitgen in enumerate(_substream_heads(stream, start, rows)):
            head[r] = bitgen.random_raw(3 * p)
            noise[r] = bitgen.random_raw(p * 2 * m).reshape(p, 2 * m)[:, :used]
        gammas, locations, weights = _series_head(_uniform_in_place(head), alpha, density)
        normals = _uniform_in_place(noise)
        uniform_to_gaussian(normals, out=normals)
        curves = _occupation_curves(
            hurst, m, horizon, bandwidth, normals.reshape(rows * p, used),
            locations.reshape(rows * p, 1), idx, work.reshape(-1),
        ).reshape(rows, p, len(idx))
        out = _arrival_order_sum(gammas ** (-1.0 / alpha) * weights, curves)
        out[:, 0] = 0.0
        return out

    return _run_chunks(worker, n_paths, chunk_rows, threads, layouts)


def rwrr_path_ensemble(
    alpha: float,
    n_paths: int,
    steps: int,
    stream: RandomStream,
    horizon: float = 1.0,
    grid_points: int = 20,
    threads: int | None = None,
) -> np.ndarray:
    """Matrix of random-walk-with-rewards paths, one row per replicate.

    Row ``j`` is bitwise ``simulate_rwrr_baseline(alpha, steps, grid_points,
    stream.substream(j), horizon).values``.  Each row draws from one reused
    Philox per chunk: ``steps`` sign words (the top bit gives the step), then
    the rewards' words, continuing where the signs stopped.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    _check_counts(n_paths=n_paths, steps=steps, grid_points=grid_points)
    _check_horizon(horizon)
    threads = resolve_threads(threads)

    def worker(start: int, rows: int) -> np.ndarray:
        out = np.empty((rows, grid_points + 1))
        for r, bitgen in enumerate(_substream_heads(stream, start, rows)):
            words = bitgen.random_raw(steps)
            words >>= np.uint64(63)  # 1 iff the step is +1 (sign-bit identity)
            moves = words.view(np.int64)
            moves *= 2
            moves -= 1
            sites = _walk_sites(moves)
            u = _uniform_in_place(bitgen.random_raw(2 * sites))
            rewards = _stable_from_uniforms(alpha, u)
            out[r] = _rwrr_values(alpha, moves, rewards, grid_points)
        return out

    # rows run one at a time, so memory does not grow with the chunk: 512 rows
    # is a unit of work per thread, not a memory budget
    return _run_chunks(worker, n_paths, 512, threads)


# -- characteristic-function linearity ------------------------------------------


@dataclass(frozen=True)
class CfLinearityResult:
    """Log-modulus of the empirical CF against time, with its fit."""

    method: str
    u: float
    n_paths: int
    times: np.ndarray
    log_modulus: np.ndarray
    stderr: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def cf_linearity_experiment(
    method: str,
    alpha: float,
    hurst: float,
    n_paths: int,
    stream: RandomStream,
    u: float = 1.0,
    n_times: int = 20,
    horizon: float = 1.0,
    terms: int = 64,
    bandwidth: int = 16,
    points: int = 256,
    steps: int = 10000,
    threads: int | None = None,
) -> CfLinearityResult:
    """Estimate ``log |E exp(i u Y(t))|`` on ``n_times`` points of (0, T] and
    fit a line in t.

    For a stable marginal scaling linearly in t (the alpha = 1 regime) the
    log-modulus is exactly linear, so ``r_squared`` quantifies how far the
    simulated ensemble is from that law.  ``stderr`` is the Monte Carlo
    standard error of the log-modulus (delta method).
    """
    if method == "series":
        values = series_path_ensemble(
            alpha,
            hurst,
            n_paths,
            terms,
            bandwidth,
            points,
            stream,
            horizon=horizon,
            grid_points=n_times,
            threads=threads,
        )
    elif method == "rwrr":
        values = rwrr_path_ensemble(
            alpha,
            n_paths,
            steps,
            stream,
            horizon=horizon,
            grid_points=n_times,
            threads=threads,
        )
    else:
        raise ValueError("method must be 'series' or 'rwrr'")
    times = np.arange(1, n_times + 1) * (horizon / n_times)
    est = empirical_cf(values[:, 1:], u)
    modulus = np.maximum(est.modulus, 1e-300)
    log_modulus = np.log(modulus)
    stderr = est.stderr / modulus
    slope, intercept, r2 = linreg_r2(times, log_modulus)
    return CfLinearityResult(
        method=method,
        u=u,
        n_paths=n_paths,
        times=times,
        log_modulus=log_modulus,
        stderr=stderr,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
    )


# -- marginal distribution against the oracle -----------------------------------

_SIGN_BIT = np.uint64(1 << 63)


def _signed_arrival_sums(
    exp: np.ndarray, signs: np.ndarray, skip: int, alpha: float
) -> np.ndarray:
    """Row sums of ``Gamma_n**(-1/alpha) * eps_n`` over ``n = skip + 1 ..
    arrivals``, from a chunk's exponential and sign word blocks (see
    :func:`_arrival_sums`); both are overwritten.

    The exponential words become uniforms, arrivals and powers in their own
    memory.  Bitwise equal to converting every word to a uniform and
    multiplying by :func:`~ltfsm.streams.uniform_to_rademacher` signs:
    ``eps_n = +1`` iff the sign word's top bit is set, and a product with
    ``+-1.0`` only flips the sign bit, so the signs are XOR-ed into the
    floats' sign bits.
    """
    x = _uniform_in_place(exp)
    np.log(x, out=x)
    np.negative(x, out=x)
    np.cumsum(x, axis=1, out=x)
    x = x[:, skip:]
    x **= -1.0 / alpha
    np.invert(signs, out=signs)
    signs &= _SIGN_BIT
    bits = x.view(np.uint64)
    bits ^= signs
    return np.sum(x, axis=1)


def _arrival_sums(
    alpha: float, arrivals: int, skip: int, count: int, stream: RandomStream, threads: int
) -> np.ndarray:
    """``count`` replicates of ``sum_{n = skip + 1}^{arrivals} Gamma_n**(-1/alpha)
    * eps_n``.  Replicate ``j`` consumes from ``stream.substream(j)``:
    ``arrivals`` exponentials, then ``arrivals - skip`` signs."""
    # a replicate holds 16 B per arrival: its exponential and its sign word
    _check_memory(f"one replicate ({arrivals} arrivals)", 16 * arrivals,
                  "lower the number of arrivals")
    signs = arrivals - skip
    chunk_rows = _chunk_rows(_ARRIVAL_BYTES * arrivals)
    size = min(chunk_rows, count)
    layouts = [((size, arrivals), np.uint64), ((size, signs), np.uint64)]

    def worker(start: int, rows: int, exp, sgn) -> np.ndarray:
        exp, sgn = exp[:rows], sgn[:rows]
        for r, bitgen in enumerate(_substream_heads(stream, start, rows)):
            exp[r] = bitgen.random_raw(arrivals)
            sgn[r] = bitgen.random_raw(signs)
        return _signed_arrival_sums(exp, sgn, skip, alpha)

    return _run_chunks(worker, count, chunk_rows, threads, layouts)


def lepage_marginal_samples(
    alpha: float,
    terms: int,
    n_samples: int,
    stream: RandomStream,
    threads: int | None = None,
) -> np.ndarray:
    """Samples of the truncated arrival series with Rademacher weights.

    Replicate ``j`` consumes from ``stream.substream(j)``: ``terms``
    exponentials, then ``terms`` signs.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    _check_counts(terms=terms, n_samples=n_samples)
    threads = resolve_threads(threads, _CHUNK_BYTES)
    return _arrival_sums(alpha, terms, 0, n_samples, stream, threads)


@dataclass(frozen=True)
class MarginalCheckResult:
    """KS comparison of the truncated series against the scaled oracle."""

    alpha: float
    terms: int
    n_samples: int
    fitted_scale: float
    ks: float


def stable_marginal_check(
    alpha: float,
    terms: int,
    n_samples: int,
    stream: RandomStream,
    threads: int | None = None,
) -> MarginalCheckResult:
    """KS distance between series samples and the CF-scale-fitted oracle.

    Series replicates run on ``stream.substream(0).substream(j)``; the oracle
    draws ``n_samples`` variates from ``stream.substream(1)``.
    """
    series = lepage_marginal_samples(
        alpha, terms, n_samples, stream.substream(0), threads=threads
    )
    reference = np.asarray(sample_stable_oracle(alpha, stream.substream(1), n_samples))
    scale = fit_scale_by_cf(series, alpha)
    ks = ks_distance(series, scale * reference)
    return MarginalCheckResult(
        alpha=alpha,
        terms=terms,
        n_samples=n_samples,
        fitted_scale=scale,
        ks=ks,
    )


# -- truncation-tail second moments ----------------------------------------------


def tail_moment_sweep(
    alpha: float,
    n_values,
    replicates: int,
    stream: RandomStream,
    factor: int = 64,
) -> dict[int, tuple[float, float]]:
    """Empirical ``E | sum_{n = N+1}^{factor N} Gamma_n^{-1/alpha} eps_n |^2``
    for each N, as ``{N: (mean, stderr)}``.

    The sweep for the i-th entry of ``n_values`` runs on
    ``stream.substream(i)``; replicate ``j`` of a sweep consumes from
    ``substream(j)``: ``factor * N`` exponentials, then ``factor * N - N``
    signs (tail terms only).  Every N must be an integer >= 1, and no N may
    repeat.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    _check_counts(replicates=replicates, factor=factor)
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    n_values = list(n_values)
    if not all(float(n_low).is_integer() and n_low >= 1 for n_low in n_values):
        raise ValueError("n_values must all be integers >= 1")
    n_values = [int(n_low) for n_low in n_values]
    if len(set(n_values)) < len(n_values):
        raise ValueError("n_values must not repeat")
    out: dict[int, tuple[float, float]] = {}
    for i, n_low in enumerate(n_values):
        total = int(factor * n_low)
        sums = _arrival_sums(alpha, total, n_low, replicates, stream.substream(i), 1)
        sq = sums * sums
        out[n_low] = (float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(replicates))
    return out


# -- two representations of the same law ------------------------------------------


def representation_cf_table(
    alpha: float,
    hurst: float,
    n_paths: int,
    terms: int,
    bandwidth: int,
    points: int,
    u_values,
    stream: RandomStream,
    horizon: float = 1.0,
    grid_points: int = 5,
    threads: int | None = None,
) -> list[tuple[float, CfEstimate, CfEstimate]]:
    """Empirical CFs of the Laplace-form and Gaussian-form ensembles.

    Returns one ``(u, laplace_estimate, gaussian_estimate)`` triple per
    frequency, each estimate over the ``grid_points`` positive grid times.
    The two ensembles run on ``stream.substream(0)`` and
    ``stream.substream(1)``.
    """
    common = dict(
        alpha=alpha,
        hurst=hurst,
        n_paths=n_paths,
        terms=terms,
        bandwidth=bandwidth,
        points=points,
        horizon=horizon,
        grid_points=grid_points,
        threads=threads,
    )
    values_l = series_path_ensemble(
        stream=stream.substream(0), density="laplace", **common
    )
    values_g = series_path_ensemble(
        stream=stream.substream(1), density="gaussian", **common
    )
    table = []
    for u in u_values:
        table.append(
            (float(u), empirical_cf(values_l[:, 1:], u), empirical_cf(values_g[:, 1:], u))
        )
    return table

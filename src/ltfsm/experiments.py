"""Batched Monte Carlo drivers behind the validation protocol and the CLI.

Replicate ``j`` of every driver works exclusively from ``stream.substream(j)``
and consumes raw words in exactly the order documented for the corresponding
single-path operation, so results are independent of the worker count
(parallelism only distributes whole replicates) and of chunk sizes: every
driver reduces its replicates only after ``_run_chunks`` has filled the
whole result.

Where each rule lives: chunk memory and threads, ``ltfsm.process._run_chunks``
(shared with :func:`ltfsm.process.simulate_ltfsm`) on
:func:`~ltfsm.process.resolve_threads` workers, so outputs are bitwise
identical for any thread count; each driver gives it the buffer layout of
one replicate, and each block gets its own leading rows; chunk sizes,
:func:`_chunk_rows` from one byte budget, ``_CHUNK_BYTES``, and each
driver's model of one replicate;
the memory refusals, ``_check_series``, ``_check_paths``,
``_check_arrivals`` and ``ltfsm.process._check_rwrr``; a chunk's rows from
one Philox, :func:`ltfsm.streams._substream_heads`.  Every chunk worker
only seats substreams and draws raw words, and the kernels convert them:
the series kernels of :mod:`ltfsm.process`, its random-walk row kernel
``_rwrr_row``, and :func:`_signed_arrival_sums` for the arrival-series
drivers.  A protocol whose statistic cannot be formed is refused before any
draw, as its docstring states.

The series drivers use fixed per-term sizes (:func:`ltfsm.process.flat_params`
style): ``terms`` series terms, kernel bandwidth ``bandwidth`` and ``points``
fBm increments per term.  The epsilon-tuned rules produce per-term grids far
beyond desk budgets, while the distributional checks here only need sizes
large enough that the remaining bias is below Monte Carlo resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fbm import _check_alpha, _check_counts, _check_hurst, _check_positive, _grid_times
from .localtime import _check_bandwidth, grid_index
from .oracle import sample_stable_oracle
from .process import (
    _arrival_order_sum,
    _check_density,
    _check_memory,
    _check_rwrr,
    _occupation_curves,
    _run_chunks,
    _rwrr_row,
    _series_head,
    _term_layout,
    resolve_threads,
)
from .streams import RandomStream, _substream_heads, _uniform_in_place
from .validation import (
    CfEstimate, _sum_of_squares, empirical_cf, fit_scale_by_cf, ks_distance, linreg_r2,
)

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


# Peak working bytes of one chunk in flight (see :func:`_chunk_rows`).
_CHUNK_BYTES = 2_000_000

# Arrival-series drivers, per arrival: the chunk holds 16 B of words (the
# exponential and at most one sign word), converted in place.
_ARRIVAL_BYTES = 16

# Empirical-CF protocols, per path and time: the ensemble's 8 B and the
# statistic's three float arrays (``validation.empirical_cf``); the table
# holds both ensembles' 8 B.
_CF_BYTES = 32
_TABLE_BYTES = 40

# LePage marginal check, per sample: the series' 8 B next to the oracle's
# 16 B of uniforms and its transform's three float arrays
# (``oracle._stable_from_uniforms``), the peak of the check.
_MARGINAL_BYTES = 48


def _chunk_rows(row_bytes: int, draw_bytes: int, curve_bytes: int = 0) -> int:
    """Rows per chunk for replicates of ``row_bytes`` peak working bytes, each
    copied from a raw draw of at most ``draw_bytes`` and forming curves of
    ``curve_bytes`` once the draws are freed: as many as ``_CHUNK_BYTES``
    holds next to the larger of one draw and the rows' curves, and at least
    1."""
    return max(1, min((_CHUNK_BYTES - draw_bytes) // row_bytes,
                      _CHUNK_BYTES // (row_bytes + curve_bytes)))


def _check_paths(n_paths: int, grid_points: int, cell_bytes: int = 8) -> None:
    """Refuse ``n_paths`` rows on ``grid_points + 1`` times that need more
    than physical memory at ``cell_bytes`` per cell: by default 8 B, the
    returned matrix, which the chunks fill in place."""
    _check_memory(f"{n_paths} paths on {grid_points + 1} times",
                  cell_bytes * n_paths * (grid_points + 1), "lower the paths or the grid points")


# -- flat-parameter series ensemble -------------------------------------------


def _series_row_bytes(hurst: float, terms: int, points: int) -> int:
    """Peak working bytes of one :func:`series_path_ensemble` replicate.

    The ``uint64`` head and noise buffers (each term's noise word slots) are
    converted in place and live throughout, next to the occupation kernel's
    work array: none at H = 1/2, where the path is built in the noise slots,
    the complex half spectrum otherwise (the inverse FFT runs into the
    noise); see ``_term_layout``.  The head's three float arrays and the
    coefficient and its temporary add 40 B per term.  A replicate's raw
    draw, ``2 * points`` words per term, or later its curves, ``grid_points
    + 1`` floats per term, come on top of the chunk (see :func:`_chunk_rows`).
    """
    return 8 * terms * (8 + sum(_term_layout(hurst, points)[1:]))


def _check_series(alpha, hurst, n_paths, terms, bandwidth, points, horizon, grid_points,
                  density) -> tuple[int, int, int]:
    """Reject, by name, series-ensemble arguments out of range, and a
    replicate that alone needs more than physical memory: a one-row chunk,
    its working bytes next to the larger of its raw draw and its curves.
    Return those three sizes, the arguments of :func:`_chunk_rows`."""
    _check_alpha(alpha)
    _check_hurst(hurst)
    _check_positive("horizon", horizon)
    _check_density(density)
    _check_counts(n_paths=n_paths, terms=terms, points=points, grid_points=grid_points)
    _check_bandwidth(bandwidth)
    row_bytes = _series_row_bytes(hurst, terms, points)
    draw_bytes, curve_bytes = 16 * terms * points, 8 * terms * (grid_points + 1)
    _check_memory(f"one replicate ({terms} terms of {points} points)",
                  row_bytes + max(draw_bytes, curve_bytes), "lower terms, points or grid points")
    return row_bytes, draw_bytes, curve_bytes


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
    the same order as :func:`ltfsm.process.simulate_ltfsm`.  A chunk copies
    each row's words into its ``uint64`` head and noise buffers (each term's
    noise word slots, by ``ltfsm.process._term_layout``), and runs the head
    kernel, the occupation kernel and the arrival-order sum of that module
    on them.
    """
    sizes = _check_series(alpha, hurst, n_paths, terms, bandwidth, points, horizon,
                          grid_points, density)
    _check_paths(n_paths, grid_points)
    threads = resolve_threads(threads, _CHUNK_BYTES)
    m = points
    p = terms
    idx = grid_index(m, horizon, _grid_times(horizon, grid_points))
    lead, kept, floats = _term_layout(hurst, m)
    layouts = [((3 * p,), np.uint64), ((p, kept), np.uint64), ((p * floats,), np.float64)]

    def worker(start: int, out: np.ndarray, bitgen, head, noise, work) -> None:
        rows = len(out)
        for r, bitgen in enumerate(_substream_heads(bitgen, stream, start, rows)):
            head[r] = bitgen.random_raw(3 * p)
            noise[r, :, lead:] = bitgen.random_raw(p * 2 * m).reshape(p, 2 * m)[:, : kept - lead]
        gammas, locations, weights = _series_head(head, alpha, density)
        curves = _occupation_curves(
            hurst, m, horizon, bandwidth, noise.reshape(rows * p, kept),
            locations.reshape(rows * p, 1), idx, work.reshape(-1),
        ).reshape(rows, p, len(idx))
        _arrival_order_sum(gammas ** (-1.0 / alpha) * weights, curves, out)
        out[:, 0] = 0.0

    return _run_chunks(worker, np.empty((n_paths, len(idx))), _chunk_rows(*sizes), threads,
                       layouts)


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
    stream.substream(j), horizon).values``: both run the row kernel
    ``_rwrr_row``, here on the raw words of its chunk thread's Philox.  A
    row is a dozen short NumPy calls that hold the interpreter lock, so more
    threads do not speed it up.
    """
    _check_rwrr(alpha, steps, grid_points, horizon, n_paths)
    _check_paths(n_paths, grid_points)
    threads = resolve_threads(threads)

    def worker(start: int, out: np.ndarray, bitgen) -> None:
        for r, bitgen in enumerate(_substream_heads(bitgen, stream, start, len(out))):
            out[r] = _rwrr_row(alpha, bitgen.random_raw, steps, grid_points)

    # rows run one at a time, so memory does not grow with the chunk: 512 rows
    # is a unit of work per thread, not a memory budget
    return _run_chunks(worker, np.empty((n_paths, grid_points + 1)), 512, threads)


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

    ``u`` must be finite and nonzero (at u = 0 every log-modulus is exactly
    0, and the fit tests nothing), ``n_paths`` at least 2 (the empirical CF)
    and ``n_times`` at least 3 (a line through two points has no residual,
    so R^2 = 1); the fit's sum of squares of the times must be finite (a
    horizon above about ``1e154`` is refused); one replicate, then the
    ensemble and its statistic (``_CF_BYTES`` per path and time), must fit
    in physical memory.  All are checked before any draw.  A log-modulus
    that comes out equal at every time (all paths 0, say with one term on
    one point) is refused after the draw: its fit would read R^2 = 1 and
    test nothing.
    """
    if method not in ("series", "rwrr"):
        raise ValueError("method must be 'series' or 'rwrr'")
    _check_frequency(u)
    _check_counts(least=2, n_paths=n_paths)
    _check_counts(least=3, n_times=n_times)
    if method == "series":
        _check_series(alpha, hurst, n_paths, terms, bandwidth, points, horizon, n_times,
                      "laplace")
        ensemble = partial(series_path_ensemble, alpha, hurst, n_paths, terms, bandwidth, points)
    else:
        _check_rwrr(alpha, steps, n_times, horizon, n_paths)
        ensemble = partial(rwrr_path_ensemble, alpha, n_paths, steps)
    times = _grid_times(horizon, n_times)[1:]
    _sum_of_squares(times - times.mean(), f"the {n_times} CF times on (0, {horizon:g}]")
    _check_paths(n_paths, n_times, _CF_BYTES)
    values = ensemble(stream, horizon=horizon, grid_points=n_times, threads=threads)
    est = empirical_cf(values[:, 1:], u)
    modulus = np.maximum(est.modulus, 1e-300)
    log_modulus = np.log(modulus)
    if np.all(log_modulus == log_modulus[0]):
        raise ValueError(
            f"the CF log-modulus is {log_modulus[0]:g} at all {n_times} times (as when "
            "every path is 0), so the line fit has nothing to test"
        )
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


def _check_frequency(u: float) -> None:
    if not (math.isfinite(u) and u != 0.0):
        raise ValueError("u must be finite and nonzero: at u = 0 every log-modulus is 0")


# -- marginal distribution against the oracle -----------------------------------

_SIGN_BIT = np.uint64(1 << 63)


def _signed_arrival_sums(
    exp: np.ndarray, signs: np.ndarray, skip: int, alpha: float, out: np.ndarray
) -> None:
    """Row sums of ``Gamma_n**(-1/alpha) * eps_n`` over ``n = skip + 1 ..
    arrivals`` into ``out``, from a chunk's exponential and sign word blocks
    (see :func:`_arrival_sums`); both are overwritten.

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
    np.sum(x, axis=1, out=out)


def _check_arrivals(arrivals: int) -> None:
    """Refuse a replicate of ``arrivals`` arrivals that alone needs more than
    physical memory; it holds 16 B per arrival, its exponential and its sign
    word."""
    _check_memory(f"one replicate ({arrivals} arrivals)", _ARRIVAL_BYTES * arrivals,
                  "lower the number of arrivals")


def _arrival_sums(
    alpha: float, arrivals: int, skip: int, count: int, stream: RandomStream, threads: int
) -> np.ndarray:
    """``count`` replicates of ``sum_{n = skip + 1}^{arrivals} Gamma_n**(-1/alpha)
    * eps_n``, the chunk worker of both arrival-series drivers.  Replicate
    ``j`` consumes from ``stream.substream(j)``: ``arrivals`` exponentials,
    then ``arrivals - skip`` signs, drawn into the chunk's two ``uint64``
    buffers, the exponential words and the sign words."""
    signs = arrivals - skip
    # the larger raw draw of a row is its exponential words
    chunk_rows = _chunk_rows(_ARRIVAL_BYTES * arrivals, 8 * arrivals)
    layouts = [((arrivals,), np.uint64), ((signs,), np.uint64)]

    def worker(start: int, out: np.ndarray, bitgen, exp, sgn) -> None:
        for r, bitgen in enumerate(_substream_heads(bitgen, stream, start, len(out))):
            exp[r] = bitgen.random_raw(arrivals)
            sgn[r] = bitgen.random_raw(signs)
        _signed_arrival_sums(exp, sgn, skip, alpha, out)

    return _run_chunks(worker, np.empty(count), chunk_rows, threads, layouts)


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
    _check_alpha(alpha)
    _check_counts(terms=terms, n_samples=n_samples)
    _check_arrivals(terms)
    _check_memory(f"{n_samples} samples", 8 * n_samples, "lower the number of samples")
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
    draws ``n_samples`` variates from ``stream.substream(1)``.  The scale fit
    needs ``n_samples >= 2``, and the check holds at most
    ``_MARGINAL_BYTES`` per sample, which must fit in physical memory; both
    are checked before any draw.  A series sample or an oracle draw that
    leaves the float range (at a tiny ``alpha``) is refused with
    ``ValueError`` before the fit; numpy's floating-point warnings are
    silenced for the two draws, on every chunk thread too.  The reference
    is scaled in place, and the statistics hold no pooled temporaries (see
    :func:`~ltfsm.validation.ks_distance`).
    """
    _check_counts(least=2, n_samples=n_samples)
    _check_arrivals(terms)  # one replicate too large is named first
    _check_memory(f"{n_samples} samples against the oracle", _MARGINAL_BYTES * n_samples,
                  "lower the number of samples")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        series = lepage_marginal_samples(
            alpha, terms, n_samples, stream.substream(0), threads=threads
        )
        reference = np.asarray(sample_stable_oracle(alpha, stream.substream(1), n_samples))
    for what, values in (("series samples", series), ("oracle draws", reference)):
        if not np.isfinite(values).all():
            raise ValueError(
                f"the {what} are not finite: they leave the float range at "
                f"alpha = {alpha:g}; raise alpha"
            )
    scale = fit_scale_by_cf(series, alpha)
    reference *= scale
    ks = ks_distance(series, reference)
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
    signs (tail terms only), on one thread.  ``n_values`` must not be
    empty, every N must be an integer >= 1, and no N may repeat.
    """
    _check_alpha(alpha)
    _check_counts(factor=factor)
    _check_counts(least=2, replicates=replicates)
    n_values = list(n_values)
    if not n_values:
        raise ValueError("n_values must not be empty")
    if not all(float(n_low).is_integer() and n_low >= 1 for n_low in n_values):
        raise ValueError("n_values must all be integers >= 1")
    n_values = [int(n_low) for n_low in n_values]
    if len(set(n_values)) < len(n_values):
        raise ValueError("n_values must not repeat")
    _check_arrivals(factor * max(n_values))  # before the first sweep draws
    # 16 B per replicate: a sweep's sums next to the previous sweep's squares
    _check_memory(f"{replicates} replicates", 16 * replicates,
                  "lower the number of replicates")
    out: dict[int, tuple[float, float]] = {}
    for i, n_low in enumerate(n_values):
        total = int(factor * n_low)
        sq = _arrival_sums(alpha, total, n_low, replicates, stream.substream(i), 1)
        sq *= sq
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
    ``stream.substream(1)``.  The empirical CFs need ``n_paths >= 2`` and
    at least one frequency, each finite and nonzero; one replicate, then
    both ensembles and a statistic (``_TABLE_BYTES`` per path and time),
    must fit in physical memory.  All are checked before any draw.
    """
    _check_counts(least=2, n_paths=n_paths)
    u_values = [float(u) for u in u_values]
    if not u_values:
        raise ValueError("u_values must not be empty")
    for u in u_values:
        _check_frequency(u)
    _check_series(alpha, hurst, n_paths, terms, bandwidth, points, horizon, grid_points,
                  "laplace")
    _check_paths(n_paths, grid_points, _TABLE_BYTES)
    laplace, gaussian = (
        series_path_ensemble(alpha, hurst, n_paths, terms, bandwidth, points, stream.substream(i),
                             horizon, grid_points, density, threads)
        for i, density in enumerate(("laplace", "gaussian"))
    )
    return [(u, empirical_cf(laplace[:, 1:], u), empirical_cf(gaussian[:, 1:], u))
            for u in u_values]

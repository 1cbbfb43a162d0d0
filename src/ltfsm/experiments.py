"""Batched Monte Carlo drivers behind the validation protocol and the CLI.

Replicate ``j`` of every driver works exclusively from ``stream.substream(j)``
and consumes raw words in exactly the order documented for the corresponding
single-path operation, so results are independent of chunk sizes and of the
worker count: parallelism only distributes whole replicates.

A chunk of replicates draws its rows from one reused Philox (see
:func:`ltfsm.streams.substream_words`) instead of building one
:class:`~ltfsm.streams.RandomStream` per replicate.  The series ensemble
copies each row's words into preallocated ``uint64`` head and noise buffers
(at H = 1/2 only the used half of each noise block), converts them to
uniforms in place and runs ``ndtri`` into the same memory; the occupation
kernel then works in one path-sized buffer.  The random-walk ensemble runs
the walk kernel of :func:`ltfsm.process.simulate_rwrr_baseline` row by row,
so its rows equal that function's paths bitwise; a row is a dozen short NumPy
calls that hold the interpreter lock, so more threads do not speed it up.
The arrival-series drivers (:func:`lepage_marginal_samples`,
:func:`tail_moment_sweep`) keep the chunk as raw words, convert only the
exponential words to floats, and apply the Rademacher signs as sign-bit flips
(see the :mod:`ltfsm.streams` docstring); the results are bitwise those of
converting every word to a uniform.

The series drivers use fixed per-term sizes (:func:`ltfsm.process.flat_params`
style): ``terms`` series terms, kernel bandwidth ``bandwidth`` and ``points``
fBm increments per term.  The epsilon-tuned rules produce per-term grids far
beyond desk budgets, while the distributional checks here only need sizes
large enough that the remaining bias is below Monte Carlo resolution.

Set the environment variable ``LTFSM_THREADS`` (or pass ``threads=``) to
process replicate chunks in a thread pool; outputs are bitwise identical for
any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .localtime import _check_bandwidth, grid_index
from .oracle import _stable_from_uniforms
from .process import (
    _occupation_curves,
    _rwrr_walk,
    gaussian_density_weight,
    laplace_weight,
)
from .streams import (
    RandomStream,
    _substream_heads,
    _uniform_in_place,
    raw_to_uniform,
    substream_words,
    uniform_to_exponential,
    uniform_to_gaussian,
    uniform_to_laplace_half,
)
from .validation import CfEstimate, empirical_cf, linreg_r2

__all__ = [
    "resolve_threads",
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


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else ``LTFSM_THREADS``, else 1."""
    if threads is None:
        threads = int(os.environ.get("LTFSM_THREADS", "1"))
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return threads


def _check_counts(**counts: int) -> None:
    """Reject, by name, the first count below 1, before anything is drawn."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def _run_chunks(worker, chunks, threads: int):
    if threads == 1 or len(chunks) == 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


# -- flat-parameter series ensemble -------------------------------------------


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
    if density not in ("laplace", "gaussian"):
        raise ValueError("density must be 'laplace' or 'gaussian'")
    _check_counts(n_paths=n_paths, terms=terms, points=points, grid_points=grid_points)
    _check_bandwidth(bandwidth)
    threads = resolve_threads(threads)
    m = points
    p = terms
    idx = grid_index(m, horizon, np.arange(grid_points + 1) * (horizon / grid_points))
    block = 3 * p + p * 2 * m
    # ~32 MB of raw words per chunk
    chunk_rows = max(1, min(n_paths, 4_000_000 // block or 1))
    starts = list(range(0, n_paths, chunk_rows))

    # at H = 1/2 only the first m words of each 2m-word noise block are used:
    # every word is still drawn, but the rest are never kept
    used = m if hurst == 0.5 else 2 * m

    def worker(start: int) -> np.ndarray:
        rows = min(chunk_rows, n_paths - start)
        head = np.empty((rows, 3 * p), dtype=np.uint64)
        noise = np.empty((rows, p, used), dtype=np.uint64)
        for r, raw in enumerate(substream_words(stream, start, rows, block)):
            head[r] = raw[: 3 * p]
            noise[r] = raw[3 * p :].reshape(p, 2 * m)[:, :used]
        u = _uniform_in_place(head)
        gammas = np.cumsum(uniform_to_exponential(u[:, :p]), axis=1)
        gweights = uniform_to_gaussian(u[:, p : 2 * p])
        if density == "laplace":
            locations = uniform_to_laplace_half(u[:, 2 * p : 3 * p])
            weights = gweights * laplace_weight(locations, alpha)
        else:
            locations = uniform_to_gaussian(u[:, 2 * p : 3 * p])
            weights = gweights * gaussian_density_weight(locations, alpha)
        normals = _uniform_in_place(noise)
        uniform_to_gaussian(normals, out=normals)
        curves = _occupation_curves(
            hurst, m, horizon, bandwidth, normals.reshape(rows * p, used),
            locations.reshape(rows * p, 1), idx,
        ).reshape(rows, p, len(idx))
        coef = gammas ** (-1.0 / alpha) * weights
        out = np.zeros((rows, len(idx)))
        for n in range(p):  # increasing-arrival order
            out += coef[:, n : n + 1] * curves[:, n, :]
        out[:, 0] = 0.0
        return out

    return np.concatenate(_run_chunks(worker, starts, threads), axis=0)


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
    if not horizon > 0.0:
        raise ValueError("horizon must be > 0")
    threads = resolve_threads(threads)
    chunk_rows = max(1, min(n_paths, 512))
    starts = list(range(0, n_paths, chunk_rows))

    def worker(start: int) -> np.ndarray:
        rows = min(chunk_rows, n_paths - start)
        out = np.empty((rows, grid_points + 1))
        for r, bitgen in enumerate(_substream_heads(stream, start, rows)):
            words = bitgen.random_raw(steps)
            words >>= np.uint64(63)  # 1 iff the step is +1 (sign-bit identity)
            moves = words.view(np.int64)
            moves *= 2
            moves -= 1

            def draw_rewards(sites: int) -> np.ndarray:
                u = _uniform_in_place(bitgen.random_raw(2 * sites))
                return _stable_from_uniforms(alpha, u)

            out[r] = _rwrr_walk(alpha, moves, draw_rewards, grid_points)
        return out

    return np.concatenate(_run_chunks(worker, starts, threads), axis=0)


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


def _raw_block(stream: RandomStream, start: int, rows: int, width: int) -> np.ndarray:
    """Rows ``start .. start + rows - 1`` of :func:`substream_words` as one
    ``(rows, width)`` block."""
    raw = np.empty((rows, width), dtype=np.uint64)
    for r, words in enumerate(substream_words(stream, start, rows, width)):
        raw[r] = words
    return raw


def _signed_arrival_sums(
    raw: np.ndarray, arrivals: int, skip: int, alpha: float
) -> np.ndarray:
    """Row sums of ``Gamma_n**(-1/alpha) * eps_n`` over ``n = skip + 1 ..
    arrivals``.

    Each row of ``raw`` holds ``arrivals`` exponential words, then one sign
    word per summed term; the sign words are overwritten.  Bitwise equal to
    converting every word to a uniform and multiplying by
    :func:`~ltfsm.streams.uniform_to_rademacher` signs: ``eps_n = +1`` iff the
    word's top bit is set, and a product with ``+-1.0`` only flips the sign
    bit, so the signs are XOR-ed into the floats' sign bits.
    """
    x = raw_to_uniform(raw[:, :arrivals])
    np.log(x, out=x)
    np.negative(x, out=x)
    np.cumsum(x, axis=1, out=x)
    x = x[:, skip:]
    x **= -1.0 / alpha
    signs = raw[:, arrivals:]
    np.invert(signs, out=signs)
    signs &= _SIGN_BIT
    bits = x.view(np.uint64)
    bits ^= signs
    return np.sum(x, axis=1)


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
    threads = resolve_threads(threads)
    chunk_rows = max(1, min(n_samples, max(1, 2_000_000 // (2 * terms))))
    starts = list(range(0, n_samples, chunk_rows))

    def worker(start: int) -> np.ndarray:
        rows = min(chunk_rows, n_samples - start)
        raw = _raw_block(stream, start, rows, 2 * terms)
        return _signed_arrival_sums(raw, terms, 0, alpha)

    return np.concatenate(_run_chunks(worker, starts, threads))


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
    from .oracle import sample_stable_oracle
    from .validation import fit_scale_by_cf, ks_distance

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
    signs (tail terms only).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    _check_counts(factor=factor)
    n_values = list(n_values)
    if any(n_low < 1 for n_low in n_values):
        raise ValueError("n_values must all be >= 1")
    out: dict[int, tuple[float, float]] = {}
    for i, n_low in enumerate(n_values):
        total = int(factor * n_low)
        sub = stream.substream(i)
        chunk_rows = max(1, 2_000_000 // (2 * total))
        acc = 0.0
        acc_sq = 0.0
        done = 0
        while done < replicates:
            rows = min(chunk_rows, replicates - done)
            raw = _raw_block(sub, done, rows, total + (total - n_low))
            sq = _signed_arrival_sums(raw, total, n_low, alpha) ** 2
            acc += float(np.sum(sq))
            acc_sq += float(np.sum(sq**2))
            done += rows
        mean = acc / replicates
        var = max(acc_sq / replicates - mean**2, 0.0) * replicates / (replicates - 1)
        out[int(n_low)] = (mean, math.sqrt(var / replicates))
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

"""The drivers' pipelines rebuilt from public ltfsm calls, one span per stage.

Each function here repeats, step for step, what the named ltfsm driver does,
but with every stage in its own span of a :class:`tracing.Tracer`.  The
traced run checks that each rebuilt output is bitwise equal to the driver's,
so the per-stage times describe the code the untraced run measures.

Chunks run one after another here, whatever thread count the driver uses;
the library's outputs do not depend on the thread count.  Chunk sizes, and
one function call per chunk, mirror the drivers': arrays are allocated and
freed at the same points, so memory peaks and page-fault costs match theirs.
"""

from __future__ import annotations

import numpy as np

import ltfsm
from ltfsm import (
    FbmPath,
    SeriesConfig,
    discretized_occupation,
    empirical_cf,
    fgn_from_noise,
    fit_scale_by_cf,
    grid_index,
    holder_exponent_estimate,
    kernel_phi_k,
    ks_distance,
    laplace_weight,
    linreg_r2,
    poisson_arrivals,
    sample_stable_oracle,
    tune,
)
from ltfsm.io import RunManifest, manifest_path, write_csv
from ltfsm.streams import (
    RandomStream,
    raw_to_uniform,
    uniform_to_exponential,
    uniform_to_gaussian,
    uniform_to_laplace_half,
    uniform_to_rademacher,
)

from tracing import TracedStream, Tracer

# Chunk budgets of series_path_ensemble and lepage_marginal_samples (words).
_ENSEMBLE_CHUNK_WORDS = 4_000_000
_MARGINAL_CHUNK_WORDS = 2_000_000


def _uniform_rows(tr: Tracer, stream: RandomStream, start: int, rows: int, width: int):
    """Rows ``start .. start + rows - 1``: one substream each, ``width`` words."""
    u = np.empty((rows, width))
    for r in range(rows):
        with tr.span("streams.substream"):
            sub = stream.substream(start + r)
        with tr.span("streams.raw"):
            raw = sub.raw(width)
        with tr.span("streams.uniform"):
            u[r] = raw_to_uniform(raw)
    tr.count("streams.substreams", rows)
    tr.count("streams.words", rows * width)
    return u


def series_path_ensemble(
    tr, alpha, hurst, n_paths, terms, bandwidth, points, stream, horizon=1.0, grid_points=20
):
    """:func:`ltfsm.series_path_ensemble` with ``density="laplace"``."""
    m, p = points, terms
    spacing = horizon / m
    with tr.span("localtime.kernel_prefix"):
        idx = grid_index(m, horizon, np.arange(grid_points + 1) * (horizon / grid_points))
    block = 3 * p + p * 2 * m
    chunk_rows = max(1, min(n_paths, _ENSEMBLE_CHUNK_WORDS // block or 1))
    tr.count("process.terms", p)

    def chunk(start: int) -> np.ndarray:
        rows = min(chunk_rows, n_paths - start)
        u = _uniform_rows(tr, stream, start, rows, block)
        with tr.span("streams.transform"):
            gammas = np.cumsum(uniform_to_exponential(u[:, :p]), axis=1)
            locations = uniform_to_laplace_half(u[:, 2 * p : 3 * p])
        with tr.span("streams.ndtri"):
            gweights = uniform_to_gaussian(u[:, p : 2 * p])
        with tr.span("process.weights"):
            weights = gweights * laplace_weight(locations, alpha)
        noise_u = u[:, 3 * p :].reshape(rows * p, 2 * m)
        if hurst == 0.5:
            # the driver's Hurst-1/2 shortcut: only the first half is used
            with tr.span("streams.ndtri"):
                normals = uniform_to_gaussian(noise_u[:, :m])
            with tr.span("fbm.fgn"):
                fgn = normals * spacing**0.5
        else:
            with tr.span("streams.ndtri"):
                normals = uniform_to_gaussian(noise_u)
            with tr.span("fbm.fgn"):
                fgn = fgn_from_noise(hurst, m, spacing, normals)
        del normals  # a temporary in the driver
        tr.count("fbm.increments", rows * p * m)
        with tr.span("fbm.cumsum"):
            paths = np.empty((rows * p, m + 1))
            paths[:, 0] = 0.0
            np.cumsum(fgn, axis=1, out=paths[:, 1:])
        with tr.span("localtime.kernel_prefix"):
            centers = locations.reshape(rows * p, 1)
            prefix = np.cumsum(kernel_phi_k(bandwidth, paths - centers), axis=1) * (
                horizon / m
            )
            curves = prefix[:, idx].reshape(rows, p, len(idx))
        with tr.span("shotnoise.sum"):
            coef = gammas ** (-1.0 / alpha) * weights
            out = np.zeros((rows, len(idx)))
            for n in range(p):
                out += coef[:, n : n + 1] * curves[:, n, :]
            out[:, 0] = 0.0
        return out

    return np.concatenate([chunk(start) for start in range(0, n_paths, chunk_rows)], axis=0)


def _rwrr_path(tr, alpha, steps, grid_points, stream, horizon):
    """:func:`ltfsm.simulate_rwrr_baseline` on a traced stream."""
    signs = stream.rademacher(steps)
    positions = np.cumsum(signs.astype(np.int64))
    lo = int(positions.min())
    hi = int(positions.max())
    with tr.span("oracle.stable"):
        rewards = np.asarray(sample_stable_oracle(alpha, stream, hi - lo + 1))
    partial = np.cumsum(rewards[positions - lo])
    norm = float(steps) ** (0.5 + 0.5 / alpha)
    values = np.zeros(grid_points + 1)
    for i in range(1, grid_points + 1):
        j = (steps * i) // grid_points
        if j >= 1:
            values[i] = partial[j - 1] / norm
    return values


def rwrr_path_ensemble(tr, alpha, n_paths, steps, stream, horizon=1.0, grid_points=20):
    """:func:`ltfsm.experiments.rwrr_path_ensemble`."""
    out = np.empty((n_paths, grid_points + 1))
    for j in range(n_paths):
        with tr.span("streams.substream"):
            sub = stream.substream(j)
        with tr.span("experiments.rwrr"):
            out[j] = _rwrr_path(tr, alpha, steps, grid_points, TracedStream(sub, tr), horizon)
    tr.count("streams.substreams", n_paths)
    return out


def cf_linearity_experiment(
    tr, method, alpha, hurst, n_paths, stream, u, n_times, terms, bandwidth, points, steps
):
    """:func:`ltfsm.cf_linearity_experiment` (``horizon=1``); returns the
    result's numeric fields in declaration order."""
    horizon = 1.0
    if method == "series":
        values = series_path_ensemble(
            tr, alpha, hurst, n_paths, terms, bandwidth, points, stream, horizon, n_times
        )
    else:
        values = rwrr_path_ensemble(tr, alpha, n_paths, steps, stream, horizon, n_times)
    with tr.span("validation.cf"):
        times = np.arange(1, n_times + 1) * (horizon / n_times)
        est = empirical_cf(values[:, 1:], u)
        modulus = np.maximum(est.modulus, 1e-300)
        log_modulus = np.log(modulus)
        stderr = est.stderr / modulus
        slope, intercept, r2 = linreg_r2(times, log_modulus)
    return times, log_modulus, stderr, slope, intercept, r2


def stable_marginal_check(tr, alpha, terms, n_samples, stream):
    """:func:`ltfsm.stable_marginal_check`; returns ``(fitted_scale, ks)``."""
    with tr.span("streams.substream"):
        series_stream = stream.substream(0)
        oracle_stream = stream.substream(1)
    tr.count("process.terms", terms)
    chunk_rows = max(1, min(n_samples, max(1, _MARGINAL_CHUNK_WORDS // (2 * terms))))

    def chunk(start: int) -> np.ndarray:
        rows = min(chunk_rows, n_samples - start)
        u = _uniform_rows(tr, series_stream, start, rows, 2 * terms)
        with tr.span("streams.transform"):
            gammas = np.cumsum(uniform_to_exponential(u[:, :terms]), axis=1)
            signs = uniform_to_rademacher(u[:, terms:])
        with tr.span("shotnoise.sum"):
            return np.sum(gammas ** (-1.0 / alpha) * signs, axis=1)

    series = np.concatenate([chunk(start) for start in range(0, n_samples, chunk_rows)])
    with tr.span("oracle.stable"):
        reference = np.asarray(
            sample_stable_oracle(alpha, TracedStream(oracle_stream, tr), n_samples)
        )
    with tr.span("validation.cf"):
        scale = fit_scale_by_cf(series, alpha)
    with tr.span("validation.ks"):
        ks = ks_distance(series, scale * reference)
    return scale, ks


def _requested_points(config, params, n, gamma) -> float:
    """Per-term grid size before the ``max_points`` cap, by the rule in the
    :mod:`ltfsm.process` docstring."""
    k_power = float(params.k) ** ((2.0 + config.delta) / config.delta_prime)
    if n <= params.N:
        return gamma ** (-1.0 / (config.delta_prime * config.alpha)) * k_power
    return k_power * float(n) ** (-config.beta / config.delta_prime)


def _series_path(tr, config, params, stream):
    """``simulate_ltfsm``: the Laplace-form series, summed in arrival order."""
    alpha = config.alpha
    with tr.span("streams.transform"):
        gammas = poisson_arrivals(params.P, stream)
    gauss_weights = stream.gaussian(params.P)
    locations = stream.laplace_half(params.P)
    with tr.span("process.weights"):
        weights = gauss_weights * laplace_weight(locations, alpha)
    times = config.grid_times
    horizon = config.horizon
    total = np.zeros(len(times))
    for n in range(1, params.P + 1):
        gamma = float(gammas[n - 1])
        with tr.span("process.tune"):
            m = params.points_for(n, gamma)
        if config.max_points and _requested_points(config, params, n, gamma) > config.max_points:
            tr.count("process.capped_terms", 1)
        noise = stream.gaussian(2 * m)
        with tr.span("fbm.fgn"):
            fgn = fgn_from_noise(config.hurst, m, horizon / m, noise)
        tr.count("fbm.increments", m)
        with tr.span("fbm.cumsum"):
            values = np.empty(m + 1)
            values[0] = 0.0
            np.cumsum(fgn, out=values[1:])
        with tr.span("localtime.kernel_prefix"):
            fpath = FbmPath(hurst=config.hurst, horizon=horizon, values=values)
            curve = discretized_occupation(fpath, params.k, float(locations[n - 1]), times)
        with tr.span("shotnoise.sum"):
            # terms arrive in increasing-arrival order already
            total += gamma ** (-1.0 / alpha) * (float(weights[n - 1]) * curve.values)
    total[0] = 0.0
    return times, total


# Option defaults of ``ltfsm simulate`` (flag -> value), in schema order.
SIMULATE_DEFAULTS = {
    "eta": 1.5,
    "T": 1.0,
    "grid": 200,
    "q": 2.5,
    "p": 2.0,
    "delta": 0.4,
    "delta-prime": 0.25,
    "beta": 0.0,
    "cp": 1.0,
    "ck": 1.0,
    "max-points": 262144,
    "density": "laplace",
}


def cli_simulate(tr, options: dict, report):
    """``ltfsm simulate`` with the Laplace density: resolve ``options`` (flag
    -> typed value) over the defaults, simulate, write the CSV and manifest,
    and print the report lines to ``report``."""
    with tr.span("cli"):
        vals = {**SIMULATE_DEFAULTS, **options}
        config = SeriesConfig(
            alpha=vals["alpha"],
            hurst=vals["hurst"],
            epsilon=vals["epsilon"],
            horizon=vals["T"],
            grid_points=vals["grid"],
            eta=vals["eta"],
            q=vals["q"],
            p=vals["p"],
            delta=vals["delta"],
            delta_prime=vals["delta-prime"],
            beta=vals["beta"],
            c_p=vals["cp"],
            c_k=vals["ck"],
            max_points=vals["max-points"],
        )
        with tr.span("process.tune"):
            params = tune(config)
        tr.count("process.terms", params.P)
        stream = TracedStream(RandomStream(vals["seed"]), tr)
        times, values = _series_path(tr, config, params, stream)
        out = vals["out"]
        with tr.span("io.write_csv"):
            write_csv(out, ["t", "value"], [times, values])
        with tr.span("io.manifest"):
            RunManifest(
                command="simulate",
                version=ltfsm.__version__,
                config={key: value for key, value in vals.items() if value is not None},
                outputs=(out,),
            ).write(manifest_path(out))
        with tr.span("validation.holder"):
            holder = holder_exponent_estimate(times, values)
        print(f"terms = {params.P}", file=report)
        print(f"head_terms = {params.N}", file=report)
        print(f"bandwidth = {params.k}", file=report)
        print(f"holder_exponent_estimate = {holder:.12g}", file=report)
        print(f"output = {out}", file=report)
    return params

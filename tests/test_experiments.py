"""Unit tests for the batched Monte Carlo drivers."""

import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ltfsm import (
    SeriesConfig,
    cf_linearity_experiment,
    flat_params,
    lepage_marginal_samples,
    representation_cf_table,
    rwrr_path_ensemble,
    series_path_ensemble,
    simulate_ltfsm,
    simulate_rwrr_baseline,
    stable_marginal_check,
    tail_moment_sweep,
)
from ltfsm import experiments, process
from ltfsm.experiments import (
    _ARRIVAL_BYTES,
    _CF_BYTES,
    _CHUNK_BYTES,
    _TABLE_BYTES,
    _chunk_rows,
    _series_row_bytes,
)
from ltfsm.process import _arrival_order_sum, _run_chunks, _rwrr_row_bytes, resolve_threads
from ltfsm.streams import (
    Philox,
    RandomStream,
    raw_to_uniform,
    uniform_to_exponential,
    uniform_to_rademacher,
)


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("LTFSM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    # the default adds at most 32 MB to the first thread: a full chunk each
    # allows one more thread, whatever the CPUs
    assert resolve_threads() == 2
    assert resolve_threads(thread_bytes=1_000_000) == 33
    assert resolve_threads(thread_bytes=10**9) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads(thread_bytes=1) == 1
    # where the affinity call is missing, the CPU count stands in for it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_threads(thread_bytes=1_000_000) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_threads(thread_bytes=1_000_000) == 1
    monkeypatch.setenv("LTFSM_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(thread_bytes=10**9) == 3  # a requested count is taken as given
    assert resolve_threads(2) == 2
    with pytest.raises(ValueError):
        resolve_threads(0)


@pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-3"])
def test_resolve_threads_names_a_bad_environment_variable(monkeypatch, value):
    monkeypatch.setenv("LTFSM_THREADS", value)
    with pytest.raises(ValueError, match=f"LTFSM_THREADS must be an integer >= 1, got '{value}'"):
        resolve_threads()
    assert resolve_threads(2) == 2  # an explicit count wins


def test_series_ensemble_rows_match_the_scalar_simulator():
    ens = series_path_ensemble(
        1.3, 0.4, 4, terms=6, bandwidth=3, points=32,
        stream=RandomStream(555), grid_points=10,
    )
    assert ens.shape == (4, 11)
    assert np.all(ens[:, 0] == 0.0)
    cfg = SeriesConfig(alpha=1.3, hurst=0.4, grid_points=10)
    params = flat_params(6, 3, 32)
    for r in range(4):
        scalar = simulate_ltfsm(cfg, params, RandomStream(555).substream(r))
        np.testing.assert_allclose(ens[r], scalar.values, rtol=1e-12, atol=1e-14)


def test_series_ensemble_hurst_half_shortcut_matches_the_scalar_simulator():
    ens = series_path_ensemble(
        1.0, 0.5, 3, terms=5, bandwidth=2, points=16,
        stream=RandomStream(77), grid_points=8,
    )
    cfg = SeriesConfig(alpha=1.0, hurst=0.5, grid_points=8)
    params = flat_params(5, 2, 16)
    for r in range(3):
        scalar = simulate_ltfsm(cfg, params, RandomStream(77).substream(r))
        np.testing.assert_allclose(ens[r], scalar.values, rtol=1e-12, atol=1e-14)


def test_series_ensemble_gaussian_density_matches_the_scalar_simulator():
    ens = series_path_ensemble(
        1.2, 0.5, 3, terms=4, bandwidth=2, points=16,
        stream=RandomStream(88), grid_points=6, density="gaussian",
    )
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, grid_points=6)
    params = flat_params(4, 2, 16)
    for r in range(3):
        scalar = simulate_ltfsm(
            cfg, params, RandomStream(88).substream(r), density="gaussian"
        )
        np.testing.assert_allclose(ens[r], scalar.values, rtol=1e-12, atol=1e-14)


def test_series_ensemble_rejects_an_unknown_density_before_any_draw():
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"the stream was used ({name})")

    with pytest.raises(ValueError, match="density must be"):
        series_path_ensemble(
            1.2, 0.5, 3, terms=4, bandwidth=2, points=16,
            stream=NoDraws(), grid_points=6, density="poisson",
        )


def test_series_ensemble_spans_chunk_boundaries_consistently():
    # terms = 64, points = 512 forces ~60-row chunks, so 100 rows need two
    ens = series_path_ensemble(
        1.3, 0.5, 100, terms=64, bandwidth=4, points=512,
        stream=RandomStream(808), grid_points=6,
    )
    cfg = SeriesConfig(alpha=1.3, hurst=0.5, grid_points=6)
    params = flat_params(64, 4, 512)
    for r in (0, 60, 99):
        scalar = simulate_ltfsm(cfg, params, RandomStream(808).substream(r))
        np.testing.assert_allclose(ens[r], scalar.values, rtol=1e-12, atol=1e-14)


def test_series_ensemble_is_thread_count_invariant():
    a = series_path_ensemble(
        1.2, 0.5, 7, 4, 2, 16, RandomStream(31), grid_points=6, threads=1
    )
    b = series_path_ensemble(
        1.2, 0.5, 7, 4, 2, 16, RandomStream(31), grid_points=6, threads=3
    )
    assert np.array_equal(a, b)


def test_series_ensemble_domain():
    with pytest.raises(ValueError):
        series_path_ensemble(2.0, 0.5, 2, 2, 2, 8, RandomStream(1))
    with pytest.raises(ValueError):
        series_path_ensemble(1.0, 0.5, 0, 2, 2, 8, RandomStream(1))
    with pytest.raises(ValueError):
        series_path_ensemble(1.0, 0.5, 2, 2, 2, 8, RandomStream(1), density="cauchy")


def test_rwrr_ensemble_rows_match_the_scalar_baseline():
    ens = rwrr_path_ensemble(1.2, 3, 200, RandomStream(44), grid_points=5)
    assert ens.shape == (3, 6)
    for r in range(3):
        scalar = simulate_rwrr_baseline(1.2, 200, 5, RandomStream(44).substream(r))
        assert np.array_equal(ens[r], scalar.values)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.2, 2.0])
@pytest.mark.parametrize(
    # 515 rows span a full 512-row chunk and a partial one; 1 and 3 steps are
    # fewer than the 20 grid points
    "steps, n_paths", [(1, 515), (3, 515), (37, 515), (10_003, 4)]
)
def test_rwrr_ensemble_rows_are_bitwise_the_scalar_baseline(alpha, steps, n_paths):
    stream = RandomStream(45).substream(2)
    expect = np.stack(
        [
            simulate_rwrr_baseline(alpha, steps, 20, stream.substream(j), 1.5).values
            for j in range(n_paths)
        ]
    )
    for threads in (1, 2, 3):
        ens = rwrr_path_ensemble(
            alpha, n_paths, steps, stream, horizon=1.5, grid_points=20, threads=threads
        )
        assert ens.tobytes() == expect.tobytes()


def test_cf_linearity_experiment_structure_and_determinism():
    res = cf_linearity_experiment(
        "series", 1.0, 0.5, 200, RandomStream(7), n_times=6,
        terms=8, bandwidth=4, points=32,
    )
    assert res.method == "series"
    assert np.array_equal(res.times, np.arange(1, 7) * (1.0 / 6.0))
    assert res.log_modulus.shape == (6,)
    assert np.all(res.log_modulus < 0.0)
    assert np.all(res.stderr > 0.0)
    assert 0.0 < res.r_squared <= 1.0
    again = cf_linearity_experiment(
        "series", 1.0, 0.5, 200, RandomStream(7), n_times=6,
        terms=8, bandwidth=4, points=32,
    )
    assert np.array_equal(res.log_modulus, again.log_modulus)
    assert res.r_squared == again.r_squared
    with pytest.raises(ValueError):
        cf_linearity_experiment("walk", 1.0, 0.5, 10, RandomStream(1))


@pytest.mark.parametrize("u", [1.0, 1e300])
def test_a_log_modulus_equal_at_every_time_is_refused(u):
    # one term on one point: every path is exactly 0, so every log-modulus
    # is 0 and the fit would read R^2 = 1
    with pytest.raises(ValueError, match="log-modulus is 0 at all 3 times"):
        cf_linearity_experiment("series", 1.0, 0.5, 2, RandomStream(1), u=u, n_times=3,
                                terms=1, points=1)


def test_cf_linearity_experiment_rwrr_method():
    res = cf_linearity_experiment(
        "rwrr", 1.0, 0.5, 100, RandomStream(9), n_times=5, steps=400
    )
    assert res.method == "rwrr"
    assert res.log_modulus.shape == (5,)
    assert 0.0 < res.r_squared <= 1.0


def test_lepage_samples_follow_the_documented_layout():
    samples = lepage_marginal_samples(1.2, 50, 8, RandomStream(66))
    assert samples.shape == (8,)
    j = 3
    u = raw_to_uniform(RandomStream(66).substream(j).raw(100))
    gammas = np.cumsum(uniform_to_exponential(u[:50]))
    signs = uniform_to_rademacher(u[50:])
    assert samples[j] == pytest.approx(
        float(np.sum(gammas ** (-1.0 / 1.2) * signs)), rel=1e-14
    )
    with pytest.raises(ValueError):
        lepage_marginal_samples(2.0, 50, 8, RandomStream(66))


def _reference_signed_sums(stream, start, rows, arrivals, skip, alpha):
    """Per-row reference: one substream per row, every word a uniform."""
    out = np.empty(rows)
    for r in range(rows):
        u = raw_to_uniform(stream.substream(start + r).raw(2 * arrivals - skip))
        gammas = np.cumsum(uniform_to_exponential(u[:arrivals]))
        signs = uniform_to_rademacher(u[arrivals:])
        out[r] = np.sum(gammas[skip:] ** (-1.0 / alpha) * signs)
    return out


@pytest.mark.parametrize("alpha", [1.0, 1.2])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lepage_samples_are_bitwise_equal_to_the_per_row_reference(alpha, threads):
    # 2 000 terms: 500-row chunks, so 1 201 samples span three chunks
    stream = RandomStream(71).substream(4)
    samples = lepage_marginal_samples(alpha, 2000, 1201, stream, threads=threads)
    reference = np.concatenate(
        [
            _reference_signed_sums(stream, start, min(500, 1201 - start), 2000, 0, alpha)
            for start in range(0, 1201, 500)
        ]
    )
    assert samples.tobytes() == reference.tobytes()


@pytest.mark.parametrize("alpha", [1.0, 1.2])
def test_tail_moment_sweep_is_bitwise_equal_to_the_per_row_reference(alpha):
    # N = 40, factor 64: 2 560 arrivals, 390-row chunks, 1 201 replicates
    n_low, factor, replicates = 40, 64, 1201
    stream = RandomStream(72)
    sweep = tail_moment_sweep(alpha, [n_low], replicates, stream, factor=factor)
    sums = _reference_signed_sums(
        stream.substream(0), 0, replicates, factor * n_low, n_low, alpha
    )
    sq = sums * sums
    expected = np.array([sq.mean(), sq.std(ddof=1) / np.sqrt(replicates)])
    assert np.array(sweep[n_low]).tobytes() == expected.tobytes()


def test_stable_marginal_check_wires_substreams_and_stays_deterministic():
    res = stable_marginal_check(1.2, 200, 400, RandomStream(5))
    assert res.alpha == 1.2
    assert res.terms == 200
    assert res.n_samples == 400
    assert 0.0 <= res.ks <= 1.0
    assert res.fitted_scale > 0.0
    again = stable_marginal_check(1.2, 200, 400, RandomStream(5))
    assert res.ks == again.ks
    assert res.fitted_scale == again.fitted_scale


def test_tail_moment_sweep_decreases_with_the_cutoff():
    sweep = tail_moment_sweep(1.2, [4, 8], 2000, RandomStream(99), factor=16)
    assert set(sweep) == {4, 8}
    for mean, stderr in sweep.values():
        assert mean > 0.0
        assert stderr > 0.0
    assert sweep[8][0] < sweep[4][0]
    with pytest.raises(ValueError):
        tail_moment_sweep(2.0, [4], 100, RandomStream(1))
    with pytest.raises(ValueError):
        tail_moment_sweep(1.2, [4], 1, RandomStream(1))


def test_representation_cf_table_shapes_and_determinism():
    table = representation_cf_table(
        1.2, 0.5, 50, terms=8, bandwidth=2, points=16,
        u_values=(0.5, 1.0), stream=RandomStream(41), grid_points=4,
    )
    assert len(table) == 2
    for u, est_l, est_g in table:
        assert est_l.u == u
        assert est_g.u == u
        assert est_l.modulus.shape == (4,)
        assert np.all(est_l.stderr > 0.0)
    again = representation_cf_table(
        1.2, 0.5, 50, terms=8, bandwidth=2, points=16,
        u_values=(0.5, 1.0), stream=RandomStream(41), grid_points=4,
    )
    assert np.array_equal(table[0][1].re, again[0][1].re)
    assert np.array_equal(table[1][2].im, again[1][2].im)


# -- counts are checked before anything is drawn: a stream of None would fail
# -- with an AttributeError if a driver started drawing first


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: rwrr_path_ensemble(1.0, 0, 10, None), "n_paths"),
        (lambda: lepage_marginal_samples(1.2, 10, 0, None), "n_samples"),
        (lambda: lepage_marginal_samples(1.2, 0, 10, None), "terms"),
        (lambda: tail_moment_sweep(1.2, [0], 10, None), "n_values"),
        (lambda: tail_moment_sweep(1.2, [4.5], 10, None), "n_values"),
        (lambda: tail_moment_sweep(1.2, [np.nan], 10, None), "n_values"),
        (lambda: tail_moment_sweep(1.2, [np.inf], 10, None), "n_values"),
        (lambda: tail_moment_sweep(1.2, [4, 4], 10, None), "n_values"),
        (lambda: tail_moment_sweep(1.2, [4], 10, None, factor=0), "factor"),
        (lambda: series_path_ensemble(1.0, 0.5, 2, 2, 0, 8, None), "bandwidth"),
        (lambda: lepage_marginal_samples(1.2, 10.5, 5, None), "terms"),
        (lambda: lepage_marginal_samples(1.2, 10, 5.5, None), "n_samples"),
        (lambda: lepage_marginal_samples(1.2, np.inf, 5, None), "terms"),
        (lambda: tail_moment_sweep(1.2, [4], 10.5, None), "replicates"),
        (lambda: tail_moment_sweep(1.2, [4], 10, None, factor=2.5), "factor"),
        (lambda: series_path_ensemble(1.0, 0.5, 2, 2, 2, 8.5, None), "points"),
        (lambda: lepage_marginal_samples(1.2, 10, 5, None, threads=1.5), "threads"),
        (lambda: rwrr_path_ensemble(1.0, 2, 10, None, threads=True), "threads"),
    ],
    ids=["rwrr-n_paths", "lepage-n_samples", "lepage-terms", "sweep-n_values",
         "sweep-fractional-n", "sweep-nan-n", "sweep-inf-n", "sweep-repeated-n",
         "sweep-factor", "series-bandwidth", "lepage-fractional-terms",
         "lepage-fractional-n_samples", "lepage-inf-terms", "sweep-fractional-replicates",
         "sweep-fractional-factor", "series-fractional-points", "lepage-fractional-threads",
         "rwrr-bool-threads"],
)
def test_drivers_reject_bad_counts_by_name_before_drawing(call, name):
    with pytest.raises(ValueError, match=name):
        call()


# -- the series domain is checked before anything is drawn


class NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"the stream was used ({name})")


@pytest.mark.parametrize("hurst", [0.5, 0.7])
@pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
def test_series_ensemble_rejects_a_bad_horizon_before_any_draw(hurst, horizon):
    with pytest.raises(ValueError, match="horizon"):
        series_path_ensemble(1.2, hurst, 3, 4, 2, 16, NoDraws(), horizon=horizon)


@pytest.mark.parametrize("hurst", [0.0, 1.0, 1.5, -0.2, np.nan])
def test_series_ensemble_rejects_a_bad_hurst_before_any_draw(hurst):
    with pytest.raises(ValueError, match="hurst"):
        series_path_ensemble(1.2, hurst, 3, 4, 2, 16, NoDraws())


@pytest.mark.parametrize("steps", [2.5, True, 0, -3, np.inf])
def test_random_walk_drivers_reject_a_bad_step_count_before_any_draw(steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        rwrr_path_ensemble(1.2, 3, steps, NoDraws())
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        simulate_rwrr_baseline(1.2, steps, 5, NoDraws())


@pytest.mark.parametrize("grid_points", [2.5, False, 0])
def test_random_walk_drivers_reject_a_bad_grid_before_any_draw(grid_points):
    with pytest.raises(ValueError, match="grid_points must be an integer >= 1"):
        rwrr_path_ensemble(1.2, 3, 10, NoDraws(), grid_points=grid_points)
    with pytest.raises(ValueError, match="grid_points must be an integer >= 1"):
        simulate_rwrr_baseline(1.2, 10, grid_points, NoDraws())


@pytest.mark.parametrize("horizon", [0.0, np.nan, np.inf])
def test_random_walk_drivers_reject_a_non_finite_horizon_before_any_draw(horizon):
    with pytest.raises(ValueError, match="horizon"):
        rwrr_path_ensemble(1.2, 3, 10, NoDraws(), horizon=horizon)
    with pytest.raises(ValueError, match="horizon"):
        simulate_rwrr_baseline(1.2, 10, 5, NoDraws(), horizon=horizon)


# -- chunk sizes follow from one byte budget


def _series_draw_bytes(terms, points):
    """One series replicate's raw draw: ``2 * points`` words per term."""
    return 8 * terms * 2 * points


def _series_bytes(hurst, terms, points, grid_points, rows):
    """The bytes that a series chunk of ``rows`` rows models: its rows, next
    to the larger of one replicate's raw draw and the rows' curves."""
    curves = rows * 8 * terms * (grid_points + 1)
    return rows * _series_row_bytes(hurst, terms, points) + max(
        _series_draw_bytes(terms, points), curves
    )


def _series_chunk(hurst, terms, points, grid_points=20):
    """Rows per series chunk and the bytes that chunk models."""
    rows = _chunk_rows(_series_row_bytes(hurst, terms, points),
                       _series_draw_bytes(terms, points), 8 * terms * (grid_points + 1))
    return rows, _series_bytes(hurst, terms, points, grid_points, rows)


def _arrival_rows(arrivals):
    """Rows per arrival-driver chunk: 16 B per arrival next to one row's
    exponential words."""
    return _chunk_rows(_ARRIVAL_BYTES * arrivals, 8 * arrivals)


def test_chunk_rows_are_pinned_for_the_arrival_drivers_and_the_series():
    # the rows pin the drivers' memory, not their bits: 16 B per arrival
    # and, for the series, each term's noise slots and head floats, in the
    # 2 MB budget next to one row's raw draw or the rows' curves
    assert _ARRIVAL_BYTES == 16 and _CHUNK_BYTES == 2_000_000
    pins = {1: 124_999, 7: 17_856, 1000: 124, 2000: 62, 2560: 48, 124_999: 1, 125_000: 1}
    assert {n: _arrival_rows(n) for n in pins} == pins
    assert _arrival_rows(500_000) == 1  # a draw larger than the budget
    assert _series_chunk(0.5, 64, 256)[0] == 12
    assert _series_chunk(0.5, 64, 512)[0] == 5
    assert _series_chunk(0.7, 128, 128)[0] == 3
    assert _series_chunk(0.3, 16, 1024)[0] == 3


@pytest.mark.parametrize(
    "hurst, terms, points, grid_points",
    [
        (0.7, 128, 128, 20),
        (0.5, 64, 256, 20),
        (0.3, 16, 1024, 20),
        # small terms or a large grid: the curves outweigh the raw draw
        (0.5, 64, 4, 20),
        (0.5, 64, 4, 200),
        (0.7, 64, 16, 200),
    ],
)
def test_series_row_bytes_model_the_measured_chunk_peak(hurst, terms, points, grid_points):
    rows, chunk_bytes = _series_chunk(hurst, terms, points, grid_points)
    peak = _traced_peak(
        series_path_ensemble, 1.2, hurst, rows, terms, 8, points, RandomStream(3),
        grid_points=grid_points, threads=1,
    )
    assert 0.95 <= peak / chunk_bytes <= 1.10


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("density", ["laplace", "gaussian"])
@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_series_ensemble_is_bitwise_invariant_to_the_chunk_budget(
    monkeypatch, hurst, density, threads
):
    args = (1.2, hurst, 8, 4, 2, 16, RandomStream(61))
    kwargs = dict(grid_points=6, density=density, threads=threads)
    whole = series_path_ensemble(*args, **kwargs)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", _series_bytes(hurst, 4, 16, 6, 3))
    assert _series_chunk(hurst, 4, 16, 6)[0] == 3
    chunked = series_path_ensemble(*args, **kwargs)
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "driver, arrivals, words",
    [
        ("lepage", 1000, 2000),
        ("lepage", 2000, 4000),
        ("tail", 40 * 64, 2 * 40 * 64 - 40),
    ],
)
def test_arrival_chunk_peaks_at_its_words(driver, arrivals, words):
    # one chunk of words, converted in place, next to one row's exponential
    # words as drawn
    rows = _arrival_rows(arrivals)
    tracemalloc.start()
    try:
        if driver == "lepage":
            lepage_marginal_samples(1.2, arrivals, rows, RandomStream(3), threads=1)
        else:
            tail_moment_sweep(1.2, [40], rows, RandomStream(3), factor=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.95 <= peak / (rows * 8 * words + 8 * arrivals) <= 1.10


@pytest.mark.parametrize("threads", [1, 2])
def test_lepage_samples_are_bitwise_invariant_to_the_chunk_budget(monkeypatch, threads):
    def draw():
        samples = lepage_marginal_samples(1.2, 50, 8, RandomStream(62), threads=threads)
        # the tail sweep at N = 5, factor 10 also has 50 arrivals per replicate;
        # over 20 replicates, a sum of 3-row chunk sums differs in the last bits
        sweep = tail_moment_sweep(1.2, [5], 20, RandomStream(62), factor=10)
        return samples.tobytes() + np.array(sweep[5]).tobytes()

    whole = draw()
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 3 * _ARRIVAL_BYTES * 50 + 8 * 50)
    assert _arrival_rows(50) == 3
    assert draw() == whole


# -- the one chunk runner


def _address(array) -> int:
    return array.__array_interface__["data"][0]


def test_run_chunks_reuses_one_buffer_set_across_blocks():
    seen = []

    def worker(start, out, bitgen, head, work):
        seen.append((bitgen, head, work))
        # each block gets the leading rows of every buffer, one per row of
        # its own, C-contiguous, so words still convert to uniforms in place
        assert len(head) == len(work) == len(out)
        assert head.flags.c_contiguous and work.flags.c_contiguous
        head[:] = start
        out[:] = head[:, 0]

    layouts = [((3,), np.uint64), ((2, 4), np.float64)]  # the layout of one row
    out = np.zeros(12, np.int64)
    assert _run_chunks(worker, out, 5, 1, layouts) is out  # filled in place
    assert out.tolist() == [0] * 5 + [5] * 5 + [10] * 2
    bitgen, head, work = seen[0]
    assert isinstance(bitgen, Philox)
    assert head.shape == (5, 3) and head.dtype == np.uint64
    assert work.shape == (5, 2, 4) and work.dtype == np.float64
    # the 2-row last block gets views that start at the set's memory
    assert seen[2][1].shape == (2, 3) and seen[2][2].shape == (2, 2, 4)
    # every block in the same memory, the set's
    assert all(b is bitgen for b, _, _ in seen)
    assert all(_address(h) == _address(head) and h.base is head.base for _, h, _ in seen)
    assert all(_address(w) == _address(work) and w.base is work.base for _, _, w in seen)
    # another call gets its own set
    again = []
    _run_chunks(lambda start, out, b, h, w: again.append((b, h)), np.empty(5), 5, 1, layouts)
    assert again[0][0] is not bitgen and not np.shares_memory(again[0][1], head)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_chunks_runs_every_block_off_the_calling_thread(threads):
    # at one thread too: run on the calling thread, a block's temporaries
    # were faulted back in from the main heap at every block
    ran = []
    _run_chunks(lambda start, out, bitgen: ran.append(threading.get_ident()), np.empty(6), 1,
                threads)
    assert len(ran) == 6 and threading.get_ident() not in ran
    assert len(set(ran)) <= threads


@pytest.mark.parametrize("threads, total, sets", [(1, 12, 1), (2, 12, 2), (3, 6, 2), (6, 40, 6)])
def test_run_chunks_allocates_one_set_per_concurrent_block_in_the_calling_thread(
    monkeypatch, threads, total, sets
):
    caller = threading.get_ident()
    allocations = []
    empty = np.empty

    def recording_empty(shape, *args, **kwargs):
        if shape == (3,):  # the layout's, not those inside Philox
            allocations.append(threading.get_ident())
        return empty(shape, *args, **kwargs)

    def recording_philox(*args, **kwargs):
        bitgens.append(threading.get_ident())
        return philox(*args, **kwargs)

    bitgens, philox = [], process.Philox
    monkeypatch.setattr(np, "empty", recording_empty)
    monkeypatch.setattr(process, "Philox", recording_philox)
    lock = threading.Lock()
    busy, used = set(), {}

    def worker(start, out, bitgen, buf):
        # each block gets its own view: a set is told by the memory it holds
        with lock:
            assert _address(buf) not in busy  # no two running blocks share a set
            busy.add(_address(buf))
            used[_address(buf)] = buf
        time.sleep(0.001)
        with lock:
            busy.remove(_address(buf))

    _run_chunks(worker, np.zeros(total), 3, threads, [((), np.float64)])
    assert allocations == bitgens == [caller] * sets
    assert 1 <= len(used) <= sets == min(threads, -(-total // 3))


@pytest.mark.parametrize("threads", [1, 2])
def test_run_chunks_starts_no_block_after_one_fails_and_raises_its_error(threads):
    # every block raises: each thread starts one block, and no more are
    # handed out, however many remain
    lock = threading.Lock()
    raised = []

    def worker(start, out, bitgen, buf):
        error = RuntimeError(f"block at row {start}")
        with lock:
            raised.append(error)
        raise error

    with pytest.raises(RuntimeError, match="block at row") as caught:
        _run_chunks(worker, np.empty(10_000), 1, threads, [((1,), np.float64)])
    assert 1 <= len(raised) <= threads
    assert any(caught.value is error for error in raised)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_chunks_runs_every_block_in_the_callers_errstate(threads):
    def worker(start, out, bitgen, buf):
        buf[:] = 1e300
        np.multiply(buf, buf, out=out)  # overflows

    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _run_chunks(worker, np.empty(8), 2, threads, [((), np.float64)])


@pytest.mark.parametrize("threads", [1, 2])
def test_run_chunks_stops_the_hand_out_when_an_interrupt_ends_the_wait(monkeypatch, threads):
    # every thread holds in its first block until the interrupt has
    # propagated; then no thread may take another of the 50 blocks
    release, lock, started, workers = threading.Event(), threading.Lock(), [], []
    join, start = threading.Thread.join, threading.Thread.start

    def worker(start, out, bitgen, buf):
        with lock:
            started.append(start)
        release.wait(5.0)

    def interrupted_join(thread, timeout=None):
        monkeypatch.setattr(threading.Thread, "join", join)  # once only
        raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "join", interrupted_join)
    monkeypatch.setattr(threading.Thread, "start", lambda t: workers.append(t) or start(t))
    with pytest.raises(KeyboardInterrupt):
        _run_chunks(worker, np.empty(50), 1, threads, [((1,), np.float64)])
    release.set()
    for thread in workers:
        join(thread, 5.0)
        assert not thread.is_alive()
    assert len(workers) == threads
    assert 0 <= len(started) <= threads


def test_run_chunks_keeps_row_order_when_blocks_finish_out_of_order():
    def worker(start, out, bitgen, buf):
        time.sleep(0.002 * (start % 3))  # later blocks often finish first
        out[:] = np.arange(start, start + len(out))

    out = _run_chunks(worker, np.empty(40, np.int64), 3, 3, [((3,), np.float64)])
    assert out.tolist() == list(range(40))


def test_run_chunks_sets_stay_apart_under_many_threads_and_frequent_switches(monkeypatch):
    # more threads than cores, many chunks each and a short switch interval:
    # a buffer set shared between running blocks would mix rows of two chunks
    def draw(threads):
        return (
            series_path_ensemble(1.2, 0.7, 40, 4, 2, 16, RandomStream(8), grid_points=4,
                                 threads=threads).tobytes()
            + lepage_marginal_samples(1.2, 50, 40, RandomStream(8), threads=threads).tobytes()
        )

    whole = draw(1)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 3 * _ARRIVAL_BYTES * 50 + 8 * 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert draw(6) == whole
    finally:
        sys.setswitchinterval(interval)


def _loop_arrival_order_sum(coef, curves):
    out = np.zeros((curves.shape[0], curves.shape[2]))
    for n in range(curves.shape[1]):
        out += coef[:, n : n + 1] * curves[:, n, :]
    return out


def test_arrival_order_sum_is_bitwise_the_loop_and_turns_negative_zero_columns_positive():
    rng = np.random.default_rng(4)
    rows, terms, columns = 3, 5, 4
    # F-ordered, as the kernel's fancy-indexed curves are
    curves = np.asfortranarray(rng.standard_normal((rows * terms, columns))).reshape(
        rows, terms, columns
    )
    coef = rng.standard_normal((rows, terms))
    coef[0] = -np.abs(coef[0])  # every coefficient of row 0 negative
    curves[0, :, 1] = 0.0  # so every term of this column is -0.0
    curves[1, :, 2] = -0.0
    coef[1, 0] = -1.0  # a negative first coefficient over +-0.0 terms
    curves[2, :, 3] = 0.0
    curves[2, 1:, 3] = -0.0
    expected = _loop_arrival_order_sum(coef, curves.copy())
    out = np.empty((rows, columns))
    _arrival_order_sum(coef, curves, out)
    assert out.tobytes() == expected.tobytes()
    assert not np.signbit(out[0, 1]) and not np.signbit(out[1, 2])


@pytest.mark.parametrize("hurst, terms, points", [(0.7, 128, 128), (0.5, 64, 256)])
def test_ensembles_with_many_chunks_peak_at_one_chunk(hurst, terms, points):
    # a buffer set kept per chunk, not per thread, would grow with the chunks
    rows, chunk_bytes = _series_chunk(hurst, terms, points)
    peak = _traced_peak(
        series_path_ensemble, 1.2, hurst, 4 * rows + 1, terms, 8, points, RandomStream(3),
        threads=1,
    )
    assert peak <= 1.10 * chunk_bytes
    arrivals = 1000
    rows = _arrival_rows(arrivals)
    peak = _traced_peak(
        lepage_marginal_samples, 1.2, arrivals, 4 * rows + 1, RandomStream(3), threads=1
    )
    assert peak <= 1.10 * (rows * 16 * arrivals + 8 * arrivals)


def test_ensembles_smaller_than_a_chunk_size_their_buffers_to_the_call():
    hurst, terms, points = 0.5, 64, 256
    n_paths = _series_chunk(hurst, terms, points)[0] // 2
    peak = _traced_peak(
        series_path_ensemble, 1.2, hurst, n_paths, terms, 8, points, RandomStream(3),
        threads=1,
    )
    row_bytes = _series_row_bytes(hurst, terms, points)
    assert peak <= 1.10 * (n_paths * row_bytes + _series_draw_bytes(terms, points))
    arrivals, n_samples = 1000, 20
    peak = _traced_peak(
        lepage_marginal_samples, 1.2, arrivals, n_samples, RandomStream(3), threads=1
    )
    assert peak <= 1.10 * (n_samples * 16 * arrivals + 8 * arrivals)


def _traced_peak(driver, *args, **kwargs) -> int:
    """The tracemalloc peak of a second call, so that lazy imports and
    caches filled by the first (``scipy.special``, the embedding
    coefficients) are not counted, whichever tests ran before."""
    driver(*args, **kwargs)
    tracemalloc.start()
    try:
        driver(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_drivers_default_to_as_many_threads_as_their_chunk_budget_allows(monkeypatch):
    # each thread holds one 2 MB buffer set, so the default adds at most
    # 32 MB: 17 threads, however many CPUs
    monkeypatch.delenv("LTFSM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert resolve_threads(thread_bytes=_CHUNK_BYTES) == 17
    counts = []
    run_chunks = experiments._run_chunks

    def recording(worker, out, chunk_rows, threads, layouts=()):
        counts.append(threads)
        return run_chunks(worker, out, chunk_rows, threads, layouts)

    monkeypatch.setattr(experiments, "_run_chunks", recording)
    series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5), grid_points=4)
    lepage_marginal_samples(1.2, 30, 5, RandomStream(5))
    # the random-walk ensemble holds no chunk buffers and keeps the 32 MB rule
    rwrr_path_ensemble(1.2, 3, 10, RandomStream(5))
    assert counts == [17, 17, 2]


# -- a replicate larger than physical memory


def _must_not_run(*args, **kwargs):
    raise AssertionError("drew a substream after the memory check")


def test_a_replicate_larger_than_physical_memory_is_refused_before_any_substream(monkeypatch):
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    monkeypatch.setattr(process, "_physical_bytes", lambda: _series_row_bytes(0.7, 4, 16) - 1)
    with pytest.raises(ValueError, match=r"one replicate \(4 terms of 16 points\) .* GiB of this"):
        series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5))
    with pytest.raises(ValueError, match="one replicate"):
        cf_linearity_experiment("series", 1.0, 0.5, 3, RandomStream(5), terms=4, bandwidth=2,
                                points=128)
    # 16 B per arrival: the exponential word and the sign word
    monkeypatch.setattr(process, "_physical_bytes", lambda: 16 * 50 - 1)
    with pytest.raises(ValueError, match=r"one replicate \(50 arrivals\) .* GiB of this"):
        lepage_marginal_samples(1.2, 50, 5, RandomStream(5))
    with pytest.raises(ValueError, match=r"one replicate \(50 arrivals\)"):
        stable_marginal_check(1.2, 50, 5, RandomStream(5))
    with pytest.raises(ValueError, match=r"one replicate \(50 arrivals\)"):
        tail_moment_sweep(1.2, [5], 3, RandomStream(5), factor=10)


@pytest.mark.parametrize(
    "call, cell_bytes, one",
    [
        (lambda s: cf_linearity_experiment("series", 1.0, 0.5, 30, s, n_times=5, terms=2,
                                           bandwidth=2, points=4), _CF_BYTES, "one replicate"),
        (lambda s: cf_linearity_experiment("rwrr", 1.0, 0.5, 30, s, n_times=5, steps=10),
         _CF_BYTES, "one walk"),
        (lambda s: representation_cf_table(1.2, 0.5, 30, 2, 2, 4, (0.5, 1.0), s, grid_points=5),
         _TABLE_BYTES, "one replicate"),
    ],
    ids=["cf-series", "cf-rwrr", "representation"],
)
def test_a_cf_statistic_larger_than_physical_memory_is_refused_before_any_substream(
    monkeypatch, call, cell_bytes, one
):
    # 30 paths on 6 times: the statistic, not a replicate or the returned
    # matrix, is the largest need
    need = cell_bytes * 30 * 6
    monkeypatch.setattr(process, "_physical_bytes", lambda: need)
    call(RandomStream(5))
    monkeypatch.setattr(process, "_physical_bytes", lambda: need - 1)
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    with pytest.raises(ValueError, match=r"30 paths on 6 times .* GiB of this machine"):
        call(RandomStream(5))
    # a replicate too large is named first
    monkeypatch.setattr(process, "_physical_bytes", lambda: 1)
    with pytest.raises(ValueError, match=one):
        call(RandomStream(5))


@pytest.mark.parametrize("cell_bytes, call", [
    (_CF_BYTES, lambda: cf_linearity_experiment("series", 1.0, 0.5, 4000, RandomStream(1),
                                                n_times=20, terms=2, bandwidth=2, points=4,
                                                threads=1)),
    (_CF_BYTES, lambda: cf_linearity_experiment("rwrr", 1.0, 0.5, 4000, RandomStream(1),
                                                n_times=20, steps=10, threads=1)),
    (_TABLE_BYTES, lambda: representation_cf_table(1.2, 0.5, 4000, 2, 2, 4, (0.5, 1.0),
                                                   RandomStream(1), grid_points=20,
                                                   threads=1)),
], ids=["cf-series", "cf-rwrr", "representation"])
def test_the_cf_statistic_models_bound_the_measured_peak(monkeypatch, cell_bytes, call):
    # small chunks, so that the ensembles and the statistic dominate
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 65536)
    peak = _traced_peak(call)
    assert 0.9 <= peak / (cell_bytes * 4000 * 21) <= 1.0


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda s: cf_linearity_experiment("series", 1.0, 0.5, 20, s, n_times=1), "n_times"),
        (lambda s: cf_linearity_experiment("rwrr", 1.0, 0.5, 20, s, n_times=2), "n_times"),
        (lambda s: cf_linearity_experiment("series", 1.0, 0.5, 1, s), "n_paths"),
        (lambda s: cf_linearity_experiment("rwrr", 1.0, 0.5, 1, s), "n_paths"),
        (lambda s: cf_linearity_experiment("series", 1.0, 0.5, 20, s, u=0.0), "u must"),
        (lambda s: cf_linearity_experiment("rwrr", 1.0, 0.5, 20, s, u=0.0), "u must"),
        (lambda s: cf_linearity_experiment("series", 1.0, 0.5, 20, s, u=np.nan), "u must"),
        (lambda s: cf_linearity_experiment("series", 1.0, 0.5, 20, s, u=-np.inf), "u must"),
        (lambda s: stable_marginal_check(1.2, 50, 1, s), "n_samples"),
        (lambda s: representation_cf_table(1.2, 0.5, 1, 8, 2, 16, (1.0,), s), "n_paths"),
        (lambda s: representation_cf_table(1.2, 0.5, 20, 8, 2, 16, (1.0, np.nan), s), "u must"),
        (lambda s: representation_cf_table(1.2, 0.5, 20, 8, 2, 16, (np.inf,), s), "u must"),
        (lambda s: representation_cf_table(1.2, 0.5, 20, 8, 2, 16, (0.0, 1.0), s), "u must"),
        (lambda s: representation_cf_table(1.2, 0.5, 20, 8, 2, 16, [], s),
         "u_values must not be empty"),
        (lambda s: tail_moment_sweep(1.2, [], 10, s), "n_values must not be empty"),
    ],
    ids=["cf-series-1-time", "cf-rwrr-2-times", "cf-series-1-path", "cf-rwrr-1-path",
         "cf-series-u-0", "cf-rwrr-u-0", "cf-u-nan", "cf-u-inf", "marginal-1-sample",
         "representation-1-path", "representation-u-nan", "representation-u-inf",
         "representation-u-0", "representation-no-u", "sweep-no-n"],
)
def test_protocol_drivers_check_what_their_statistics_need_before_any_substream(
    monkeypatch, call, name
):
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    with pytest.raises(ValueError, match=name):
        call(RandomStream(5))


def test_a_walk_larger_than_physical_memory_is_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    monkeypatch.setattr(process, "_physical_bytes", lambda: _rwrr_row_bytes(1000) - 1)
    with pytest.raises(ValueError, match=r"one walk \(1000 steps\) .* GiB of this"):
        rwrr_path_ensemble(1.2, 3, 1000, RandomStream(5))
    with pytest.raises(ValueError, match=r"one walk \(1000 steps\)"):
        simulate_rwrr_baseline(1.2, 1000, 5, NoDraws())
    with pytest.raises(ValueError, match=r"one walk \(1000 steps\)"):
        cf_linearity_experiment("rwrr", 1.0, 0.5, 3, RandomStream(5), steps=1000)


def test_a_tail_sweep_is_refused_at_its_largest_n_before_any_sweep_draws(monkeypatch):
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    monkeypatch.setattr(process, "_physical_bytes", lambda: 16 * 640 - 1)
    with pytest.raises(ValueError, match=r"one replicate \(640 arrivals\)"):
        tail_moment_sweep(1.2, [8, 64], 3, RandomStream(5), factor=10)


@pytest.mark.parametrize("memory", ["exact", "unknown"])
def test_a_walk_that_fits_in_memory_or_an_unknown_size_runs(monkeypatch, memory):
    expect = (rwrr_path_ensemble(1.2, 3, 1000, RandomStream(5)),
              simulate_rwrr_baseline(1.2, 1000, 5, RandomStream(6)).values)
    size = _rwrr_row_bytes(1000) if memory == "exact" else None
    monkeypatch.setattr(process, "_physical_bytes", lambda: size)
    got = (rwrr_path_ensemble(1.2, 3, 1000, RandomStream(5)),
           simulate_rwrr_baseline(1.2, 1000, 5, RandomStream(6)).values)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]


def test_a_series_replicate_is_checked_as_a_one_row_chunk(monkeypatch):
    # the replicate's working bytes fit, but not next to its curves: 64 terms
    # on 201 grid times, more than its raw draw of 2 * 4 words per term
    row_bytes = _series_row_bytes(0.5, 64, 4)
    assert row_bytes == 6656
    need = row_bytes + max(16 * 64 * 4, 8 * 64 * 201)
    call = (1.2, 0.5, 1, 64, 2, 4)
    expect = series_path_ensemble(*call, RandomStream(1), grid_points=200, threads=1)
    monkeypatch.setattr(process, "_physical_bytes", lambda: need)
    got = series_path_ensemble(*call, RandomStream(1), grid_points=200, threads=1)
    assert got.tobytes() == expect.tobytes()
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    for memory in (row_bytes, need - 1):
        monkeypatch.setattr(process, "_physical_bytes", lambda: memory)
        with pytest.raises(ValueError, match=r"one replicate \(64 terms of 4 points\)"):
            series_path_ensemble(*call, RandomStream(1), grid_points=200, threads=1)


@pytest.mark.parametrize(
    "call, memory",
    [
        # 12.6 MB for one replicate, as a one-row chunk with its raw draw;
        # four one-row sets of 8.4 MB
        (lambda: series_path_ensemble(1.2, 0.7, 8, 64, 8, 4096, RandomStream(1), threads=4),
         18 * 2**20),
        # 1.6 MB for one replicate; four one-row sets of 1.6 MB
        (lambda: lepage_marginal_samples(1.2, 100_000, 4, RandomStream(1), threads=4),
         2 * _ARRIVAL_BYTES * 100_000),
    ],
    ids=["series", "lepage"],
)
def test_every_threads_buffer_set_counts_in_the_memory_refusal(monkeypatch, call, memory):
    monkeypatch.setattr(process, "_physical_bytes", lambda: memory)
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    monkeypatch.setattr(threading.Thread, "start", _must_not_run)
    with pytest.raises(ValueError, match=r"one buffer set per thread \(threads = 4\)"):
        call()


@pytest.mark.parametrize("memory", ["exact", "unknown"])
def test_a_replicate_that_fits_in_memory_or_an_unknown_size_runs(monkeypatch, memory):
    expect = (series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5)),
              lepage_marginal_samples(1.2, 50, 5, RandomStream(5)))
    # the replicate (for the series a one-row chunk: its raw draw, 16 * 4 *
    # 16 B, outweighs its curves), the returned array, then the one buffer
    # set (one chunk, so one thread: 3 rows of 4 terms, each 3 head words, 32
    # noise words and 34 work floats), of each call
    probes = iter([_series_row_bytes(0.7, 4, 16) + 16 * 4 * 16, 8 * 3 * 21, 3 * 8 * 4 * 69,
                   16 * 50, 8 * 5, 5 * 16 * 50])
    monkeypatch.setattr(process, "_physical_bytes",
                        lambda: next(probes) if memory == "exact" else None)
    got = (series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5)),
           lepage_marginal_samples(1.2, 50, 5, RandomStream(5)))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]


# -- a returned array larger than physical memory


@pytest.mark.parametrize(
    "call, need",
    [
        (lambda: series_path_ensemble(1.2, 0.5, 3000, 2, 2, 4, RandomStream(1), threads=1),
         8 * 3000 * 21),
        (lambda: rwrr_path_ensemble(1.2, 3000, 10, RandomStream(1), threads=1),
         8 * 3000 * 21),
        (lambda: lepage_marginal_samples(1.2, 10, 50000, RandomStream(1), threads=1),
         8 * 50000),
        (lambda: stable_marginal_check(1.2, 10, 50000, RandomStream(1), threads=1),
         48 * 50000),
        (lambda: tail_moment_sweep(1.2, [1, 2], 50000, RandomStream(1), factor=2),
         16 * 50000),
    ],
    ids=["series", "rwrr", "lepage", "marginal", "sweep"],
)
def test_a_result_model_bounds_the_peak_and_is_where_refusal_starts(monkeypatch, call, need):
    # small chunks, so that the returned array, not one chunk's buffers,
    # dominates the peak
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 65536)
    call()  # the lazy imports and caches before the measurement
    monkeypatch.setattr(process, "_physical_bytes", lambda: need)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need + 2 * 65536
    monkeypatch.setattr(process, "_physical_bytes", lambda: need - 1)
    monkeypatch.setattr(experiments, "_substream_heads", _must_not_run)
    with pytest.raises(ValueError, match="GiB of this machine"):
        call()

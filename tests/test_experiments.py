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
from ltfsm.experiments import _ARRIVAL_BYTES, _CHUNK_BYTES, _chunk_rows, _series_row_bytes
from ltfsm.process import _arrival_order_sum, _run_chunks, resolve_threads
from ltfsm.streams import (
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


@pytest.mark.parametrize("horizon", [0.0, np.nan, np.inf])
def test_random_walk_drivers_reject_a_non_finite_horizon_before_any_draw(horizon):
    with pytest.raises(ValueError, match="horizon"):
        rwrr_path_ensemble(1.2, 3, 10, NoDraws(), horizon=horizon)
    with pytest.raises(ValueError, match="horizon"):
        simulate_rwrr_baseline(1.2, 10, 5, NoDraws(), horizon=horizon)


# -- chunk sizes follow from one byte budget


def test_chunk_rows_are_pinned_for_the_arrival_drivers_and_the_h_half_series():
    # the rows pin the arrival drivers' memory, not their bits: these equal
    # 500 000-word chunks for every arrival count, and a chunk holds half
    # the 8 MB budget (see test_arrival_chunk_peaks_at_its_words)
    for n in (1, 7, 1000, 2000, 2560, 249_999, 250_000):
        assert _chunk_rows(_ARRIVAL_BYTES * n) == 250_000 // n
    assert _chunk_rows(_ARRIVAL_BYTES * 500_000) == 1
    assert _chunk_rows(_series_row_bytes(0.5, 64, 256)) == 30
    assert _chunk_rows(_series_row_bytes(0.5, 64, 512)) == 15
    assert _chunk_rows(_series_row_bytes(0.7, 128, 128)) == 15


@pytest.mark.parametrize(
    "hurst, terms, points", [(0.7, 128, 128), (0.5, 64, 256), (0.3, 16, 1024)]
)
def test_series_row_bytes_model_the_measured_chunk_peak(hurst, terms, points):
    row_bytes = _series_row_bytes(hurst, terms, points)
    rows = _chunk_rows(row_bytes)
    tracemalloc.start()
    try:
        series_path_ensemble(1.2, hurst, rows, terms, 8, points, RandomStream(3), threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.95 <= peak / (rows * row_bytes) <= 1.10


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("density", ["laplace", "gaussian"])
@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_series_ensemble_is_bitwise_invariant_to_the_chunk_budget(
    monkeypatch, hurst, density, threads
):
    args = (1.2, hurst, 8, 4, 2, 16, RandomStream(61))
    kwargs = dict(grid_points=6, density=density, threads=threads)
    whole = series_path_ensemble(*args, **kwargs)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 3 * _series_row_bytes(hurst, 4, 16))
    assert _chunk_rows(_series_row_bytes(hurst, 4, 16)) == 3
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
    # one chunk of words, converted in place: 16 B per arrival, half the
    # _ARRIVAL_BYTES budget that pins the rows
    rows = _chunk_rows(_ARRIVAL_BYTES * arrivals)
    tracemalloc.start()
    try:
        if driver == "lepage":
            lepage_marginal_samples(1.2, arrivals, rows, RandomStream(3), threads=1)
        else:
            tail_moment_sweep(1.2, [40], rows, RandomStream(3), factor=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.95 <= peak / (rows * 8 * words) <= 1.10


@pytest.mark.parametrize("threads", [1, 2])
def test_lepage_samples_are_bitwise_invariant_to_the_chunk_budget(monkeypatch, threads):
    def draw():
        samples = lepage_marginal_samples(1.2, 50, 8, RandomStream(62), threads=threads)
        # the tail sweep at N = 5, factor 10 also has 50 arrivals per replicate;
        # over 20 replicates, a sum of 3-row chunk sums differs in the last bits
        sweep = tail_moment_sweep(1.2, [5], 20, RandomStream(62), factor=10)
        return samples.tobytes() + np.array(sweep[5]).tobytes()

    whole = draw()
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 3 * _ARRIVAL_BYTES * 50)
    assert _chunk_rows(_ARRIVAL_BYTES * 50) == 3
    assert draw() == whole


# -- the one chunk runner


def test_run_chunks_reuses_one_buffer_set_across_blocks():
    seen = []

    def worker(start, rows, head, work):
        seen.append((head, work))
        # a block of fewer rows takes the leading rows, C-contiguous, so words
        # still convert to uniforms in place
        head, work = head[:rows], work[:rows]
        assert head.flags.c_contiguous and work.flags.c_contiguous
        assert head.__array_interface__["data"] == seen[0][0].__array_interface__["data"]
        head[:] = start
        return head[:, 0].astype(np.int64)

    layouts = [((5, 3), np.uint64), ((5, 2, 4), np.float64)]
    out = _run_chunks(worker, 12, 5, 1, layouts)
    assert out.tolist() == [0] * 5 + [5] * 5 + [10] * 2
    head, work = seen[0]
    assert head.shape == (5, 3) and head.dtype == np.uint64
    assert work.shape == (5, 2, 4) and work.dtype == np.float64
    assert all(h is head and w is work for h, w in seen)
    # another call gets its own set
    again = []
    _run_chunks(lambda start, rows, h, w: again.append(h) or np.empty(rows), 5, 5, 1, layouts)
    assert not np.shares_memory(again[0], head)


@pytest.mark.parametrize("threads, total, sets", [(1, 12, 1), (2, 12, 2), (3, 6, 2), (6, 40, 6)])
def test_run_chunks_allocates_one_set_per_concurrent_block_in_the_calling_thread(
    monkeypatch, threads, total, sets
):
    caller = threading.get_ident()
    allocations = []
    empty = np.empty

    def recording_empty(*args, **kwargs):
        allocations.append(threading.get_ident())
        return empty(*args, **kwargs)

    monkeypatch.setattr(np, "empty", recording_empty)
    lock = threading.Lock()
    busy, used = set(), {}

    def worker(start, rows, buf):
        with lock:
            assert id(buf) not in busy  # no two running blocks share a set
            busy.add(id(buf))
            used[id(buf)] = buf
        time.sleep(0.001)
        with lock:
            busy.remove(id(buf))
        return np.full(rows, start)

    _run_chunks(worker, total, 3, threads, [((3,), np.float64)])
    assert allocations == [caller] * sets
    assert 1 <= len(used) <= sets == min(threads, -(-total // 3))


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
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 3 * _ARRIVAL_BYTES * 50)
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
    out = _arrival_order_sum(coef, curves)
    assert out.flags.c_contiguous and not np.shares_memory(out, curves)
    assert out.tobytes() == expected.tobytes()
    assert not np.signbit(out[0, 1]) and not np.signbit(out[1, 2])


def test_ensembles_with_many_chunks_peak_at_one_chunk():
    # a buffer set kept per chunk, not per thread, would grow with the chunks
    hurst, terms, points = 0.7, 128, 128
    row_bytes = _series_row_bytes(hurst, terms, points)
    rows = _chunk_rows(row_bytes)
    peak = _traced_peak(
        series_path_ensemble, 1.2, hurst, 4 * rows + 1, terms, 8, points, RandomStream(3),
        threads=1,
    )
    assert peak <= 1.10 * rows * row_bytes
    arrivals = 1000
    rows = _chunk_rows(_ARRIVAL_BYTES * arrivals)
    peak = _traced_peak(
        lepage_marginal_samples, 1.2, arrivals, 4 * rows + 1, RandomStream(3), threads=1
    )
    assert peak <= 1.10 * rows * 16 * arrivals


def test_ensembles_smaller_than_a_chunk_size_their_buffers_to_the_call():
    hurst, terms, points = 0.7, 128, 128
    row_bytes = _series_row_bytes(hurst, terms, points)
    n_paths = _chunk_rows(row_bytes) // 2
    peak = _traced_peak(
        series_path_ensemble, 1.2, hurst, n_paths, terms, 8, points, RandomStream(3),
        threads=1,
    )
    assert peak <= 1.10 * n_paths * row_bytes
    arrivals, n_samples = 1000, 20
    peak = _traced_peak(
        lepage_marginal_samples, 1.2, arrivals, n_samples, RandomStream(3), threads=1
    )
    assert peak <= 1.10 * n_samples * 16 * arrivals


def _traced_peak(driver, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        driver(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_drivers_default_to_as_many_threads_as_their_chunk_budget_allows(monkeypatch):
    # each thread holds one 8 MB buffer set, so the default adds at most
    # 32 MB: 5 threads, however many CPUs
    monkeypatch.delenv("LTFSM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert resolve_threads(thread_bytes=_CHUNK_BYTES) == 5
    counts = []
    run_chunks = experiments._run_chunks

    def recording(worker, total, chunk_rows, threads, layouts=()):
        counts.append(threads)
        return run_chunks(worker, total, chunk_rows, threads, layouts)

    monkeypatch.setattr(experiments, "_run_chunks", recording)
    series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5), grid_points=4)
    lepage_marginal_samples(1.2, 30, 5, RandomStream(5))
    # the random-walk ensemble holds no chunk buffers and keeps the 32 MB rule
    rwrr_path_ensemble(1.2, 3, 10, RandomStream(5))
    assert counts == [5, 5, 2]


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
                                points=64)
    # 16 B per arrival: the exponential word and the sign word
    monkeypatch.setattr(process, "_physical_bytes", lambda: 16 * 50 - 1)
    with pytest.raises(ValueError, match=r"one replicate \(50 arrivals\) .* GiB of this"):
        lepage_marginal_samples(1.2, 50, 5, RandomStream(5))
    with pytest.raises(ValueError, match=r"one replicate \(50 arrivals\)"):
        stable_marginal_check(1.2, 50, 5, RandomStream(5))
    with pytest.raises(ValueError, match=r"one replicate \(50 arrivals\)"):
        tail_moment_sweep(1.2, [5], 3, RandomStream(5), factor=10)


@pytest.mark.parametrize("memory", ["exact", "unknown"])
def test_a_replicate_that_fits_in_memory_or_an_unknown_size_runs(monkeypatch, memory):
    expect = (series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5)),
              lepage_marginal_samples(1.2, 50, 5, RandomStream(5)))
    probes = iter([_series_row_bytes(0.7, 4, 16), 16 * 50])
    monkeypatch.setattr(process, "_physical_bytes",
                        lambda: next(probes) if memory == "exact" else None)
    got = (series_path_ensemble(1.2, 0.7, 3, 4, 2, 16, RandomStream(5)),
           lepage_marginal_samples(1.2, 50, 5, RandomStream(5)))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]

"""Unit tests for the tuned simulation of the flagship process."""

import math
import os
import pickle
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import ltfsm.fbm
import ltfsm.oracle
from ltfsm import (
    ConfigError,
    FbmPath,
    SeriesConfig,
    TuningParams,
    discretized_occupation,
    fbm_path,
    fgn_from_noise,
    flat_params,
    grid_index,
    gaussian_density_weight,
    laplace_weight,
    poisson_arrivals,
    process,
    simulate_ltfsm,
    simulate_rwrr_baseline,
    tune,
)
from ltfsm.process import (
    _occupation_curves,
    _path_bytes,
    _physical_bytes,
    _run_chunks,
    _rwrr_row_bytes,
    _term_bytes,
    _term_layout,
    resolve_threads,
)
from ltfsm.streams import RandomStream, _cursor, _seek, uniform_to_laplace_half


# -- configuration validation -----------------------------------------------------


def test_config_reports_every_violated_inequality_at_once():
    with pytest.raises(ConfigError) as err:
        SeriesConfig(alpha=3.0, hurst=1.5, epsilon=0.0, eta=0.5, q=1.0, p=0.5)
    msg = str(err.value)
    for fragment in ("alpha", "hurst", "epsilon", "eta", "q must", "p must"):
        assert fragment in msg


def test_config_couples_delta_to_hurst():
    # at hurst = 0.99 the kernel-rate cap is 1/(2 * 0.99) - 1/2 < 0.006
    with pytest.raises(ConfigError, match="delta"):
        SeriesConfig(alpha=1.0, hurst=0.99)
    SeriesConfig(alpha=1.0, hurst=0.99, delta=0.004, delta_prime=0.5)


def test_config_rejects_regularity_exponents_at_or_above_hurst():
    with pytest.raises(ConfigError, match="delta_prime"):
        SeriesConfig(alpha=1.0, hurst=0.5, delta_prime=0.5)
    with pytest.raises(ConfigError, match="delta_prime"):
        SeriesConfig(alpha=1.0, hurst=0.3, delta_prime=1.2)


def test_config_couples_beta_to_alpha():
    with pytest.raises(ConfigError, match="beta"):
        SeriesConfig(alpha=1.9, hurst=0.5, beta=0.2)
    SeriesConfig(alpha=1.2, hurst=0.5, beta=0.3)


def test_config_grid_times_span_the_horizon():
    cfg = SeriesConfig(alpha=1.0, hurst=0.5, horizon=2.0, grid_points=8)
    t = cfg.grid_times
    assert len(t) == 9
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.diff(t) > 0.0)


# -- tuning --------------------------------------------------------------------------


def test_tuning_head_length_is_the_smallest_admissible_cutoff():
    assert tune(SeriesConfig(alpha=1.0, hurst=0.5, q=2.5)).N == 2
    assert tune(SeriesConfig(alpha=0.8, hurst=0.5, q=2.5)).N == 3
    assert tune(SeriesConfig(alpha=1.2, hurst=0.5, q=3.5)).N == 2


def test_tuning_at_unit_epsilon_floors_at_the_head_length():
    params = tune(
        SeriesConfig(alpha=1.0, hurst=0.5, epsilon=1.0, eta=2.0, q=2.5, delta=0.4)
    )
    assert (params.P, params.N, params.k) == (3, 2, 1)


def test_tuning_scales_as_epsilon_shrinks():
    # alpha = 1, eta = 2: P ~ epsilon**-4; delta = 0.4: k ~ epsilon**-5
    params = tune(
        SeriesConfig(alpha=1.0, hurst=0.5, epsilon=0.5, eta=2.0, q=2.5, delta=0.4)
    )
    assert (params.P, params.N, params.k) == (16, 2, 32)


def test_tuning_grid_rules_follow_the_powers():
    cfg = SeriesConfig(
        alpha=1.0, hurst=0.5, epsilon=0.5, eta=2.0, q=2.5, delta=0.4, delta_prime=0.25
    )
    params = tune(cfg)
    k_power = float(params.k) ** ((2.0 + 0.4) / 0.25)
    # head: floor(gamma**(-1/(delta' alpha)) * k_power), capped
    expect_head = min(cfg.max_points, int(2.0 ** (-1.0 / 0.25) * k_power))
    assert params.points_for(1, 2.0) == expect_head
    # tail with beta = 0 is constant in n
    expect_tail = min(cfg.max_points, int(k_power))
    assert params.points_for(params.N + 1, 123.0) == expect_tail
    assert params.points_for(params.P, 123.0) == expect_tail


def test_grid_rules_warn_when_the_cap_binds():
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, epsilon=0.4, max_points=64)
    params = tune(cfg)
    with pytest.warns(RuntimeWarning, match="capped at max_points=64"):
        assert params.points_for(1, 0.01) == 64  # astronomically large head rule
    with pytest.warns(RuntimeWarning, match="capped at max_points=64"):
        assert params.points_for(params.N + 1, 9.9) == 64


def test_uncapped_overflow_is_an_error():
    params = tune(SeriesConfig(alpha=1.2, hurst=0.5, epsilon=0.4, max_points=0))
    with pytest.raises(ValueError, match="max_points"):
        params.points_for(1, 0.01)


def test_config_rejects_non_finite_floats_and_tune_rejects_overflow():
    for name in ("alpha", "epsilon", "horizon", "delta_prime", "c_p", "c_k"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                SeriesConfig(**{"alpha": 1.2, "hurst": 0.5, name: bad})
    with pytest.raises(ConfigError, match="overflow"):
        tune(SeriesConfig(alpha=1.2, hurst=0.5, c_k=1e300))
    with pytest.raises(ConfigError, match="overflow"):
        tune(SeriesConfig(alpha=1.2, hurst=0.5, c_p=1e300, epsilon=1e-300))


def test_head_rule_overflow_is_capped_like_any_huge_grid():
    # gamma ** (-1 / (delta' alpha)) exceeds the float range at alpha = 0.01
    params = tune(SeriesConfig(alpha=0.01, hurst=0.5, epsilon=0.9, max_points=64))
    with pytest.warns(RuntimeWarning, match="capped at max_points=64"):
        assert params.points_for(1, 0.1) == 64


def test_tuning_params_validate_their_sizes():
    sizes = dict(P=1, N=0, k=1, k_power=1.0)
    assert TuningParams(**sizes) == flat_params(1, 1, 1)
    for name, bad in (("P", 0), ("N", -1), ("k", 0)):
        with pytest.raises(ConfigError):
            TuningParams(**{**sizes, name: bad})
    with pytest.raises(ConfigError):
        flat_params(0, 1, 1)


def test_tuning_params_are_plain_comparable_picklable_data():
    cfg = SeriesConfig(alpha=1.2, hurst=0.7, epsilon=0.4, delta=0.17, delta_prime=0.2)
    params = tune(cfg)
    assert params == tune(cfg)
    coarser = SeriesConfig(alpha=1.2, hurst=0.7, epsilon=0.5, delta=0.17, delta_prime=0.2)
    assert params != tune(coarser)
    assert pickle.loads(pickle.dumps(params)) == params
    assert pickle.loads(pickle.dumps(flat_params(7, 3, 64))) == flat_params(7, 3, 64)
    assert (params.k_power, params.head_exp, params.tail_exp, params.max_points) == (
        float(params.k) ** (2.17 / 0.2),
        1.0 / (0.2 * 1.2),
        0.0,
        262144,
    )


@pytest.mark.parametrize(
    "n, gamma",
    [
        (1, 0.5), (1, 2.0), (2, 7.5), (2, 1e4), (3, 0.01), (3, 1e-300), (4, 123.0),
        (9, 0.1), (50, 3.0),
    ],
)
def test_points_for_follows_the_documented_rule(n, gamma):
    params = TuningParams(
        P=60, N=3, k=4, k_power=300.5, head_exp=1.7, tail_exp=0.4, max_points=1000
    )
    if n <= params.N:
        try:
            requested = gamma ** (-params.head_exp) * params.k_power
        except OverflowError:
            requested = math.inf
    else:
        requested = params.k_power * n ** (-params.tail_exp)
    if requested > params.max_points:
        with pytest.warns(RuntimeWarning, match="capped at max_points=1000") as caught:
            assert params.points_for(n, gamma) == params.max_points
        # the warning names the line that called points_for
        assert [w.filename for w in caught] == [__file__]
    else:
        assert params.points_for(n, gamma) == max(1, math.floor(requested))


def test_flat_params_use_one_grid_size_everywhere():
    params = flat_params(7, 3, 64)
    assert (params.P, params.N, params.k) == (7, 0, 3)
    assert params.points_for(1, 0.001) == 64
    assert params.points_for(7, 1e9) == 64


# -- importance weights ----------------------------------------------------------------


def test_weights_exactly_invert_their_sampling_densities():
    x = np.linspace(-3.0, 3.0, 13)
    for alpha in (0.8, 1.0, 1.7):
        laplace_density = np.exp(-2.0 * np.abs(x))
        np.testing.assert_allclose(
            laplace_density * laplace_weight(x, alpha) ** alpha, 1.0, rtol=1e-12
        )
        normal_density = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(
            normal_density * gaussian_density_weight(x, alpha) ** alpha,
            1.0,
            rtol=1e-12,
        )


# -- series simulation --------------------------------------------------------------------


def test_single_term_path_is_the_documented_composition():
    cfg = SeriesConfig(alpha=1.3, hurst=0.4, grid_points=16)
    path = simulate_ltfsm(cfg, flat_params(1, 3, 64), RandomStream(99))

    s = RandomStream(99)
    gamma = poisson_arrivals(1, s)[0]
    gauss = s.gaussian(1)[0]
    location = uniform_to_laplace_half(s.uniform(1))[0]
    noise = s.gaussian(128)
    fgn = fgn_from_noise(0.4, 64, 1.0 / 64, noise)
    inner = FbmPath(hurst=0.4, horizon=1.0, values=np.concatenate([[0.0], np.cumsum(fgn)]))
    curve = discretized_occupation(inner, 3, location, cfg.grid_times)
    expect = gamma ** (-1.0 / 1.3) * gauss * math.exp(2.0 * abs(location) / 1.3) * curve.values
    expect[0] = 0.0
    np.testing.assert_allclose(path.values, expect, rtol=1e-12, atol=1e-15)
    assert np.array_equal(path.times, cfg.grid_times)


def test_simulation_is_deterministic_and_starts_at_zero():
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, grid_points=12)
    params = flat_params(5, 2, 32)
    a = simulate_ltfsm(cfg, params, RandomStream(41))
    b = simulate_ltfsm(cfg, params, RandomStream(41))
    c = simulate_ltfsm(cfg, params, RandomStream(42))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 0.0


def test_the_two_density_forms_share_draws_but_differ_pathwise():
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, grid_points=12)
    params = flat_params(5, 2, 32)
    lap = simulate_ltfsm(cfg, params, RandomStream(41))
    gau = simulate_ltfsm(cfg, params, RandomStream(41), density="gaussian")
    assert not np.array_equal(lap.values, gau.values)
    assert gau.values[0] == 0.0


@pytest.mark.parametrize("density", ["laplace", "gaussian"])
def test_simulate_ltfsm_follows_the_documented_draw_order(density):
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    m = 24
    params = flat_params(5, 2, m)
    s = RandomStream(61)
    gammas = poisson_arrivals(params.P, s)
    normals = s.gaussian(params.P)
    if density == "laplace":
        locations = uniform_to_laplace_half(s.uniform(params.P))
        weights = normals * laplace_weight(locations, cfg.alpha)
    else:
        locations = s.gaussian(params.P)
        weights = normals * gaussian_density_weight(locations, cfg.alpha)
    idx = grid_index(m, cfg.horizon, cfg.grid_times)
    expect = np.zeros(len(idx))
    for n in range(params.P):
        words = _term_words(cfg.hurst, s.raw(2 * m)[None])
        work = np.empty(_term_layout(cfg.hurst, m)[2])
        curve = _occupation_curves(
            cfg.hurst, m, cfg.horizon, params.k, words, locations[n], idx, work
        )
        expect += float(gammas[n]) ** (-1.0 / cfg.alpha) * (float(weights[n]) * curve[0])
    expect[0] = 0.0
    path = simulate_ltfsm(cfg, params, RandomStream(61), density=density)
    assert np.array_equal(path.values, expect)


def _term_words(hurst, blocks):
    """A term's noise word slots (see ``_term_layout``) from rows of its
    ``2 m``-word blocks.  At H = 1/2 the first ``m`` words follow slot 0,
    which the kernel overwrites with the path's 0; it holds the largest word
    here, whose uniform is exactly 1.0."""
    if hurst != 0.5:
        return blocks
    m = blocks.shape[-1] // 2
    words = np.full((len(blocks), m + 1), np.iinfo(np.uint64).max, np.uint64)
    words[:, 1:] = blocks[:, :m]
    return words


def _draw_order_reference(cfg, params, stream, density):
    """The documented draw order, one term at a time on one stream."""
    gammas = poisson_arrivals(params.P, stream)
    normals = stream.gaussian(params.P)
    if density == "laplace":
        locations = uniform_to_laplace_half(stream.uniform(params.P))
        weights = normals * laplace_weight(locations, cfg.alpha)
    else:
        locations = stream.gaussian(params.P)
        weights = normals * gaussian_density_weight(locations, cfg.alpha)
    expect = np.zeros(cfg.grid_points + 1)
    for n in range(params.P):
        gamma = float(gammas[n])
        m = params.points_for(n + 1, gamma)
        idx = grid_index(m, cfg.horizon, cfg.grid_times)
        words = _term_words(cfg.hurst, stream.raw(2 * m)[None])
        work = np.empty(_term_layout(cfg.hurst, m)[2])
        curve = _occupation_curves(
            cfg.hurst, m, cfg.horizon, params.k, words, locations[n], idx, work
        )
        expect += gamma ** (-1.0 / cfg.alpha) * (float(weights[n]) * curve[0])
    expect[0] = 0.0
    return expect


# head terms of unequal size, the first ones capped, then a decreasing tail
_CAPPED = TuningParams(P=7, N=3, k=3, k_power=40.0, head_exp=1.5, tail_exp=0.3, max_points=96)


@pytest.mark.parametrize("drawn", [0, 5], ids=["fresh", "part-used"])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("density", ["laplace", "gaussian"])
@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("params", [flat_params(5, 2, 24), _CAPPED], ids=["flat", "capped"])
def test_threaded_terms_are_bitwise_the_draw_order_reference(
    params, hurst, density, threads, drawn
):
    # from a part-used stream the head ends off a multiple of 4 words, inside
    # one Philox block
    cfg = SeriesConfig(alpha=1.3, hurst=hurst, grid_points=9, delta=0.1, delta_prime=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the cap warnings
        reference = RandomStream(61)
        reference.raw(drawn)
        expect = _draw_order_reference(cfg, params, reference, density)
        stream = RandomStream(61)
        stream.raw(drawn)
        path = simulate_ltfsm(cfg, params, stream, density=density, threads=threads)
    assert path.values.tobytes() == expect.tobytes()
    # the stream is left where the sequential loop leaves it
    assert np.array_equal(stream.raw(4), reference.raw(4))


def test_the_capped_params_have_unequal_head_terms():
    gammas = poisson_arrivals(_CAPPED.P, RandomStream(61))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = [_CAPPED.points_for(n + 1, float(g)) for n, g in enumerate(gammas)]
    assert points[0] == _CAPPED.max_points and len(caught) >= 1
    assert len(set(points[: _CAPPED.N])) > 1 and len(set(points[_CAPPED.N :])) > 1


def test_cap_warnings_are_the_same_at_any_thread_count():
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    messages = []
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate_ltfsm(cfg, _CAPPED, RandomStream(61), threads=threads)
        messages.append([(w.category, str(w.message)) for w in caught])
    assert messages[0] == messages[1]
    assert len(messages[0]) >= 1


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_threaded_terms_peak_at_their_chunk_buffers(hurst):
    # two chunks in flight hold one (noise, work) pair and one term's raw-word
    # temporary each; a per-term allocation in the workers adds a pair or more
    m = 65536
    cfg = SeriesConfig(alpha=1.2, hurst=hurst, grid_points=200, delta=0.1, delta_prime=0.2)
    params = flat_params(6, 4, m)
    simulate_ltfsm(cfg, params, RandomStream(1), threads=2)  # warm the caches
    tracemalloc.start()
    try:
        simulate_ltfsm(cfg, params, RandomStream(2), threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, kept, floats = _term_layout(hurst, m)  # noise words kept per term, work floats
    pair = 8 * (kept + floats)
    assert peak <= 1.10 * 2 * (pair + 8 * kept)


def test_the_default_thread_count_bounds_the_tuned_path_memory(monkeypatch):
    monkeypatch.delenv("LTFSM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    # at the CLI's cap m = 2**18 one more thread fits in the 32 MB
    assert resolve_threads(None, _term_bytes(0.7, 2**18)) == 2
    counts = []

    def spy(worker, out, chunk_rows, threads, layouts):
        counts.append(threads)
        return _run_chunks(worker, out, chunk_rows, threads, layouts)

    monkeypatch.setattr(process, "_run_chunks", spy)
    monkeypatch.setattr(process, "_THREAD_BYTES", 2 * _term_bytes(0.7, 24))
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    params = flat_params(5, 2, 24)
    path = simulate_ltfsm(cfg, params, RandomStream(61))
    assert counts == [3]
    assert np.array_equal(path.values, simulate_ltfsm(cfg, params, RandomStream(61), threads=1).values)


def test_an_interrupt_while_waiting_starts_no_further_term(monkeypatch):
    # both threads hold in their first term until the interrupt has
    # propagated; then neither may start another of the 50 terms
    release, entered, started, workers = threading.Event(), threading.Semaphore(0), [], []
    join, start = threading.Thread.join, threading.Thread.start
    curves = process._occupation_curves

    def held(*args):
        started.append(threading.get_ident())  # ``list.append`` is atomic
        entered.release()
        release.wait(5.0)
        return curves(*args)

    def interrupted_join(thread, timeout=None):
        monkeypatch.setattr(threading.Thread, "join", join)  # once only
        assert entered.acquire(timeout=5.0) and entered.acquire(timeout=5.0)
        raise KeyboardInterrupt

    monkeypatch.setattr(process, "_occupation_curves", held)
    monkeypatch.setattr(threading.Thread, "join", interrupted_join)
    monkeypatch.setattr(threading.Thread, "start", lambda t: workers.append(t) or start(t))
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    with pytest.raises(KeyboardInterrupt):
        simulate_ltfsm(cfg, flat_params(50, 2, 24), RandomStream(61), threads=2)
    release.set()
    for thread in workers:
        join(thread, 5.0)
        assert not thread.is_alive()
    assert len(workers) == 2
    assert len(started) == 2


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran after the memory check")


def test_a_term_larger_than_physical_memory_is_refused_before_any_noise(monkeypatch):
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    params = flat_params(5, 2, 24)
    monkeypatch.setattr(process, "_physical_bytes", lambda: _term_bytes(0.7, 24) - 1)
    monkeypatch.setattr(ltfsm.fbm, "_embedding_coefficients", _must_not_run)
    monkeypatch.setattr(process, "_run_chunks", _must_not_run)
    stream = RandomStream(61)
    with pytest.raises(ValueError, match=r"m = 24.*more than the .* GiB of this machine"):
        simulate_ltfsm(cfg, params, stream)
    assert _cursor(stream)[1] == 3 * params.P  # the head only, no noise word


def test_every_threads_buffer_set_counts_in_the_memory_refusal(monkeypatch):
    # one term fits, and so do three (noise words, work) sets, but not four
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    params = flat_params(8, 2, 4096)
    three_sets = 3 * 8 * sum(_term_layout(0.7, 4096)[1:])
    assert three_sets > _term_bytes(0.7, 4096)
    expect = simulate_ltfsm(cfg, params, RandomStream(61), threads=1)
    monkeypatch.setattr(process, "_physical_bytes", lambda: three_sets)
    path = simulate_ltfsm(cfg, params, RandomStream(61), threads=3)
    assert path.values.tobytes() == expect.values.tobytes()
    monkeypatch.setattr(threading.Thread, "start", _must_not_run)
    ltfsm.fbm._embedding_coefficients.cache_clear()
    stream = RandomStream(61)
    with pytest.raises(ValueError, match=r"one buffer set per thread \(threads = 4\) .* GiB "
                                         r"of this machine; lower the thread count"):
        simulate_ltfsm(cfg, params, stream, threads=4)
    assert _cursor(stream)[1] == 3 * params.P  # the head only, no noise word
    assert ltfsm.fbm._embedding_coefficients.cache_info().misses == 0  # and no coefficient


def test_a_tuned_path_builds_each_grid_size_once_past_the_cache_bound():
    # 77 distinct sizes, more than the 64 the coefficient cache keeps; terms
    # run in order and their sizes fall, so no size is needed after its turn
    cfg = SeriesConfig(alpha=1.3, hurst=0.63, grid_points=9, delta=0.1, delta_prime=0.2)
    params = TuningParams(P=80, N=0, k=2, k_power=4096.0, tail_exp=1.0)
    sizes = {params.points_for(n, 0.0) for n in range(1, params.P + 1)}
    assert len(sizes) == 77
    cache = ltfsm.fbm._embedding_coefficients
    paths = []
    for threads in (1, 2):
        cache.cache_clear()
        paths.append(simulate_ltfsm(cfg, params, RandomStream(17), threads=threads))
        assert cache.cache_info().misses == len(sizes)
    assert paths[0].values.tobytes() == paths[1].values.tobytes()


def test_each_term_builds_a_new_size_before_it_seats_its_philox(monkeypatch):
    # the build's transient must not sit beside the term's noise words
    cfg = SeriesConfig(alpha=1.3, hurst=0.63, grid_points=9, delta=0.1, delta_prime=0.2)
    params = TuningParams(P=12, N=0, k=2, k_power=4096.0, tail_exp=1.0)
    sizes = [params.points_for(n, 0.0) for n in range(1, params.P + 1)]
    cache = ltfsm.fbm._embedding_coefficients
    built_at_seek = []

    def seek(*args):
        built_at_seek.append(cache.cache_info().misses)
        return _seek(*args)

    monkeypatch.setattr(process, "_seek", seek)
    cache.cache_clear()
    simulate_ltfsm(cfg, params, RandomStream(17), threads=1)
    # one seek per term, in term order, then the stream's own
    assert built_at_seek[:-1] == [len(set(sizes[: n + 1])) for n in range(params.P)]
    cache.cache_clear()
    simulate_ltfsm(SeriesConfig(alpha=1.3, hurst=0.5, grid_points=9), flat_params(3, 2, 64),
                   RandomStream(17), threads=1)
    assert cache.cache_info().misses == 0  # H = 1/2 needs none


@pytest.mark.parametrize("memory", ["exact", "unknown"])
def test_a_term_that_fits_in_memory_or_an_unknown_size_runs(monkeypatch, memory):
    cfg = SeriesConfig(alpha=1.3, hurst=0.7, grid_points=9, delta=0.1, delta_prime=0.2)
    params = flat_params(5, 2, 24)
    expect = simulate_ltfsm(cfg, params, RandomStream(61), threads=1)
    probe = _term_bytes(0.7, 24) if memory == "exact" else None
    monkeypatch.setattr(process, "_physical_bytes", lambda: probe)
    path = simulate_ltfsm(cfg, params, RandomStream(61), threads=1)
    assert path.values.tobytes() == expect.values.tobytes()


@pytest.mark.parametrize("epsilon, grid_points", [(0.01, 200), (0.8, 100_000_000)],
                         ids=["tuned-P-1e9", "grid-1e8"])
def test_a_head_and_curves_larger_than_physical_memory_are_refused_before_the_head(
    monkeypatch, epsilon, grid_points
):
    # never run for real: P = 10**9 terms, or 8 * 3 * 10**8 B of curves
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, epsilon=epsilon, grid_points=grid_points)
    params = tune(cfg)
    monkeypatch.setattr(process, "_physical_bytes", lambda: 2**30)
    monkeypatch.setattr(SeriesConfig, "grid_times", property(_must_not_run))
    with pytest.raises(ValueError, match=rf"the head and curves of {params.P} terms on "
                                         rf"{grid_points + 1} times .* GiB of this machine"):
        simulate_ltfsm(cfg, params, _NoDraws())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("hurst", [0.5, 0.7])
@pytest.mark.parametrize("grid_points", [1, 100])
def test_path_bytes_bound_the_peak_of_many_small_terms(hurst, grid_points, threads):
    # m = 4: the head, the per-term bookkeeping and the curves dominate
    cfg = SeriesConfig(alpha=1.2, hurst=hurst, grid_points=grid_points, delta=0.1,
                       delta_prime=0.2)
    params = flat_params(1000, 2, 4)
    simulate_ltfsm(cfg, params, RandomStream(1), threads=threads)  # warm the caches
    tracemalloc.start()
    try:
        simulate_ltfsm(cfg, params, RandomStream(2), threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _path_bytes(params.P, grid_points) + threads * _term_bytes(hurst, 4)


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_per_term_bookkeeping_fits_under_the_heads_own_peak(hurst):
    # sizes and coefficients in 8 B array entries, no per-term Python
    # objects: the head's 64 B per term stays the peak at grid 1
    cfg = SeriesConfig(alpha=1.2, hurst=hurst, grid_points=1, delta=0.1, delta_prime=0.2)
    params = flat_params(2000, 2, 4)
    simulate_ltfsm(cfg, params, RandomStream(1), threads=1)  # warm the caches
    tracemalloc.start()
    try:
        simulate_ltfsm(cfg, params, RandomStream(2), threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 68 * params.P + 2**15  # and 32 KiB of fixed costs


def test_the_memory_probe_reads_sysconf_or_gives_none(monkeypatch):
    memory = _physical_bytes()
    assert memory is None or (isinstance(memory, int) and memory > 0)

    def sysconf_without_phys_pages(name):
        if name != "SC_PAGE_SIZE":
            raise ValueError("unrecognized configuration name")
        return 4096

    monkeypatch.setattr(os, "sysconf", sysconf_without_phys_pages)
    assert _physical_bytes() is None
    monkeypatch.delattr(os, "sysconf")
    assert _physical_bytes() is None


class _NoDraws:
    """A stream that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the stream was used ({name})")


def test_an_unknown_density_is_rejected_before_any_draw():
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, grid_points=4)
    with pytest.raises(ValueError, match="density must be"):
        simulate_ltfsm(cfg, flat_params(3, 2, 8), _NoDraws(), density="poisson")


@pytest.mark.parametrize(
    "threads, env, message",
    [(0, None, "threads must be an integer >= 1"),
     (None, "abc", "LTFSM_THREADS must be an integer >= 1, got 'abc'")],
    ids=["zero", "env-abc"],
)
def test_a_bad_thread_count_is_refused_before_any_word_is_drawn(
    monkeypatch, threads, env, message
):
    if env is None:
        monkeypatch.delenv("LTFSM_THREADS", raising=False)
    else:
        monkeypatch.setenv("LTFSM_THREADS", env)
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, grid_points=4)
    stream = RandomStream(61)
    with pytest.raises(ValueError, match=message):
        simulate_ltfsm(cfg, flat_params(3, 2, 8), stream, threads=threads)
    assert _cursor(stream)[1] == 0  # not even the head


def test_tuned_simulation_runs_end_to_end_when_capped():
    cfg = SeriesConfig(alpha=1.2, hurst=0.5, epsilon=0.8, grid_points=10, max_points=256)
    with pytest.warns(RuntimeWarning, match="capped"):
        path = simulate_ltfsm(cfg, tune(cfg), RandomStream(7))
    assert len(path.values) == 11
    assert np.all(np.isfinite(path.values))


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("rows", [1, 5])
def test_occupation_curves_rows_are_the_per_path_occupation(hurst, rows):
    m, k, horizon = 48, 3, 1.7
    times = np.arange(11) * (horizon / 10)
    idx = grid_index(m, horizon, times)
    blocks = RandomStream(rows).raw(rows * 2 * m).reshape(rows, 2 * m)
    centers = RandomStream(rows + 100).gaussian(rows).reshape(rows, 1) * 0.3
    work = np.empty(rows * _term_layout(hurst, m)[2])
    # the kernel works in the memory of its words (and at H != 1/2 of work)
    words = _term_words(hurst, blocks.copy())
    assert words.shape == (rows, _term_layout(hurst, m)[1])
    curves = _occupation_curves(hurst, m, horizon, k, words, centers, idx, work)
    assert curves.shape == (rows, len(idx))
    stream = RandomStream(rows)  # row r's block is the r-th fBm path of that stream
    for r in range(rows):
        path = fbm_path(hurst, horizon, m, stream)
        expect = discretized_occupation(path, k, float(centers[r, 0]), times).values
        assert np.array_equal(curves[r], expect)
    if hurst == 0.5:  # the first m words after the path's 0 slot, no work array
        assert _term_layout(hurst, m) == (1, m + 1, 0)
        words = _term_words(hurst, blocks.copy())
        words[:, 0] = 0  # whatever slot 0 holds
        again = _occupation_curves(hurst, m, horizon, k, words, centers, idx, None)
        assert again.tobytes() == curves.tobytes()


# -- discrete baseline -----------------------------------------------------------------------


class _Words:
    """A raw-word source that hands out ``words`` in order and records the
    size of each request."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.sizes = []

    def raw(self, size):
        start = sum(self.sizes)
        self.sizes.append(size)
        return self.words[start : start + size].copy()


def _sign_words(steps):
    """Raw words whose top bit is set exactly for the +1 steps; the low bits
    are noise the walk must ignore."""
    low = RandomStream(23).raw(len(steps)) >> np.uint64(1)
    return [int(w) | (1 << 63 if step > 0 else 0) for w, step in zip(low, steps)]


def test_rwrr_hand_recomputation_with_stub_draws():
    reward_words = RandomStream(5).raw(4)
    source = _Words(_sign_words([1, 1, -1, 1]) + reward_words.tolist())
    path = simulate_rwrr_baseline(1.5, 4, 2, source)
    # the reward words are the oracle's uniforms: 2 angles, then 2 exponentials
    rewards = ltfsm.oracle.sample_stable_oracle(1.5, RandomStream(5), 2)
    # walk 1, 2, 1, 2 over sites {1, 2}: partial sums r0+r1 then 2 r0 + 2 r1
    norm = 4.0 ** (0.5 + 0.5 / 1.5)
    expect = np.array([0.0, (rewards[0] + rewards[1]) / norm, 2.0 * (rewards[0] + rewards[1]) / norm])
    np.testing.assert_allclose(path.values, expect, rtol=1e-14)
    assert np.array_equal(path.times, [0.0, 0.5, 1.0])
    assert source.sizes == [4, 4]  # steps sign words, then 2 words per site


def _unit_rewards(alpha, u):
    return np.ones(len(u) // 2)


def test_rwrr_grid_mapping_counts_whole_steps(monkeypatch):
    monkeypatch.setattr(ltfsm.oracle, "_stable_from_uniforms", _unit_rewards)
    source = _Words(_sign_words([1, -1] * 5) + [0] * 4)
    # unit rewards make the partial sum equal the step count floor(steps t / T)
    path = simulate_rwrr_baseline(1.0, 10, 4, source)
    norm = 10.0 ** (0.5 + 0.5)
    np.testing.assert_allclose(path.values, np.array([0.0, 2.0, 5.0, 7.0, 10.0]) / norm)


@pytest.mark.parametrize(
    "steps, sites, expect",
    [
        ([1, 1, 1, 1], 4, [0, 1, 2, 3]),
        ([-1, -1, -1, -1], 4, [3, 2, 1, 0]),
        ([1], 1, [0]),
        ([-1], 1, [0]),
    ],
)
def test_rwrr_shifts_the_lowest_site_to_zero(monkeypatch, steps, sites, expect):
    # site s carries reward s, so the increments of the partial sums read the
    # shifted site of every step
    monkeypatch.setattr(ltfsm.oracle, "_stable_from_uniforms",
                        lambda alpha, u: np.arange(len(u) // 2, dtype=float))
    source = _Words(_sign_words(steps) + [0] * (2 * sites))
    path = simulate_rwrr_baseline(1.0, len(steps), len(steps), source)
    assert source.sizes == [len(steps), 2 * sites]
    assert np.diff(np.rint(path.values * len(steps))).tolist() == expect


def test_rwrr_row_bytes_bound_the_peak_of_a_walk_that_never_turns():
    steps = 20_000  # one site per step, the most a walk can visit
    source = _Words(_sign_words([1] * steps) + RandomStream(3).raw(2 * steps).tolist())
    tracemalloc.start()
    try:
        simulate_rwrr_baseline(1.2, steps, 20, source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert source.sizes == [steps, 2 * steps]
    # the model leaves out a few small arrays (the grid columns, the values)
    assert 0.99 * _rwrr_row_bytes(steps) <= peak <= 1.01 * _rwrr_row_bytes(steps)


def test_rwrr_is_deterministic_and_validated():
    a = simulate_rwrr_baseline(1.2, 500, 10, RandomStream(3))
    b = simulate_rwrr_baseline(1.2, 500, 10, RandomStream(3))
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    simulate_rwrr_baseline(2.0, 10, 2, RandomStream(1))  # the Gaussian edge is allowed
    with pytest.raises(ValueError):
        simulate_rwrr_baseline(0.0, 10, 2, RandomStream(1))
    with pytest.raises(ValueError):
        simulate_rwrr_baseline(1.0, 0, 2, RandomStream(1))
    with pytest.raises(ValueError):
        simulate_rwrr_baseline(1.0, 10, 0, RandomStream(1))
    with pytest.raises(ValueError):
        simulate_rwrr_baseline(1.0, 10, 2, RandomStream(1), horizon=0.0)

"""Unit tests for the fractional Brownian motion generator."""

import math

import numpy as np
import pytest

import ltfsm.fbm as fbm_module
from ltfsm import (
    EmbeddingError,
    FbmPath,
    fbm_covariance,
    fbm_path,
    fgn_from_noise,
    increment_autocovariance,
)
from ltfsm.streams import RandomStream

# Closed form at H = 0.3, s = 0.25, t = 0.75: (s**0.6 + t**0.6 - 0.5**0.6)/2.
COV_H03 = 0.3084938426731323


def _target_covariance(hurst: float, m: int, spacing: float) -> np.ndarray:
    acv = increment_autocovariance(hurst, np.arange(m), spacing)
    idx = np.arange(m)
    return acv[np.abs(idx[:, None] - idx[None, :])]


def _realized_covariance(hurst: float, m: int, spacing: float):
    # the noise -> fgn map is linear; feeding the identity recovers its matrix
    basis = np.eye(2 * m)
    a = fgn_from_noise(hurst, m, spacing, basis).T
    return a @ a.T


def test_fbm_covariance_closed_form():
    assert fbm_covariance(0.25, 0.75, 0.3) == pytest.approx(COV_H03, rel=1e-15)
    assert fbm_covariance(0.5, 0.5, 0.41) == pytest.approx(0.5**0.82, rel=1e-15)
    assert fbm_covariance(0.0, 1.0, 0.3) == 0.0
    # Brownian overlap: min(s, t)
    assert fbm_covariance(0.3, 0.8, 0.5) == pytest.approx(0.3, rel=1e-15)
    assert fbm_covariance(0.25, 0.75, 0.3) == fbm_covariance(0.75, 0.25, 0.3)


def test_fbm_covariance_domain():
    for hurst in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            fbm_covariance(0.1, 0.2, hurst)
    with pytest.raises(ValueError):
        fbm_covariance(-0.1, 0.2, 0.5)


def test_increment_autocovariances_sum_to_the_terminal_variance():
    m = 16
    lags = np.arange(-m + 1, m)
    acv = increment_autocovariance(0.3, lags, 1.0 / m)
    total = float(np.sum((m - np.abs(lags)) * acv))
    assert total == pytest.approx(fbm_covariance(1.0, 1.0, 0.3), rel=1e-12)


def test_synthesis_matches_the_target_covariance_exactly():
    for hurst in (0.2, 0.3, 0.7, 0.85):
        target = _target_covariance(hurst, 32, 1.0 / 32)
        realized = _realized_covariance(hurst, 32, 1.0 / 32)
        np.testing.assert_allclose(realized, target, atol=1e-14)


def test_batched_noise_matches_row_by_row_synthesis():
    noise = RandomStream(5).gaussian(6 * 32).reshape(6, 32)
    batch = fgn_from_noise(0.3, 16, 0.25, noise)
    singles = np.array([fgn_from_noise(0.3, 16, 0.25, row) for row in noise])
    np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-15)


def _full_spectrum_fgn(hurst, m, spacing, noise):
    """Davies-Harte on the full 2m-point Hermitian spectrum, one complex FFT."""
    c = increment_autocovariance(hurst, np.arange(m + 1))
    row = np.concatenate([c, c[m - 1 : 0 : -1]])
    lam = np.clip(np.fft.fft(row).real[: m + 1], 0.0, None)
    coef = np.sqrt(lam / (4.0 * m))
    coef[0] = np.sqrt(lam[0] / (2.0 * m))
    coef[m] = np.sqrt(lam[m] / (2.0 * m))
    g1 = noise[..., :m]
    g2 = noise[..., m:]
    w = np.zeros(noise.shape[:-1] + (2 * m,), dtype=complex)
    w[..., 0] = coef[0] * g1[..., 0]
    if m > 1:
        w[..., 1:m] = coef[1:m] * (g1[..., 1:m] + 1j * g2[..., 1:m])
        w[..., m + 1 :] = np.conj(w[..., 1:m])[..., ::-1]
    w[..., m] = coef[m] * g2[..., 0]
    return np.fft.fft(w, axis=-1)[..., :m].real * spacing**hurst


@pytest.mark.parametrize("hurst", [0.3, 0.7, 0.9])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 128, 1000])
@pytest.mark.parametrize("rows", [None, 4])
def test_half_spectrum_synthesis_matches_the_full_spectrum_reference(hurst, m, rows):
    shape = (2 * m,) if rows is None else (rows, 2 * m)
    noise = RandomStream(m).gaussian(int(np.prod(shape))).reshape(shape)
    out = fgn_from_noise(hurst, m, 0.37, noise)
    ref = _full_spectrum_fgn(hurst, m, 0.37, noise)
    assert out.dtype == np.float64
    assert out.shape == shape[:-1] + (m,)
    # relative to the largest reference value: single entries may sit near 0
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_half_spectrum_is_bitwise_the_negated_product_form(hurst):
    m = 8
    noise = RandomStream(7).gaussian(3 * 2 * m).reshape(3, 2 * m)
    noise[0] = 0.0
    noise[1] = -0.0
    noise[2, ::2] = -np.abs(noise[2, ::2])
    noise[2, 1::4] = -0.0
    noise[2, 3::4] = 5e-324  # subnormal
    half = fbm_module._half_spectrum(hurst, noise, np.empty((3, m + 1), dtype=complex))
    coef = fbm_module._embedding_coefficients(hurst, m)
    expected = np.empty((3, m + 1), dtype=complex)
    expected.real[:, :m] = noise[:, :m] * coef[:m]
    expected.real[:, m] = coef[m] * noise[:, m]
    expected.imag[:, 1:m] = np.negative(noise[:, m + 1 :] * coef[1:m])
    expected.imag[:, 0] = 0.0
    expected.imag[:, m] = 0.0
    assert half.tobytes() == expected.tobytes()
    assert np.signbit(half.imag[0, 1:m]).all() and not np.signbit(half.imag[1, 1:m]).any()


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("shape", [(32,), (3, 32)])
def test_fgn_from_noise_leaves_the_callers_noise_unchanged(hurst, shape):
    noise = RandomStream(8).gaussian(int(np.prod(shape))).reshape(shape)
    before = noise.copy()
    fgn = fgn_from_noise(hurst, 16, 0.1, noise)
    assert noise.tobytes() == before.tobytes()
    assert fgn.shape == shape[:-1] + (16,)
    assert not np.shares_memory(fgn, noise)


def test_noise_block_length_is_validated():
    with pytest.raises(ValueError):
        fgn_from_noise(0.3, 8, 0.1, np.zeros(15))
    with pytest.raises(ValueError):
        fgn_from_noise(0.3, 0, 0.1, np.zeros(0))
    with pytest.raises(ValueError):
        fgn_from_noise(0.3, 8, 0.0, np.zeros(16))


def test_hurst_half_shortcut_scales_the_first_half_of_the_block():
    path = fbm_path(0.5, 2.0, 32, RandomStream(43))
    noise = RandomStream(43).gaussian(64)
    manual = np.concatenate([[0.0], np.cumsum(noise[:32] * (2.0 / 32) ** 0.5)])
    assert np.array_equal(path.values, manual)


def test_noise_budget_is_route_independent():
    # a path always costs 2 * points normals, so downstream draws stay aligned
    takes = []
    for hurst in (0.5, 0.3, 0.7):
        s = RandomStream(42)
        fbm_path(hurst=hurst, horizon=1.0, points=64, stream=s)
        takes.append(s.uniform(1)[0])
    assert len(set(takes)) == 1


def test_fbm_path_shape_and_determinism():
    path = fbm_path(0.7, 2.0, 50, RandomStream(1))
    assert path.values[0] == 0.0
    assert path.points == 50
    assert path.spacing == pytest.approx(0.04, rel=1e-15)
    assert np.array_equal(path.times, np.arange(51) * path.spacing)
    again = fbm_path(0.7, 2.0, 50, RandomStream(1))
    assert np.array_equal(path.values, again.values)
    assert not np.array_equal(path.values, fbm_path(0.7, 2.0, 50, RandomStream(2)).values)


def test_path_arguments_are_validated():
    with pytest.raises(ValueError):
        fbm_path(0.5, 0.0, 8, RandomStream(1))
    with pytest.raises(ValueError):
        fbm_path(0.5, 1.0, 0, RandomStream(1))
    with pytest.raises(ValueError):
        fbm_path(1.5, 1.0, 8, RandomStream(1))


@pytest.mark.parametrize("points", [2.5, 0, -4, True, math.inf, math.nan, "8"])
def test_a_bad_point_count_is_rejected_by_name(points):
    with pytest.raises(ValueError, match="points must be an integer >= 1"):
        fbm_path(0.7, 1.0, points, RandomStream(1))
    with pytest.raises(ValueError, match="points must be an integer >= 1"):
        fgn_from_noise(0.7, points, 0.1, np.zeros(16))


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
def test_fbm_path_rejects_a_non_finite_or_negative_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be finite and > 0"):
        fbm_path(0.7, horizon, 8, RandomStream(1))


@pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_spacing_must_be_finite_and_positive(hurst, spacing):
    with pytest.raises(ValueError, match="spacing must be finite and > 0"):
        fgn_from_noise(hurst, 8, spacing, np.zeros(16))
    with pytest.raises(ValueError, match="spacing must be finite and > 0"):
        increment_autocovariance(hurst, np.arange(4), spacing)


def _reference_autocovariance(hurst, lags, spacing=1.0):
    """The increment autocovariance as first written, out of place."""
    j = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * hurst
    return 0.5 * ((j + 1.0) ** h2 - 2.0 * j**h2 + np.abs(j - 1.0) ** h2) * spacing**h2


def _reference_coefficients(hurst, m):
    """The coefficients as first written: the autocovariance, its mirror
    concatenated, and the divide and ``sqrt`` out of place."""
    c = _reference_autocovariance(hurst, np.arange(m + 1))
    row = np.concatenate([c, c[m - 1 : 0 : -1]])
    lam = np.fft.rfft(row).real
    tol = fbm_module._EIG_RTOL * float(lam.max(initial=0.0))
    if lam.min() < -tol:
        return None
    lam = np.clip(lam, 0.0, None)
    length = 2 * m
    coef = np.sqrt(lam / (2.0 * length))
    coef[0] = np.sqrt(lam[0] / length)
    coef[m] = np.sqrt(lam[m] / length)
    return coef


@pytest.mark.parametrize("m", [1, 2, 7, 1000, 4096, 65537])
@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.45, 0.55, 0.7, 0.97])
def test_embedding_coefficients_are_bitwise_the_reference(hurst, m):
    coef = fbm_module._embedding_coefficients.__wrapped__(hurst, m)
    assert coef.tobytes() == _reference_coefficients(hurst, m).tobytes()


@pytest.mark.parametrize(
    ("lags", "spacing"),
    [(np.arange(-3, 40), 1.0), (np.arange(6.0).reshape(2, 3) / 4, 0.3), (2, 7.0)],
)
def test_increment_autocovariance_is_bitwise_the_reference(lags, spacing):
    got = increment_autocovariance(0.7, lags, spacing)
    want = _reference_autocovariance(0.7, lags, spacing)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(got) == np.shape(want)


_NON_DEFINITE = r"not nonnegative definite for hurst=0\.999, points=262144$"


def test_a_non_definite_embedding_has_no_coefficients():
    assert _reference_coefficients(0.999, 262_144) is None
    with pytest.raises(EmbeddingError, match=_NON_DEFINITE):
        fbm_module._embedding_coefficients.__wrapped__(0.999, 262_144)


def test_non_definite_embeddings_fail_loudly():
    # the real non-definite size, through the cache and the half spectrum
    with pytest.raises(EmbeddingError, match=_NON_DEFINITE):
        fgn_from_noise(0.999, 262_144, 1.0, np.zeros(524_288))

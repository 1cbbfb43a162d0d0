"""Unit tests for the mollified occupation functionals."""

import math

import numpy as np
import pytest

from ltfsm import (
    FbmPath,
    discretized_occupation,
    fbm_path,
    grid_index,
    kernel_phi,
    kernel_phi_k,
    occupation_oracle,
)
from ltfsm.localtime import _phi_k_in_place
from ltfsm.streams import RandomStream


def test_kernel_phi_is_the_unit_triangular_bump():
    assert kernel_phi(0.0) == 1.0
    assert kernel_phi(0.5) == 0.5
    assert kernel_phi(-0.5) == 0.5
    assert kernel_phi(1.0) == 0.0
    assert kernel_phi(2.0) == 0.0
    assert kernel_phi(np.array([-2.0, 0.0, 0.25])) == pytest.approx([0.0, 1.0, 0.75])


def test_kernel_phi_k_peak_support_and_unit_mass():
    assert kernel_phi_k(3, 0.0) == 3.0
    assert kernel_phi_k(3, 1.0 / 3.0) == 0.0
    assert kernel_phi_k(3, 0.34) == 0.0
    assert kernel_phi_k(1, 0.0) == kernel_phi(0.0)
    for k in (1, 2, 5):
        x = np.linspace(-1.5 / k, 1.5 / k, 30001)
        assert np.trapezoid(kernel_phi_k(k, x), x) == pytest.approx(1.0, abs=1e-6)


def test_bandwidth_must_be_a_positive_integer():
    for bad in (0, -2, 1.5, True):
        with pytest.raises(ValueError):
            kernel_phi_k(bad, 0.0)


@pytest.mark.parametrize("k", [1, 3, 4, 16, 3246])
def test_in_place_tent_kernel_is_bitwise_kernel_phi_k(k):
    edges = [0.0, -0.0, 1.0 / k, -1.0 / k, 0.5 / k, np.nextafter(1.0 / k, 1.0),
             np.nextafter(-1.0 / k, -1.0), 1e300, -1e300, 1.7e308, -1.7e308]
    x = np.concatenate([edges, RandomStream(k).gaussian(9999) * (2.0 / k)])
    with np.errstate(over="ignore"):  # k * x overflows at the huge edges
        # |k x| = 1 exactly: 1/k is exact for a power of two, and k * (1/k)
        # rounds to 1 for the other bandwidths
        assert np.any(np.abs(k * x) == 1.0)
        expected = kernel_phi_k(k, x)
        fused = _phi_k_in_place(k, x.copy().reshape(2, -1)).reshape(-1)
    assert fused.tobytes() == expected.tobytes()


def test_grid_index_floors_with_a_roundoff_guard():
    idx = grid_index(10, 1.0, [0.0, 0.05, 0.1, 0.3, 1.0])
    assert list(idx) == [0, 0, 1, 3, 10]
    # every exact grid time must map to its own index despite float division
    many = grid_index(1000, 1.0, np.arange(1001) / 1000.0)
    assert np.array_equal(many, np.arange(1001))


def test_constant_path_occupation_is_exact():
    m = 40
    path = FbmPath(hurst=0.5, horizon=2.0, values=np.full(m + 1, 0.7))
    curve = discretized_occupation(path, 5, 0.7, np.array([0.0, 1.0, 2.0]))
    # one rectangle at t = 0, m/2 + 1 at t = T/2, m + 1 at t = T, each of
    # mass (T/m) * phi_k(0) = (2/40) * 5
    np.testing.assert_allclose(curve.values, [0.25, 5.25, 10.25], rtol=1e-14)
    assert curve.center == 0.7
    assert np.array_equal(curve.times, [0.0, 1.0, 2.0])


def test_occupation_is_nonnegative_and_nondecreasing():
    path = fbm_path(0.5, 1.0, 128, RandomStream(3))
    t = np.linspace(0.0, 1.0, 33)
    curve = discretized_occupation(path, 4, 0.1, t)
    assert np.all(curve.values >= 0.0)
    assert np.all(np.diff(curve.values) >= 0.0)


def test_eval_times_are_validated():
    path = FbmPath(hurst=0.5, horizon=1.0, values=np.zeros(11))
    for bad in ([-0.1], [1.1]):
        with pytest.raises(ValueError):
            discretized_occupation(path, 2, 0.0, np.array(bad))
    with pytest.raises(ValueError):
        discretized_occupation(path, 2, 0.0, np.array([]))
    with pytest.raises(ValueError):
        discretized_occupation(path, 2, 0.0, np.array([[0.5]]))


@pytest.mark.parametrize(
    "x, times, name",
    [
        (0.0, [0.0, 0.5, math.nan], "eval_times must be finite"),
        (0.0, [math.inf], "eval_times must be finite"),
        (math.nan, [0.0, 0.5], "level x must be finite"),
        (-math.inf, [0.5], "level x must be finite"),
    ],
)
def test_non_finite_times_and_levels_are_refused_by_name(x, times, name):
    # unrefused, a NaN time reads the t = 0 value and a NaN level gives NaN
    # values
    path = fbm_path(0.5, 1.0, 16, RandomStream(3))
    with pytest.raises(ValueError, match=name):
        discretized_occupation(path, 4, x, times)


def test_occupation_mass_integrates_to_the_rectangle_total():
    # integrating I_k(x, T) over x recovers (m + 1)/m * T exactly (unit-mass
    # kernel, m + 1 rectangles of weight T/m)
    path = fbm_path(0.5, 1.0, 64, RandomStream(3))
    k = 4
    xs = np.linspace(path.values.min() - 1.5 / k, path.values.max() + 1.5 / k, 20001)
    curve = np.array(
        [
            discretized_occupation(path, k, float(x), np.array([1.0])).values[0]
            for x in xs
        ]
    )
    assert np.trapezoid(curve, xs) == pytest.approx(65.0 / 64.0, rel=1e-6)


def test_occupation_oracle_constant_path():
    m = 40
    path = FbmPath(hurst=0.5, horizon=2.0, values=np.full(m + 1, 0.7))
    assert occupation_oracle(path, 0.2, 0.7, 2.0) == pytest.approx(
        (2.0 / m) * (m + 1) / 0.2, rel=1e-14
    )
    assert occupation_oracle(path, 0.2, 5.0, 2.0) == 0.0


def test_occupation_oracle_domain():
    path = FbmPath(hurst=0.5, horizon=1.0, values=np.zeros(11))
    with pytest.raises(ValueError):
        occupation_oracle(path, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        occupation_oracle(path, 0.1, 0.0, 1.5)
    with pytest.raises(ValueError):
        occupation_oracle(path, 0.1, 0.0, -0.1)


def test_occupation_oracle_rejects_a_non_finite_bin_width():
    path = FbmPath(hurst=0.5, horizon=1.0, values=np.zeros(11))
    for bin_width in (math.nan, math.inf):
        with pytest.raises(ValueError, match="bin_width must be finite"):
            occupation_oracle(path, bin_width, 0.0, 1.0)


def test_kernel_and_histogram_routes_agree_at_matched_bandwidth():
    # both routes estimate the same occupation density of a Brownian path
    path = fbm_path(0.5, 1.0, 4096, RandomStream(5))
    k = 8
    kernel = discretized_occupation(path, k, 0.0, np.array([1.0])).values[0]
    histogram = occupation_oracle(path, 1.0 / k, 0.0, 1.0)
    assert abs(kernel - histogram) < 0.1
